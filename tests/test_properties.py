"""Property tests: the gate, the decision and the homogeneous kernel read one
rule for where the spectra meet, and the kernel agrees with the dense oracle.

Examples are derandomized, so every run draws the same pairs.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sylvcert.instances import regular_pair, shared_semisimple_pair
from sylvcert.oracle import build_operator, oracle_solve
from sylvcert.roots import homogeneous_equivalence, homogeneous_nullspaces
from sylvcert.singular import prepare, solve_uv_report

from conftest import shared_cluster_pair

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def pairs(draw):
    """(a, b, c) with n, m <= 8: a shared Jordan block of size 1-4, one
    shared semisimple eigenvalue, or disjoint spectra."""
    family = draw(st.sampled_from(("jordan", "semisimple", "regular")))
    k = draw(st.integers(1, 4)) if family == "jordan" else 1
    n, m = draw(st.integers(k, 8)), draw(st.integers(k, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "jordan":
        a, b = shared_cluster_pair(rng, k, None, n, m)
    elif family == "semisimple":
        a, b = shared_semisimple_pair(rng, n, m)
    else:
        a, b = regular_pair(rng, n, m)
    return a, b, rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def vectors(basis) -> np.ndarray:
    return np.column_stack([x.reshape(-1, order="F") for x in basis])


@PROPERTY
@given(pairs())
def test_gate_tolerance_is_the_decision_cluster_tolerance(pair):
    p = prepare(*pair)
    assert p.gate.intersection_tolerance == solve_uv_report(p).cluster_tolerance


@PROPERTY
@given(pairs())
def test_kernel_needs_the_gate_and_matches_the_oracle(pair):
    a, b, c = pair
    p = prepare(a, b, c)
    x_basis, y_basis = homogeneous_nullspaces(p)
    if x_basis or y_basis:
        assert p.gate.spectra_intersect
        assert homogeneous_equivalence(p)[0] == bool(x_basis)
    for basis, equation in ((x_basis, "homogeneous"), (y_basis, "adjoint_homogeneous")):
        reference = oracle_solve(equation, p.a, p.b)
        if reference.near_cutoff:
            continue
        assert len(basis) == reference.nullity
        if basis:
            # the oracle's null space: its operator's trailing right singular vectors
            _, _, vh = np.linalg.svd(build_operator(equation, p.a, p.b).matrix)
            angles = scipy.linalg.subspace_angles(vectors(basis),
                                                  vh[-reference.nullity:].conj().T)
            assert angles.max() <= 1e-6
