"""Property tests: the gate, the decision and the homogeneous kernel read one
rule for where the spectra meet, the kernel agrees with the dense oracle, and
the shift is the smallest admissible three-digit shift.

Examples are derandomized, so every run draws the same pairs.
"""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sylvcert.gate import DEFAULT_MARGIN, choose_shift
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
            _, _, vh = np.linalg.svd(build_operator(equation, p.a, p.b))
            angles = scipy.linalg.subspace_angles(vectors(basis),
                                                  vh[-reference.nullity:].conj().T)
            assert angles.max() <= 1e-6


@st.composite
def spectra(draw):
    """Two spectra of 1-7 eigenvalues at a common scale in 1e-3..1e3, and a
    sector half-angle; half the draws keep every argument within half of it
    and every modulus above a tenth of the scale."""
    alpha = draw(st.floats(0.05, math.pi / 2 - 0.05, exclude_min=True, exclude_max=True))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    inside = draw(st.booleans())
    squeeze = alpha / (2 * math.pi) if inside else 1.0

    def side():
        k = draw(st.integers(1, 7))
        moduli = draw(st.lists(st.floats(0.1 if inside else 0.0, 1.0), min_size=k, max_size=k))
        angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=k, max_size=k))
        return scale * np.array(moduli) * np.exp(1j * squeeze * np.array(angles))

    return side(), side(), alpha


def admissible(values, lam: float, alpha: float) -> bool:
    """The shift's definition: every z + lam has sin(alpha - |arg(z + lam)|)
    at least the margin and modulus at least margin * max |z|."""
    margin = min(DEFAULT_MARGIN, 0.99 * math.sin(alpha))
    radius = float(np.abs(values).max())
    floor = margin * (radius if radius > 0 else 1.0)
    shifted = values + lam
    return bool(np.all((np.sin(alpha - np.abs(np.angle(shifted))) >= margin)
                       & (np.abs(shifted) >= floor)))


@PROPERTY
@given(spectra())
def test_shift_is_the_smallest_admissible_three_digit_shift(case):
    sa, sb, alpha = case
    values = np.concatenate([sa, sb])
    lam = choose_shift(sa, sb, alpha)
    assert admissible(values, lam, alpha)
    assert float(f"{lam:.3g}") == lam
    if admissible(values, 0.0, alpha):
        assert lam == 0.0
    else:
        quantum = 10.0 ** (math.floor(math.log10(lam)) - 2)
        assert not admissible(values, float(f"{lam - quantum:.3g}"), alpha)
