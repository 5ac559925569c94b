"""Property tests: the gate, the decision and the homogeneous kernel read one
rule for where the spectra meet, ``prepare``'s factors put that cluster first
and still factor the shifted pair, the kernel agrees with the dense oracle, the
shift is the smallest admissible three-digit shift, only a right-hand side
outside the range widens a too narrow cluster, the stacked root search
agrees with a search of one candidate at a time, and the candidates it skips
only repeat others, the root bridge's outcome
is unchanged under a unitary similarity of the problem, every solvable
verdict's certificate passes, a shared pair's kernel and cokernel have one
dimension, the data's scale bounds every shared block and its rank is
judged at the pair's one cutoff, and the verdict is unchanged under every
transformation that keeps solvability: unitary similarity, transposition, a
common shift and scaling.

Examples are derandomized, so every run draws the same pairs.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from sylvcert import gate
from sylvcert.errors import DimensionError
from sylvcert.gate import DEFAULT_MARGIN, choose_shift
from sylvcert.instances import (regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.numerics import frob
from sylvcert.oracle import build_operator, oracle_solve
from sylvcert.roots import (homogeneous_equivalence, homogeneous_nullspaces,
                            solve_unipotent_quadratic)
from sylvcert.singular import decide_sylvester, diagnose, prepare

from conftest import (PROPERTY, candidate_repeat_gaps, reference_unipotent_quadratic,
                      relative_gap, shared_cluster_pair)


@st.composite
def pairs(draw, families=("jordan", "semisimple", "regular")):
    """(a, b, c) with n, m <= 8, of one of ``families``: a shared Jordan
    block of size 1-4, one shared semisimple eigenvalue, or disjoint
    spectra."""
    family = draw(st.sampled_from(families))
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
    # the gate reports the tolerance the decision's cluster was marked at
    p = prepare(*pair)
    k_a, k_b = p.cluster
    scale = p.norm_a + p.norm_b
    assert scale == frob(p.a) + frob(p.b)
    assert p.gate.intersection_tolerance == gate.CLUSTER_TOLERANCE_FACTOR * scale
    assert p.gate.spectra_intersect == (k_a > 0) == (k_b > 0)


@PROPERTY
@given(pairs())
def test_prepared_factors_are_cluster_first(pair):
    # the rule marks exactly the leading k_a and k_b diagonal entries, and
    # the reordered factors still factor the shifted pair
    p = prepare(*pair)
    k_a, k_b = p.cluster
    (ta, _), (tb, _) = p.schur_a, p.schur_b
    select_a, select_b, _ = gate.shared_eigenvalues(ta.diagonal(), tb.diagonal(),
                                                    p.norm_a + p.norm_b)
    assert np.array_equal(select_a, np.arange(p.n) < k_a)
    assert np.array_equal(select_b, np.arange(p.m) < k_b)
    for (t, q), x in ((p.schur_a, p.a), (p.schur_b, p.b)):
        assert np.array_equal(t, np.triu(t))
        assert frob(q.conj().T @ q - np.eye(len(q))) <= 1e-13 * len(q)
        assert frob(q @ t @ q.conj().T - x) <= 1e-13 * len(q) * frob(x)


@PROPERTY
@given(pairs())
def test_kernel_needs_the_gate_and_matches_the_oracle(pair):
    a, b, c = pair
    p = prepare(a, b, c)
    x_basis, y_basis = homogeneous_nullspaces(p)
    # the operator is square, so its kernel and cokernel have one dimension
    assert len(x_basis) == len(y_basis)
    if x_basis or y_basis:
        assert p.gate.spectra_intersect
        assert homogeneous_equivalence(p)[0] == bool(x_basis)
    # a x = x b is the oracle's equation at c = 0, and b y = y a the one on (b, a)
    for basis, (left, right) in ((x_basis, (p.a, p.b)), (y_basis, (p.b, p.a))):
        reference = oracle_solve(left, right, np.zeros((left.shape[0], right.shape[0])))
        if reference.near_cutoff:
            continue
        assert len(basis) == reference.nullity
        if basis:
            # the oracle's null space: its operator's trailing right singular vectors
            _, _, vh = np.linalg.svd(build_operator(left, right))
            angles = scipy.linalg.subspace_angles(vectors(basis),
                                                  vh[-reference.nullity:].conj().T)
            assert angles.max() <= 1e-6


@PROPERTY
@given(pairs(families=("jordan", "semisimple")))
def test_shared_pair_kernel_and_cokernel_have_one_dimension(pair):
    # the operator is square, and both bases come from one SVD of its
    # shared block: the right and the left singular vectors past the rank
    p = prepare(*pair)
    assert len(p.kernel) == len(p.cokernel) >= 1


@PROPERTY
@given(pairs())
def test_shared_block_rank_is_judged_at_the_pair_cutoff(pair):
    # ||I (x) a11 - b11^T (x) I||_2 <= ||a||_2 + ||b||_2 <= ||a||_F + ||b||_F,
    # so the data's scale bounds the pair's own shared block and a widened
    # one, and each SVD's rank and near_cutoff read the pair's one cutoff
    p = prepare(*pair)
    k_a, _ = p.cluster
    scale = p.norm_a + p.norm_b
    assert p.widened.cluster == (p.n, p.m)
    svds = [svd for svd in (p.shared_svd, p.widened.shared_svd) if svd is not None]
    assert len(svds) == (2 if k_a else 1)
    for svd in svds:
        values = svd.s.tolist()
        assert values[0] <= scale
        assert svd.rank == sum(value > p.cutoff for value in values)
        assert svd.near_cutoff == any(p.cutoff / 10 < value <= 10 * p.cutoff
                                      for value in values)


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


# -- one decision per right-hand side --------------------------------------------

def test_only_the_out_of_range_rhs_widens(monkeypatch):
    # with a cluster tolerance below the Jordan splitting, an out-of-range
    # rhs blows up a "regular" block and widens to the whole spectra; the
    # in-range and zero ones keep the narrow cluster
    monkeypatch.setattr(gate, "CLUSTER_TOLERANCE_FACTOR", 1e-15)
    rng = np.random.default_rng(5)
    a, b = shared_jordan_pair(rng, 4, 3)
    p = prepare(a, b, rhs_in_range(rng, a, b))
    narrow = p.cluster
    assert narrow != (4, 3)
    for rhs, sizes, consistent in ((rhs_in_range(rng, p.a, p.b), narrow, True),
                                   (rhs_outside_range(rng, p.a, p.b), (4, 3), False),
                                   (np.zeros((4, 3)), narrow, True)):
        report = decide_sylvester(p, rhs)
        assert report.cluster_sizes == sizes
        assert (report.lstsq_residual <= report.threshold) == consistent


def test_decision_rejects_a_misshapen_rhs():
    p = prepare(np.eye(2), np.eye(3), np.zeros((2, 3)))
    for rhs in (np.zeros((3, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(DimensionError):
            decide_sylvester(p, rhs)


# -- the root search against its one-at-a-time reference ----------------------

@st.composite
def bridge_data(draw):
    """(a, b, c) with a shared Jordan block or a shared semisimple
    eigenvalue, n, m <= 8, and c in or out of the range."""
    family = draw(st.sampled_from((shared_jordan_pair, shared_semisimple_pair)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    in_range = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = family(rng, n, m)
    c = rhs_in_range(rng, a, b) if in_range else rhs_outside_range(rng, a, b)
    return a, b, c


def bridge_problems():
    """Prepared problems of :func:`bridge_data`."""
    return bridge_data().map(lambda data: prepare(*data))


@PROPERTY
@given(bridge_problems())
def test_stacked_root_search_matches_the_one_at_a_time_reference(p):
    roots, y_solutions, q_values, notes = reference_unipotent_quadratic(p)
    quad = solve_unipotent_quadratic(p)
    assert quad.notes == notes
    assert len(quad.y_solutions) == len(y_solutions)
    assert len(quad.q_values) == len(q_values)
    for root, expected in zip(quad.base_roots, roots, strict=True):
        assert relative_gap(root, expected) <= 1e-12
    for y, expected in zip(quad.y_solutions, y_solutions):
        assert relative_gap(y, expected) <= 1e-10
    for q, expected in zip(quad.q_values, q_values):
        assert relative_gap(q, expected) <= 1e-10


@PROPERTY
@given(bridge_problems())
def test_the_search_skips_only_candidates_that_repeat(p):
    # every branch's principal Y is branch 0's, and a consistent branch's
    # (a, b) Y is its principal Y (tests/test_roots.py::TestRepeatedCandidates)
    principal_gaps, variant_gaps = candidate_repeat_gaps(p)
    assert max(principal_gaps) <= 1e-10
    assert all(gap <= 1e-10 for gap in variant_gaps)


# -- invariance of the root bridge under unitary similarity ---------------------

def random_unitary(rng, size):
    """A Haar-distributed unitary: the Q of a complex Gaussian, with the phases
    of R's diagonal moved into it."""
    q, r = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def bridge_outcome(a, b, c) -> tuple:
    """Both nullities, the equivalence triple, the q count and the
    y_solutions count of one bridge operation."""
    p = prepare(a, b, c)
    x_basis, y_basis = homogeneous_nullspaces(p)
    triple = homogeneous_equivalence(p)
    quad = solve_unipotent_quadratic(p)
    return len(x_basis), len(y_basis), triple, len(quad.q_values), len(quad.y_solutions)


@PROPERTY
@given(bridge_data(), st.integers(0, 2 ** 32 - 1))
def test_bridge_outcome_invariant_under_unitary_similarity(data, seed):
    # (W a W^*, V b V^*, W c V^*) has the solutions W x V^*: every kernel,
    # root and unipotent solution maps over, so no count may change
    a, b, c = data
    rng = np.random.default_rng(seed)
    w, v = random_unitary(rng, a.shape[0]), random_unitary(rng, b.shape[0])
    transformed = (w @ a @ w.conj().T, v @ b @ v.conj().T, w @ c @ v.conj().T)
    assert bridge_outcome(*transformed) == bridge_outcome(a, b, c)


# -- the certificate of a solvable verdict -----------------------------------------

@PROPERTY
@given(bridge_data())
def test_every_solvable_verdict_passes_its_certificate(data):
    verdict = diagnose(*data)
    if verdict.status.value == "solvable":
        assert verdict.checks["solution_certificate"]["status"] == "pass"
        assert verdict.certificate_residual <= verdict.certificate_threshold


# -- invariance of the verdict --------------------------------------------------
# Each transformation maps the solutions of a x - x b = c one to one onto those
# of the transformed equation, so it cannot change whether a solution exists.

def status(a, b, c) -> str:
    return diagnose(a, b, c).status.value


@PROPERTY
@given(bridge_data(), st.integers(0, 2 ** 32 - 1))
def test_verdict_invariant_under_unitary_similarity(data, seed):
    # (W a W^*, V b V^*, W c V^*) has the solutions W x V^*
    a, b, c = data
    rng = np.random.default_rng(seed)
    w, v = random_unitary(rng, a.shape[0]), random_unitary(rng, b.shape[0])
    assert status(w @ a @ w.conj().T, v @ b @ v.conj().T, w @ c @ v.conj().T) \
        == status(a, b, c)


@PROPERTY
@given(bridge_data())
def test_verdict_invariant_under_transposition(data):
    # a x - x b = c exactly when b^T x^T - x^T a^T = -c^T
    a, b, c = data
    assert status(b.T, a.T, -c.T) == status(a, b, c)


@PROPERTY
@given(bridge_data(), st.floats(-5.0, 5.0), st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
def test_verdict_invariant_under_a_common_shift(data, real, imag):
    # (a + mu I) x - x (b + mu I) = a x - x b, for a real or a complex mu
    a, b, c = data
    mu = complex(real, imag)
    shifted = (a + mu * np.eye(a.shape[0]), b + mu * np.eye(b.shape[0]), c)
    assert status(*shifted) == status(a, b, c)


@PROPERTY
@given(bridge_data(), st.integers(-150, 150))
def test_verdict_invariant_under_scaling_the_whole_problem(data, exponent):
    # (t a) x - x (t b) = t c has the solutions of a x - x b = c
    a, b, c = data
    t = 10.0 ** exponent
    assert status(t * a, t * b, t * c) == status(a, b, c)


@PROPERTY
@given(bridge_data(), st.integers(-100, 100))
def test_verdict_invariant_under_scaling_c(data, exponent):
    # a x - x b = t c has the solutions t x; past 1e+-200 see
    # test_singular.test_extreme_scales_never_give_the_opposite_answer
    a, b, c = data
    assert status(a, b, 10.0 ** exponent * c) == status(a, b, c)
