"""Property tests: the gate, the decision and the homogeneous kernel read one
rule for where the spectra meet, the kernel agrees with the dense oracle, the
shift is the smallest admissible three-digit shift, a stack of right-hand
sides is decided slice by slice as separate decisions would be, the stacked
root search agrees with a search of one candidate at a time, and the root
bridge's outcome is unchanged under a unitary similarity of the problem.

Examples are derandomized, so every run draws the same pairs.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sylvcert import gate
from sylvcert.errors import DimensionError, PreconditionError
from sylvcert.gate import DEFAULT_MARGIN, choose_shift
from sylvcert.instances import (regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.numerics import frob, lstsq_solve, schur_sylvester
from sylvcert.oracle import build_operator, oracle_solve
from sylvcert.regular import compute_offset
from sylvcert.roots import (UNIPOTENT_TOL, homogeneous_equivalence, homogeneous_nullspaces,
                            solve_unipotent_quadratic)
from sylvcert.singular import DEFAULT_TOL, decide_sylvester, prepare, solve_uv_report

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


# -- one decision for a stack of right-hand sides ------------------------------

@st.composite
def rhs_stacks(draw):
    """A prepared pair from :func:`pairs` and a (k, n, m) stack of 1-5
    right-hand sides, each in the range of u -> a u - u b, drawn at random
    (outside the range on a singular pair) or zero."""
    a, b, c = draw(pairs())
    p = prepare(a, b, c)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(("in_range", "random", "zero")),
                          min_size=1, max_size=5))
    slices = []
    for kind in kinds:
        w = rng.normal(size=(p.n, p.m)) + 1j * rng.normal(size=(p.n, p.m))
        slices.append(p.a @ w - w @ p.b if kind == "in_range" else
                      w if kind == "random" else np.zeros((p.n, p.m)))
    return p, np.stack(slices)


def assert_same_report(stacked, single):
    assert relative_gap(stacked.u, single.u) <= 1e-12
    assert abs(stacked.lstsq_residual - single.lstsq_residual) \
        <= 1e-12 * max(single.lstsq_residual, 1e-300)
    assert abs(stacked.threshold - single.threshold) <= 1e-12 * max(single.threshold, 1e-300)
    assert (stacked.rank, stacked.marginal, stacked.near_cutoff, stacked.cluster_sizes,
            stacked.cluster_tolerance) == (single.rank, single.marginal, single.near_cutoff,
                                           single.cluster_sizes, single.cluster_tolerance)


@PROPERTY
@given(rhs_stacks())
def test_stacked_decision_matches_separate_decisions(case):
    p, stack = case
    reports = decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, stack)
    assert isinstance(reports, list) and len(reports) == len(stack)
    for rhs, report in zip(stack, reports, strict=True):
        assert_same_report(report, decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, rhs))


def test_stack_with_one_widening_slice_matches_separate_decisions(monkeypatch):
    # with a cluster tolerance below the Jordan splitting, an out-of-range
    # slice blows up a "regular" block and widens to the whole spectra; the
    # in-range and zero slices beside it keep the narrow cluster
    monkeypatch.setattr(gate, "CLUSTER_TOLERANCE_FACTOR", 1e-15)
    rng = np.random.default_rng(5)
    a, b = shared_jordan_pair(rng, 4, 3)
    p = prepare(a, b, rhs_in_range(rng, a, b))
    stack = np.stack([rhs_in_range(rng, p.a, p.b), rhs_outside_range(rng, p.a, p.b),
                      np.zeros((4, 3))])
    reports = decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, stack)
    assert [report.cluster_sizes for report in reports].count((4, 3)) == 1
    assert reports[1].cluster_sizes == (4, 3)
    for rhs, report in zip(stack, reports, strict=True):
        assert_same_report(report, decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, rhs))


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_block_lstsq_matches_its_column_solves(rows, cols, k, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(rows, cols) + 1))
    K = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    rhs = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    block = lstsq_solve(K, rhs, scale_reference=1.0)
    assert block.solution.shape == (cols, k) and block.residual_norm.shape == (k,)
    for j in range(k):
        column = lstsq_solve(K, rhs[:, j], scale_reference=1.0)
        np.testing.assert_array_equal(block.solution[:, j], column.solution)
        assert block.residual_norm[j] == column.residual_norm
        assert (block.rank, block.cutoff, block.near_cutoff) == \
            (column.rank, column.cutoff, column.near_cutoff)


def test_decision_rejects_a_misshapen_rhs():
    p = prepare(np.eye(2), np.eye(3), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, np.zeros((3, 2)))


# -- the root search one candidate at a time, as the reference -----------------

def upper(x11, x12, x22):
    """[[x11, x12], [0, x22]], assembled here rather than by the package."""
    return np.block([[x11, x12], [np.zeros((x22.shape[0], x11.shape[0])), x22]])


def reference_block_roots(p, tol=DEFAULT_TOL):
    """The four branch roots, one product at a time."""
    a, b = p.a, p.b
    companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
    e1 = schur_sylvester(p.schur_a, p.schur_b, -companion, +1)
    base = upper(a, -companion, -b)

    # scipy's principal root, with no Schur factors shared with the search
    sqrt_a = scipy.linalg.sqrtm(a)
    sqrt_b = scipy.linalg.sqrtm(b)
    left = upper(np.eye(p.n), -e1, np.eye(p.m))
    right = upper(np.eye(p.n), e1, np.eye(p.m))

    roots = []
    for k1 in (0, 1):
        for k2 in (0, 1):
            inner = upper(((-1) ** k1) * sqrt_a, np.zeros((p.n, p.m)),
                          ((-1) ** k2) * 1j * sqrt_b)
            root = left @ inner @ right
            residual = frob(root @ root - base)
            if residual > tol * max(frob(base), 1.0):
                raise PreconditionError(
                    f"branch ({k1},{k2}) failed to square to the base matrix "
                    f"(residual {residual:.3g})")
            roots.append(root)
    return roots


def reference_unipotent_quadratic(p, tol=DEFAULT_TOL):
    """(base_roots, y_solutions, q_values, notes) of Y base Y = target, one
    candidate and one product at a time, each root inverted by numpy."""
    a, b, n = p.a, p.b, p.n
    companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
    offset = compute_offset(p.a, p.b, companion)
    base = upper(p.a, -companion, -p.b)
    target = upper(p.a, -(companion + offset), -p.b)
    roots = reference_block_roots(p, tol)

    notes: list = []
    y_solutions: list = []
    q_values: list = []
    (ta, qa), (tb, qb) = p.schur_a, p.schur_b
    a2, schur_a2 = a @ a, (ta @ ta, qa)
    b2, schur_b2 = b @ b, (tb @ tb, qb)

    for index, root in enumerate(roots):
        root_inv = np.linalg.inv(root)
        P = root @ target @ root
        p12 = P[:n, n:]

        principal = upper(a, schur_sylvester(p.schur_a, p.schur_b, p12, +1), b)
        candidates = [principal, -principal]

        coupling = decide_sylvester(a2, b2, schur_a2, schur_b2, p12, tol)
        if coupling.lstsq_residual <= coupling.threshold:
            s = coupling.u
            for d1 in (a, -a):
                for d2 in (b, -b):
                    candidates.append(upper(d1, d1 @ s - s @ d2, d2))
        else:
            notes.append(f"branch {index}: coupling equation inconsistent "
                         f"(residual {coupling.lstsq_residual:.3g})")

        for z in candidates:
            y = root_inv @ z @ root_inv
            residual = frob(y @ base @ y - target)
            scale = frob(base) * (1.0 + frob(y)) ** 2 + frob(target)
            if residual > tol * scale:
                continue
            if any(frob(y - seen) <= 1e-8 * (1.0 + frob(y)) for seen in y_solutions):
                continue
            y_solutions.append(y)
            if (frob(y[:n, :n] - np.eye(p.n)) <= UNIPOTENT_TOL * np.sqrt(p.n)
                    and frob(y[n:, n:] - np.eye(p.m)) <= UNIPOTENT_TOL * np.sqrt(p.m)
                    and frob(y[n:, :n]) <= UNIPOTENT_TOL * np.sqrt(p.n * p.m) * (1.0 + frob(y))):
                q_values.append(y[:n, n:])

    return roots, y_solutions, q_values, notes


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


def relative_gap(x, y) -> float:
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


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
