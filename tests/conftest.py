import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from sylvcert.errors import PreconditionError
from sylvcert.instances import jordan_block, mild_similarity, random_sector_eigenvalues
from sylvcert.numerics import (complex_schur, frob, lstsq_solve, rank_cutoff, schur_sqrt,
                               schur_sylvester)
from sylvcert.oracle import OracleResult
from sylvcert.regular import compute_offset, reduced_rhs
from sylvcert.roots import (BRANCHES, UNIPOTENT_TOL, _base_and_target, _branch_roots,
                            solve_unipotent_quadratic)
from sylvcert.singular import DEFAULT_TOL, decide_sylvester

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_multiset_close(left, right, tol=1e-8):
    """Match two complex multisets greedily by nearest neighbour."""
    left = list(np.asarray(left, dtype=complex))
    right = list(np.asarray(right, dtype=complex))
    assert len(left) == len(right)
    for value in left:
        gaps = [abs(value - other) for other in right]
        best = int(np.argmin(gaps))
        assert gaps[best] <= tol, f"no partner for {value} within {tol} (closest {gaps[best]})"
        right.pop(best)


def companion_solution(a, b, c):
    """The unique solution of a s + s b = c on a raw pair, by the decision's
    own Bartels-Stewart step."""
    return schur_sylvester(complex_schur(a), complex_schur(b), c, +1)


def shared_cluster_pair(rng, k, second, n, m):
    """(a, b) sharing a size-k Jordan block and, unless ``second`` is None,
    a simple eigenvalue ``second`` away from it; the rest is random."""
    lam = complex(rng.uniform(0.8, 2.0))

    def side(size):
        blocks = [jordan_block(lam, k)]
        if second is not None:
            blocks.append(np.array([[lam + second]]))
        rest = size - sum(block.shape[0] for block in blocks)
        blocks.append(np.diag(random_sector_eigenvalues(rng, rest)))
        v = mild_similarity(rng, size)
        return v @ scipy.linalg.block_diag(*blocks) @ np.linalg.inv(v)

    return side(n), side(m)


def pair_equation_rows(a, b, companion, offset, c):
    """Operator rows and right-hand sides of the four (v, u) identities, in
    the stacked unknown [vec(v); vec(u)] with column-stacking vectorization.

    Returns a dict key -> (rows, rhs) reusable for solving any two of them
    jointly.
    """
    n, m = a.shape[0], b.shape[0]
    id_n, id_m = np.eye(n), np.eye(m)
    id_nm = np.eye(n * m)
    a2, a3 = a @ a, a @ a @ a
    b2, b3 = b @ b, b @ b @ b
    vec = lambda x: np.asarray(x).reshape(-1, order="F")
    pair_sum = np.linalg.inv(a) @ c @ np.linalg.inv(b)
    return {
        "av_ub": (np.hstack([np.kron(id_m, a), np.kron(b.T, id_n)]), vec(companion)),
        "au_vb": (np.hstack([np.kron(b.T, id_n), np.kron(id_m, a)]), vec(companion + offset)),
        "u_plus_v": (np.hstack([id_nm, id_nm]), vec(pair_sum)),
        "cubic": (np.hstack([np.kron(id_m, a3) + np.kron(b.T, a2),
                             np.kron(b3.T, id_n) + np.kron(b2.T, a)]),
                  np.zeros(n * m, dtype=complex)),
    }


def pair_equation_residuals(a, b, companion, offset, c, u, v):
    """Residuals of the four identities for a concrete (u, v)."""
    pair_sum = np.linalg.inv(a) @ c @ np.linalg.inv(b)
    return {
        "av_ub": np.linalg.norm(a @ v + u @ b - companion),
        "au_vb": np.linalg.norm(a @ u + v @ b - (companion + offset)),
        "u_plus_v": np.linalg.norm(u + v - pair_sum),
        "cubic": np.linalg.norm(a @ a @ a @ v + a @ a @ v @ b + u @ b @ b @ b + a @ u @ b @ b),
    }


# Dense references for two equations of the paper that the package never
# forms, with operators built here by np.kron, so they share no operator code
# with the package.

def _left_right(a, b):
    """Matrices of x |-> a x and x |-> x b under column-stacking vectorization."""
    n, m = a.shape[0], b.shape[0]
    return np.kron(np.eye(m), a), np.kron(b.T, np.eye(n))


def gen_square_operator(a, b):
    """Matrix of x |-> a^2 x + a x b + x b^2."""
    left, right = _left_right(a, b)
    return left @ left + left @ right + right @ right


def uv_stacked_operator(a, b):
    """Matrix of the paper's stacked (v, u) system on [vec(v); vec(u)]:
    rows a v + u b, then a^3 v + a^2 v b + u b^3 + a u b^2."""
    n, m = a.shape[0], b.shape[0]
    left, right = _left_right(a, b)
    cubic = np.hstack([np.kron(np.eye(m), a @ a @ a) + np.kron(b.T, a @ a),
                       np.kron((b @ b @ b).T, np.eye(n)) + np.kron((b @ b).T, a)])
    return np.vstack([np.hstack([left, right]), cubic])


def dense_lstsq(K, rhs, scale_reference: float = 0.0) -> tuple:
    """(SVD, z, residual) of the minimum-norm least-squares solve of
    K z = rhs, the rank judged at the larger of K's own norm and
    ``scale_reference``."""
    K = np.asarray(K, dtype=np.complex128)
    res = lstsq_solve(K, rank_cutoff(K.shape, max(np.linalg.norm(K, 2), scale_reference)))
    z = res.minimum_norm(rhs)
    return res, z, frob(K @ z - rhs)


def _dense_decision(K, rhs, a, b, degree, shaped, tol):
    """Least-squares decision of K z = rhs like the oracle's, with the rank
    judged at the largest power up to ``degree`` of ||a|| + ||b|` and the
    solution passed through ``shaped``."""
    data_scale = float(np.linalg.norm(a)) + float(np.linalg.norm(b))
    res, z, residual = dense_lstsq(K, rhs, max(data_scale ** d for d in range(1, degree + 1)))
    threshold = tol * (float(np.linalg.norm(K)) * float(np.linalg.norm(z))
                       + float(np.linalg.norm(rhs)))
    consistent = residual <= threshold
    return OracleResult(solution=shaped(z) if consistent else None,
                        residual=residual, nullity=K.shape[1] - res.rank,
                        consistent=consistent, threshold=threshold, rank=res.rank,
                        near_cutoff=res.near_cutoff)


def gen_square_reference(a, b, rhs, tol=1e-8):
    """Dense decision of a^2 x + a x b + x b^2 = rhs; the solution is n x m."""
    a, b, rhs = (np.asarray(x, dtype=np.complex128) for x in (a, b, rhs))
    return _dense_decision(gen_square_operator(a, b), rhs.reshape(-1, order="F"), a, b, 2,
                           lambda z: z.reshape(rhs.shape, order="F"), tol)


def uv_stacked_reference(a, b, c, tol=1e-8):
    """Dense decision of the stacked (v, u) system for the companion solution
    s of a s + s b = c (by a dense solve); the solution is the (v, u) pair."""
    a, b, c = (np.asarray(x, dtype=np.complex128) for x in (a, b, c))
    left, right = _left_right(a, b)
    companion = np.linalg.solve(left + right, c.reshape(-1, order="F"))
    rhs = np.concatenate([companion, np.zeros(c.size, dtype=np.complex128)])
    return _dense_decision(uv_stacked_operator(a, b), rhs, a, b, 3,
                           lambda z: np.stack([half.reshape(c.shape, order="F")
                                               for half in np.split(z, 2)]), tol)


# The root search one candidate and one product at a time, as the reference
# for the stacked search of the package.

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


def closed_form_gaps(p, tol=DEFAULT_TOL) -> tuple:
    """Relative gaps of the search's assembled blocks from the literal
    products: each branch root from L D L^-1, each inverse the search reads
    (branches 0 and 1) from L D^-1 L^-1, for L = [[I, -e], [0, I]] and the
    branch's diagonal D, and each class's coupling right-hand side from
    (R target R)[:n, n:].  The principal roots and e are the package's, so
    only the assembly is compared."""
    n, m = p.n, p.m
    e1 = schur_sylvester(p.schur_a, p.schur_b, -p.companion, +1)
    sqrt_a, sqrt_b = schur_sqrt(p.schur_a), schur_sqrt(p.schur_b)
    inv_a, inv_b = np.linalg.inv(sqrt_a), np.linalg.inv(sqrt_b)
    left, right = upper(np.eye(n), -e1, np.eye(m)), upper(np.eye(n), e1, np.eye(m))
    zero = np.zeros((n, m))
    signs = [((-1) ** k1, (-1) ** k2 * 1j) for k1, k2 in BRANCHES]
    literal_roots = [left @ upper(s1 * sqrt_a, zero, s2 * sqrt_b) @ right for s1, s2 in signs]
    literal_inverses = [left @ upper(np.conj(s1) * inv_a, zero, np.conj(s2) * inv_b) @ right
                        for s1, s2 in signs[:2]]

    base, target = _base_and_target(p)
    branch_roots, inverses = _branch_roots(p, base, tol)
    corners = []

    def decide_spy(problem, rhs, tol):
        corners.append(rhs)
        return decide_sylvester(problem, rhs, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sylvcert.roots.decide_sylvester", decide_spy)
        solve_unipotent_quadratic(p, tol)
    literal_corners = [(root @ target @ root)[:n, n:] for root in branch_roots[:2]]
    return ([relative_gap(x, y) for x, y in zip(branch_roots, literal_roots, strict=True)],
            [relative_gap(x, y) for x, y in zip(inverses, literal_inverses, strict=True)],
            [relative_gap(x, y) for x, y in zip(corners, literal_corners, strict=True)])


def reference_candidates(p, tol=DEFAULT_TOL):
    """(base, target, branches) of the search of one candidate at a time:
    for each branch root R, in branch order, (R, its coupling decision, its
    candidates), each candidate as (label, Y = R^-1 Z R^-1) in candidate
    order, one product at a time, each root inverted by numpy.  The labels
    are "principal", "-principal" and the diagonal signs (d1, d2) of the
    variants, "(a, b)", "(a, -b)", "(-a, b)" and "(-a, -b)".  The variants
    are [[d1, d1 s - s d2], [0, d2]] for the s with a s + s b = X, where X
    solves the coupling a X - X b = P_12 on the problem's pair."""
    a, b, n = p.a, p.b, p.n
    companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
    offset = compute_offset(p, companion, reduced_rhs(p, companion))
    base = upper(p.a, -companion, -p.b)
    target = upper(p.a, -(companion + offset), -p.b)

    branches = []
    for root in reference_block_roots(p, tol):
        root_inv = np.linalg.inv(root)
        P = root @ target @ root
        p12 = P[:n, n:]

        principal = upper(a, schur_sylvester(p.schur_a, p.schur_b, p12, +1), b)
        candidates = [("principal", principal), ("-principal", -principal)]

        coupling = decide_sylvester(p, p12, tol)
        if coupling.lstsq_residual <= coupling.threshold:
            s = schur_sylvester(p.schur_a, p.schur_b, coupling.u, +1)
            for d1, first in ((a, "a"), (-a, "-a")):
                for d2, second in ((b, "b"), (-b, "-b")):
                    candidates.append((f"({first}, {second})", upper(d1, d1 @ s - s @ d2, d2)))
        branches.append((root, coupling, [(label, root_inv @ z @ root_inv)
                                          for label, z in candidates]))
    return base, target, branches


def reference_unipotent_quadratic(p, tol=DEFAULT_TOL):
    """(base_roots, y_solutions, q_values, notes) of Y base Y = target, one
    candidate and one product at a time, each root inverted by numpy."""
    n = p.n
    base, target, branches = reference_candidates(p, tol)

    notes: list = []
    y_solutions: list = []
    q_values: list = []
    for index, (_, coupling, candidates) in enumerate(branches):
        if not coupling.lstsq_residual <= coupling.threshold:
            notes.append(f"branch {index}: coupling equation inconsistent "
                         f"(residual {coupling.lstsq_residual:.3g})")

        for _, y in candidates:
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

    return [root for root, _, _ in branches], y_solutions, q_values, notes


def candidate_repeat_gaps(p, tol=DEFAULT_TOL):
    """(principal gaps, variant gaps) of the search of one candidate at a
    time: the relative gap of each branch's principal Y from branch 0's,
    and of each consistent branch's (a, b) Y from its principal Y.  The
    stacked search multiplies out neither repeat."""
    _, _, branches = reference_candidates(p, tol)
    first = dict(branches[0][2])["principal"]
    principal_gaps, variant_gaps = [], []
    for _, _, candidates in branches:
        y = dict(candidates)
        principal_gaps.append(relative_gap(y["principal"], first))
        if "(a, b)" in y:
            variant_gaps.append(relative_gap(y["(a, b)"], y["principal"]))
    return principal_gaps, variant_gaps


def relative_gap(x, y) -> float:
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))
