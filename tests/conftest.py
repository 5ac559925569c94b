import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from sylvcert.instances import jordan_block, mild_similarity, random_sector_eigenvalues
from sylvcert.numerics import complex_schur, lstsq_solve, schur_sylvester
from sylvcert.oracle import OracleResult

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


def _dense_decision(K, rhs, a, b, degree, shaped, tol):
    """Least-squares decision of K z = rhs like the oracle's, with the rank
    judged at the largest power up to ``degree`` of ||a|| + ||b|` and the
    solution passed through ``shaped``."""
    data_scale = float(np.linalg.norm(a)) + float(np.linalg.norm(b))
    res = lstsq_solve(K, rhs, scale_reference=max(data_scale ** d for d in range(1, degree + 1)))
    threshold = tol * (float(np.linalg.norm(K)) * float(np.linalg.norm(res.solution))
                       + float(np.linalg.norm(rhs)))
    consistent = res.residual_norm <= threshold
    return OracleResult(solution=shaped(res.solution) if consistent else None,
                        residual=res.residual_norm, nullity=K.shape[1] - res.rank,
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
