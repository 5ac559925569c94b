import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from sylvcert.instances import jordan_block, mild_similarity, random_sector_eigenvalues
from sylvcert.numerics import complex_schur, schur_sylvester

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
