"""Brute-force Kronecker reference for the equation a x - x b = c.

The equation is vectorized into one explicit linear system and decided by
minimum-norm least squares.  This module builds its operator from scratch
and applies the SVD's factors itself (sharing only the rank rule and the SVD
with the numerics kernel), so agreement with the structured solvers is
substantive rather than an artifact of shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import (as_complex_matrix, frob, lstsq_solve, rank_cutoff, require_square,
                       unvec, vec)

DEFAULT_ORACLE_TOL = 1e-8

# largest nm the pipeline hands to the dense oracle: its operator takes
# 16 (nm)^2 bytes, the oracle about 9.5 times that at its peak (50.6 MB at
# n = m = 24 by tracemalloc; 2.4 GiB at the cap), and its SVD O((nm)^3) time
ORACLE_MAX_UNKNOWNS = 4096


@dataclass(frozen=True)
class OracleResult:
    """Least-squares verdict for the vectorized equation.

    ``solution`` is populated only when the system is consistent at the
    stated threshold; ``nullity`` is the nullspace dimension under the shared
    rank cutoff, judged at the scale of the (a, b) data; ``near_cutoff``
    warns that a singular value fell within a decade of the cutoff, i.e. the
    rank decision itself is fragile.
    """

    solution: np.ndarray | None
    residual: float
    nullity: int
    consistent: bool
    threshold: float
    rank: int
    near_cutoff: bool = False


def _pair(a, b):
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    return a, b


def _kron(x, y) -> np.ndarray:
    """Kronecker product of two matrices from its definition, entry (i, j)
    of x times y as block (i, j): the multiply np.kron performs, without its
    axis bookkeeping."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def build_operator(a, b) -> np.ndarray:
    """Explicit matrix of x |-> a x - x b under column-stacking vectorization,
    for square matrices a and b (:func:`oracle_solve` hands it the pair it
    has validated)."""
    a, b = np.asarray(a), np.asarray(b)
    return _kron(np.eye(b.shape[0]), a) - _kron(b.T, np.eye(a.shape[0]))


def oracle_solve(a, b, c, tol: float = DEFAULT_ORACLE_TOL) -> OracleResult:
    """Minimum-norm least-squares answer and consistency decision for
    a x - x b = c, the solution reshaped to n x m; the rank is judged at the
    scale ||a|| + ||b|| of the data."""
    a, b = _pair(a, b)
    n, m = a.shape[0], b.shape[0]
    K = build_operator(a, b)
    c = as_complex_matrix(c, "c")
    if c.shape != (n, m):
        raise DimensionError(f"c must be {n}x{m}")
    rhs = vec(c)

    # ||K||_2 <= ||a||_2 + ||b||_2, so the data's scale bounds K's own
    res = lstsq_solve(K, rank_cutoff(K.shape, frob(a) + frob(b)))
    x = res.minimum_norm(rhs)
    residual = frob(K @ x - rhs)
    threshold = tol * (frob(K) * frob(x) + frob(rhs))
    consistent = residual <= threshold
    return OracleResult(
        solution=unvec(x, n, m) if consistent else None,
        residual=residual,
        nullity=K.shape[1] - res.rank,
        consistent=consistent,
        threshold=threshold,
        rank=res.rank,
        near_cutoff=res.near_cutoff,
    )
