"""Brute-force Kronecker reference for every linear matrix equation used in
the package.

Each equation is vectorized into one explicit linear system and decided by
minimum-norm least squares.  This module builds its operators from scratch
(sharing only the rank cutoff and the SVD solve with the numerics kernel), so
agreement with the structured solvers is substantive rather than an artifact
of shared code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .numerics import as_complex_matrix, frob, lstsq_solve, require_square, unvec, vec

EQUATIONS = (
    "sylvester",             # a x - x b = c
    "regular_plus",          # a x + x b = c
    "gen_square",            # a^2 x + a x b + x b^2 = rhs
    "uv_stacked",            # {a v + u b = cbar ; a^3 v + a^2 v b + u b^3 + a u b^2 = 0}
    "homogeneous",           # a x = x b
    "adjoint_homogeneous",   # b y = y a
)

DEFAULT_ORACLE_TOL = 1e-8

# largest nm the pipeline hands to the dense oracle: its operator alone takes
# 16 (nm)^2 bytes (256 MiB at the cap) and its SVD O((nm)^3) time
ORACLE_MAX_UNKNOWNS = 4096


@dataclass(frozen=True)
class OracleResult:
    """Least-squares verdict for one vectorized equation.

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


def build_operator(eq: str, a, b) -> np.ndarray:
    """Explicit matrix of the named equation's left-hand side."""
    a, b = _pair(a, b)
    n, m = a.shape[0], b.shape[0]
    id_n, id_m = np.eye(n), np.eye(m)
    if eq == "sylvester":
        K = _kron(id_m, a) - _kron(b.T, id_n)
    elif eq == "regular_plus":
        K = _kron(id_m, a) + _kron(b.T, id_n)
    elif eq == "gen_square":
        A = _kron(id_m, a)
        B = _kron(b.T, id_n)
        K = A @ A + A @ B + B @ B
    elif eq == "homogeneous":
        K = _kron(id_m, a) - _kron(b.T, id_n)
    elif eq == "adjoint_homogeneous":
        K = _kron(id_n, b) - _kron(a.T, id_m)
    elif eq == "uv_stacked":
        a2, a3 = a @ a, a @ a @ a
        b2, b3 = b @ b, b @ b @ b
        row1 = np.hstack([_kron(id_m, a), _kron(b.T, id_n)])
        row2 = np.hstack([_kron(id_m, a3) + _kron(b.T, a @ a),
                          _kron(b3.T, id_n) + _kron(b2.T, a)])
        K = np.vstack([row1, row2])
    else:
        raise ParameterError(f"unknown equation id {eq!r}; choose one of {EQUATIONS}")
    return K


# scale of the operator entries in terms of the (a, b) data, per equation:
# degree of the highest product of a and b appearing in the left-hand side
_EQUATION_DEGREE = {
    "sylvester": 1, "regular_plus": 1, "homogeneous": 1,
    "adjoint_homogeneous": 1, "gen_square": 2, "uv_stacked": 3,
}


def _decide(K: np.ndarray, rhs: np.ndarray, tol: float, scale_reference: float) -> tuple:
    res = lstsq_solve(K, rhs, scale_reference=scale_reference)
    threshold = tol * (frob(K) * float(np.linalg.norm(res.solution)) + float(np.linalg.norm(rhs)))
    consistent = res.residual_norm <= threshold
    nullity = K.shape[1] - res.rank
    return res, threshold, consistent, nullity


def oracle_solve(eq: str, a, b, c=None, tol: float = DEFAULT_ORACLE_TOL) -> OracleResult:
    """Minimum-norm least-squares answer and consistency decision for ``eq``.

    ``c`` is the right-hand side (ignored for the homogeneous equations; for
    ``uv_stacked`` it is the raw right-hand side of the original equation and
    the companion solution is derived internally).  Solutions are reshaped to
    matrix form: n x m for the M-valued equations, m x n for the adjoint one,
    and a (v, u) pair of n x m matrices for the stacked system.
    """
    a, b = _pair(a, b)
    n, m = a.shape[0], b.shape[0]
    K = build_operator(eq, a, b)

    if eq in ("homogeneous", "adjoint_homogeneous"):
        rhs = np.zeros(K.shape[0], dtype=np.complex128)
    elif eq == "uv_stacked":
        c = as_complex_matrix(c, "c")
        if c.shape != (n, m):
            raise DimensionError(f"c must be {n}x{m}")
        plus = _kron(np.eye(m), a) + _kron(b.T, np.eye(n))
        cbar = np.linalg.solve(plus, vec(c))
        rhs = np.concatenate([cbar, np.zeros(n * m, dtype=np.complex128)])
    else:
        c = as_complex_matrix(c, "c")
        if c.shape != (n, m):
            raise DimensionError(f"c must be {n}x{m}")
        rhs = vec(c)

    data_scale = frob(a) + frob(b)
    degree = _EQUATION_DEGREE[eq]
    scale_reference = max(data_scale ** d for d in range(1, degree + 1))
    res, threshold, consistent, nullity = _decide(K, rhs, tol, scale_reference)

    if eq == "uv_stacked":
        v = unvec(res.solution[: n * m], n, m)
        u = unvec(res.solution[n * m:], n, m)
        shaped = np.stack([v, u])
    elif eq == "adjoint_homogeneous":
        shaped = unvec(res.solution, m, n)
    else:
        shaped = unvec(res.solution, n, m)

    return OracleResult(
        solution=shaped if consistent else None,
        residual=res.residual_norm,
        nullity=nullity,
        consistent=consistent,
        threshold=threshold,
        rank=res.rank,
        near_cutoff=res.near_cutoff,
    )
