"""Dense 2x2 block matrices for the root bridge: the block upper-triangular
builder, the block inverse and the commutant check.

An element of the block algebra over (square n, rectangular n x m,
rectangular m x n, square m) blocks is held as the dense (n+m)-square matrix
with those blocks, split after row and column n.  The algebra's typed product
drops the cross terms of the off-diagonal blocks; for block upper-triangular
operands it is the ordinary matrix product.  Every element the package builds
is block upper triangular (:func:`block_upper`), so every product is a plain
dense one.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InversionError, PreconditionError
from .numerics import as_complex_matrix, frob, identity


def block_upper(x11, x12, x22) -> np.ndarray:
    """The dense block upper-triangular [[x11, x12], [0, x22]] for square
    x11 (n x n) and x22 (m x m); ``x12`` is n x m, or 0 for the block
    diagonal."""
    n, m = x11.shape[0], x22.shape[0]
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:n, :n], out[:n, n:], out[n:, n:] = x11, x12, x22
    return out


def _inverse_block(blk: np.ndarray, name: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(blk)
    except np.linalg.LinAlgError as exc:
        raise InversionError(f"{name} block is singular") from exc
    if not np.isfinite(inv).all() or frob(blk @ inv - identity(blk.shape[0])) > 1e-6 * blk.shape[0]:
        raise InversionError(f"{name} block is singular to working precision")
    return inv


def _operands(x, a, b) -> tuple:
    """x, a and b as complex matrices, x checked to be (n+m)-square for
    n x n a and m x m b."""
    x, a, b = as_complex_matrix(x, "x"), as_complex_matrix(a, "a"), as_complex_matrix(b, "b")
    size = a.shape[0] + b.shape[0]
    if x.shape != (size, size):
        raise DimensionError(f"block matrix must be {size}x{size} for the (a, b) dimensions, "
                             f"got {x.shape}")
    return x, a, b


def _monoid_flags(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> tuple:
    """(is_upper_triangular, commutes_with_a, commutes_with_b) for x, with
    residuals relative to the block norms."""
    n = a.shape[0]
    x11, x22 = x[:n, :n], x[n:, n:]
    scale = max(frob(x), 1e-300)
    comm_a = frob(x11 @ a - a @ x11) <= tol * (frob(a) * frob(x11) + 1e-300) + 1e-300
    comm_b = frob(b @ x22 - x22 @ b) <= tol * (frob(b) * frob(x22) + 1e-300) + 1e-300
    return frob(x[n:, :n]) <= tol * scale, bool(comm_a), bool(comm_b)


def commutes_with_diag_pair(x, a, b, tol: float = 1e-9) -> bool:
    """True iff the dense block matrix x commutes with the block-diagonal
    embedding of (a, b).

    Requires x to be a member of the triangular commutant monoid; by
    construction this holds exactly when the upper-right block of x
    intertwines a with b.
    """
    x, a, b = _operands(x, a, b)
    if not all(_monoid_flags(x, a, b, tol)):
        raise PreconditionError("x is not a member of the triangular commutant monoid")
    dpair = block_upper(a, 0, b)
    scale = max(frob(dpair) * frob(x), 1e-300)
    return frob(x @ dpair - dpair @ x) <= tol * scale
