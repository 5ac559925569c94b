"""Typed 2x2 block matrices over (square n, rectangular n x m, rectangular
m x n, square m) blocks.

The product is the module-typed one: the upper-left and lower-right entries
of x @ y are plain products of the diagonal blocks, with no contribution from
the off-diagonal blocks (the off-diagonal spaces multiply to zero).  For
block upper-triangular operands this agrees with the ordinary flattened
product; for dense operands it does not, and the closed-form inverse below is
the inverse with respect to the typed product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InversionError, PreconditionError
from .numerics import as_complex_matrix, frob, rank_cutoff


@dataclass(frozen=True)
class BlockMatrix:
    """Element of the typed block algebra; blocks are (n,n), (n,m), (m,n), (m,m)."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        a11 = as_complex_matrix(self.a11, "a11")
        a12 = as_complex_matrix(self.a12, "a12")
        a21 = as_complex_matrix(self.a21, "a21")
        a22 = as_complex_matrix(self.a22, "a22")
        n = a11.shape[0]
        m = a22.shape[0]
        if a11.shape != (n, n) or a22.shape != (m, m):
            raise DimensionError("diagonal blocks must be square")
        if a12.shape != (n, m):
            raise DimensionError(f"upper-right block must be {n}x{m}, got {a12.shape}")
        if a21.shape != (m, n):
            raise DimensionError(f"lower-left block must be {m}x{n}, got {a21.shape}")
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a21", a21)
        object.__setattr__(self, "a22", a22)

    @property
    def n(self) -> int:
        return self.a11.shape[0]

    @property
    def m(self) -> int:
        return self.a22.shape[0]

    @classmethod
    def of(cls, a11, a12, a21, a22, *, trivial_k: bool = False) -> "BlockMatrix":
        """Build a block matrix; ``trivial_k=True`` forces the lower-left
        block to zero (the degenerate coupling space)."""
        x = cls(a11, a12, a21, a22)
        if trivial_k and np.any(x.a21):
            x = cls(x.a11, x.a12, np.zeros_like(x.a21), x.a22)
        return x

    @classmethod
    def upper(cls, a11, a12, a22) -> "BlockMatrix":
        a11 = as_complex_matrix(a11, "a11")
        a22 = as_complex_matrix(a22, "a22")
        k = np.zeros((a22.shape[0], a11.shape[0]), dtype=np.complex128)
        return cls(a11, a12, k, a22)

    @classmethod
    def lower(cls, a11, a21, a22) -> "BlockMatrix":
        a11 = as_complex_matrix(a11, "a11")
        a22 = as_complex_matrix(a22, "a22")
        mblk = np.zeros((a11.shape[0], a22.shape[0]), dtype=np.complex128)
        return cls(a11, mblk, a21, a22)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        return block_mul(self, other)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix(self.a11 - other.a11, self.a12 - other.a12,
                           self.a21 - other.a21, self.a22 - other.a22)

    def __neg__(self) -> "BlockMatrix":
        return BlockMatrix(-self.a11, -self.a12, -self.a21, -self.a22)

    def norm(self) -> float:
        return float(np.sqrt(frob(self.a11) ** 2 + frob(self.a12) ** 2
                             + frob(self.a21) ** 2 + frob(self.a22) ** 2))

    def flatten(self) -> np.ndarray:
        """Assemble the ordinary (n+m) x (n+m) matrix with the same blocks."""
        top = np.hstack([self.a11, self.a12])
        bottom = np.hstack([self.a21, self.a22])
        return np.vstack([top, bottom])


def block_identity(n: int, m: int) -> BlockMatrix:
    return BlockMatrix(np.eye(n), np.zeros((n, m)), np.zeros((m, n)), np.eye(m))


def diag_embed(a, b) -> BlockMatrix:
    """Block-diagonal embedding of the pair (a, b)."""
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    return BlockMatrix(a, np.zeros((a.shape[0], b.shape[0])),
                       np.zeros((b.shape[0], a.shape[0])), b)


def block_mul(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """Typed product: diagonal blocks multiply among themselves, off-diagonal
    blocks pick up one factor from each side."""
    if x.n != y.n or x.m != y.m:
        raise DimensionError(f"incompatible block dimensions ({x.n},{x.m}) vs ({y.n},{y.m})")
    return BlockMatrix(
        x.a11 @ y.a11,
        x.a11 @ y.a12 + x.a12 @ y.a22,
        x.a21 @ y.a11 + x.a22 @ y.a21,
        x.a22 @ y.a22,
    )


def _inverse_block(blk: np.ndarray, name: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(blk)
    except np.linalg.LinAlgError as exc:
        raise InversionError(f"{name} block is singular") from exc
    if not np.all(np.isfinite(inv)) or frob(blk @ inv - np.eye(blk.shape[0])) > 1e-6 * blk.shape[0]:
        raise InversionError(f"{name} block is singular to working precision")
    return inv


def block_inverse(x: BlockMatrix) -> BlockMatrix:
    """Inverse under the typed product, in closed form.

    Valid whenever both diagonal blocks are invertible; verified by the
    identity x @ x^-1 = x^-1 @ x = 1.
    """
    a_inv = _inverse_block(x.a11, "upper-left")
    b_inv = _inverse_block(x.a22, "lower-right")
    return BlockMatrix(a_inv, -a_inv @ x.a12 @ b_inv, -b_inv @ x.a21 @ a_inv, b_inv)


@dataclass(frozen=True)
class CommutantMembership:
    """Flags for membership in the upper-triangular commutant monoid.

    Membership in the monoid needs the first three flags; the invertible
    subgroup needs all four.
    """

    is_upper_triangular: bool
    commutes_with_a: bool
    commutes_with_b: bool
    invertible_diagonal: bool

    @property
    def in_monoid(self) -> bool:
        return self.is_upper_triangular and self.commutes_with_a and self.commutes_with_b

    @property
    def in_group(self) -> bool:
        return self.in_monoid and self.invertible_diagonal


def _numerically_invertible(blk: np.ndarray) -> bool:
    s = np.linalg.svd(blk, compute_uv=False)
    if not s.size or s[0] == 0:
        return False
    return bool(s[-1] > rank_cutoff(blk.shape, s[0]))


def _monoid_flags(x: BlockMatrix, a: np.ndarray, b: np.ndarray, tol: float) -> tuple:
    """(is_upper_triangular, commutes_with_a, commutes_with_b) for x, with
    residuals relative to the block norms."""
    if x.n != a.shape[0] or x.m != b.shape[0]:
        raise DimensionError("block matrix does not match the (a, b) dimensions")
    scale = max(x.norm(), 1e-300)
    comm_a = frob(x.a11 @ a - a @ x.a11) <= tol * (frob(a) * frob(x.a11) + 1e-300) + 1e-300
    comm_b = frob(b @ x.a22 - x.a22 @ b) <= tol * (frob(b) * frob(x.a22) + 1e-300) + 1e-300
    return frob(x.a21) <= tol * scale, bool(comm_a), bool(comm_b)


def classify_triangular_commutant(x: BlockMatrix, a, b, tol: float = 1e-9) -> CommutantMembership:
    """Decide the monoid/group membership flags with residuals relative to
    the block norms."""
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    upper, comm_a, comm_b = _monoid_flags(x, a, b, tol)
    return CommutantMembership(
        is_upper_triangular=upper,
        commutes_with_a=comm_a,
        commutes_with_b=comm_b,
        invertible_diagonal=_numerically_invertible(x.a11) and _numerically_invertible(x.a22),
    )


def commutes_with_diag_pair(x: BlockMatrix, a, b, tol: float = 1e-9) -> bool:
    """True iff x commutes with the block-diagonal embedding of (a, b).

    Requires x to be a member of the triangular commutant monoid; by
    construction this holds exactly when the upper-right block of x
    intertwines a with b.  The embedding is block diagonal, so the typed
    products x D and D x are the ordinary ones of the flattened matrices.
    """
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    if not all(_monoid_flags(x, a, b, tol)):
        raise PreconditionError("x is not a member of the triangular commutant monoid")
    n, m = x.n, x.m
    dpair = np.zeros((n + m, n + m), dtype=np.complex128)
    dpair[:n, :n], dpair[n:, n:] = a, b
    flat = x.flatten()
    scale = max(frob(dpair) * x.norm(), 1e-300)
    return frob(flat @ dpair - dpair @ flat) <= tol * scale
