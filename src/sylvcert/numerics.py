"""Dense complex-matrix kernels used by every other module.

Matrices are plain ``numpy.ndarray`` values with dtype complex128.  Input is
checked for finiteness where it enters (:func:`as_complex_matrix`,
:func:`complex_schur`); the kernels on Schur factors take the factors as
:func:`complex_schur` made them.  No argument is mutated.

Each primitive is at most one BLAS or LAPACK call, made directly:
:func:`frob` is one ``dot``, :func:`lstsq_solve` one ``gesdd``, whose
factors the result keeps, its rank judged at the cutoff the caller passes,
so that each right-hand side costs two products, :func:`complex_schur` one
``gees`` (its workspace size is asked once per order), :func:`reorder_schur`
one ``trsen``, or none when the selected eigenvalues already lead, and
:func:`orthonormal_columns` the ``geqrf`` and ``ungqr`` pair of a thin QR.
At the sizes the pipeline meets most, numpy's wrappers around these calls
would cost about as much as the arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (BranchCutError, DimensionError, InversionError, NumericError,
                     ParameterError)

# Relative singular-value cutoff: sigma_i <= max(rows, cols) * 2**-40 * scale
# is treated as zero when deciding ranks and consistency.
RANK_CUTOFF_FACTOR = 2.0 ** -40

_FLOAT64 = np.dtype(np.float64)


def rank_cutoff(shape, scale: float) -> float:
    """Singular values at or below this are zero: the project-wide rank rule
    ``RANK_CUTOFF_FACTOR * max(shape) * scale``, for a ``scale`` that bounds
    the operator's norm, as ||a||_F + ||b||_F bounds a Sylvester operator's."""
    return RANK_CUTOFF_FACTOR * max(shape) * float(scale)


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array, rejecting non-finite entries.

    Scalars become 1x1, one-dimensional sequences become column vectors.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise NumericError(f"{name} contains NaN or Inf entries")
    return arr.copy()


def as_sylvester_data(a, b, c) -> tuple:
    """(a, b, c) through :func:`as_complex_matrix`, a and b square, c n x m."""
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    c = as_complex_matrix(c, "c")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}")
    return a, b, c


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def frob(m: np.ndarray) -> float:
    """Frobenius norm as ``np.linalg.norm`` takes it, by one BLAS dot over the
    float64 view (re, im interleaved for a complex array): inf on overflow,
    with numpy's ``overflow encountered in dot`` warning, NaN propagates,
    and an empty array gives 0.0.  The sum runs in another order than
    numpy's, so the last digits may differ."""
    v = np.asarray(m).ravel()
    # float64 is dotted as it is, anything else through a complex128 view
    if v.dtype is not _FLOAT64:
        v = v.astype(np.complex128, copy=False).view(np.float64)
    return math.sqrt(v.dot(v))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (fixed project-wide)."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v).reshape((rows, cols), order="F")


def _no_sort(_) -> None:
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    # gees's workspace query answers by the order alone, so it is asked once
    # per order, on a zero matrix
    return int(lapack.zgees(_no_sort, np.zeros((n, n), dtype=np.complex128),
                            lwork=-1)[-2][0].real)


def complex_schur(m) -> tuple:
    """Complex Schur factors (t, q) of a finite square matrix: m = q t q^*, t
    upper triangular with the eigenvalues on its diagonal, q unitary.  One
    LAPACK gees with the workspace scipy.linalg.schur would query, so the
    factors are scipy's; a complex128 ``m`` is checked for finiteness but
    not copied."""
    m = require_square(np.asarray(m, dtype=np.complex128))
    if not np.isfinite(m).all():
        raise NumericError("matrix contains NaN or Inf entries")
    t, _, _, q, _, info = lapack.zgees(_no_sort, m, lwork=_gees_lwork(m.shape[0]))
    if info != 0:
        raise NumericError(f"Schur iteration failed (gees info {info})")
    return t, q


def reorder_schur(t, q, select) -> tuple:
    """Reorder complex Schur factors so the selected eigenvalues lead the
    diagonal; returns new factors (t, q) of the same matrix (LAPACK trsen),
    or ``(t, q)`` themselves when the selection already leads, the empty one
    included: trsen would swap nothing there."""
    selected = np.asarray(select, dtype=bool).tolist()
    if selected == sorted(selected, reverse=True):
        return t, q
    t, q, *_, info = lapack.ztrsen(np.asarray(select, dtype=np.int32), t, q, job="N")
    if info != 0:
        raise NumericError(f"Schur reordering failed (trsen info {info})")
    return t, q


def triangular_sylvester(ta, tb, c, sign: int) -> np.ndarray:
    """Solution x of ta x + sign * x tb = c for upper-triangular ta, tb
    (Bartels-Stewart back substitution, LAPACK trsyl).

    Raises :class:`InversionError` when ta and -sign * tb share an
    eigenvalue to working precision, so the solution is not unique.
    """
    c = np.asarray(c, dtype=np.complex128)
    if not c.size:
        return c.copy()
    x, scale, info = lapack.ztrsyl(ta, tb, c, isgn=sign)
    if info < 0:
        raise ParameterError(f"trsyl rejected argument {-info}")
    if info > 0:
        raise InversionError("Sylvester operator is singular to working precision")
    return x / scale


def schur_sylvester(schur_a, schur_b, c, sign: int) -> np.ndarray:
    """Solution x of a x + sign * x b = c given the complex Schur factors
    (t, q) of a and b: Bartels-Stewart in Schur coordinates, O(n^3 + m^3)."""
    (ta, qa), (tb, qb) = schur_a, schur_b
    y = triangular_sylvester(ta, tb, qa.conj().T @ c @ qb, sign)
    return qa @ y @ qb.conj().T


def schur_solve(schur, m, side: str = "left") -> np.ndarray:
    """a^-1 m (``side="left"``) or m a^-1 (``side="right"``) for the matrix a
    with complex Schur factors (t, q): q t^-1 q^* by one triangular solve
    (LAPACK trtrs), so a is neither inverted nor factored again.  Raises
    :class:`InversionError` on a zero diagonal of t or a non-finite result."""
    t, q = schur
    if side == "left":
        y, info = lapack.ztrtrs(t, q.conj().T @ m)
        x = q @ y
    else:
        # m q t^-1 is the transpose of t^-T (m q)^T
        y, info = lapack.ztrtrs(t, (m @ q).T, trans=1)
        x = y.T @ q.conj().T
    if info > 0 or not np.isfinite(x).all():
        raise InversionError("matrix to invert is singular to working precision")
    return x


def mat_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade); exp(0) = I exactly."""
    m = require_square(as_complex_matrix(m))
    if not np.any(m):
        return np.eye(m.shape[0], dtype=np.complex128)
    result = scipy.linalg.expm(m)
    if not np.all(np.isfinite(result)):
        raise NumericError("matrix exponential overflowed")
    return np.asarray(result, dtype=np.complex128)


def schur_sqrt(schur) -> np.ndarray:
    """Principal square root q sqrtm(t) q^* of the matrix with complex Schur
    factors (t, q), by the Schur method of Bjorck and Hammarling.

    Raises :class:`BranchCutError` when an eigenvalue (a diagonal entry of
    t) lies on the closed negative real axis (the caller must shift first).
    """
    t, q = schur
    diagonal = t.diagonal()
    on_cut = diagonal.real <= 0
    if on_cut.any():  # the scale is needed only then
        on_cut &= np.abs(diagonal.imag) <= 1e-13 * max(frob(t), 1.0)
        if on_cut.any():
            raise BranchCutError(
                f"eigenvalue {diagonal[on_cut.argmax()]} lies on the closed negative real "
                "axis; shift the matrix before taking the principal square root"
            )
    s = q @ np.asarray(scipy.linalg.sqrtm(t), dtype=np.complex128) @ q.conj().T
    if not np.all(np.isfinite(s)):
        raise NumericError("matrix square root produced non-finite values")
    return s


def orthonormal_columns(x) -> np.ndarray:
    """The Q factor of the thin Householder QR of a tall complex128 matrix x
    (no fewer rows than columns): orthonormal columns, the leading j of
    which span the leading j columns of x when those are independent.
    LAPACK geqrf and ungqr, the routines ``numpy.linalg.qr`` calls, made
    directly."""
    qr, tau, _, info = lapack.zgeqrf(x)
    if info == 0:
        q, _, info = lapack.zungqr(qr[:, :x.shape[1]], tau)
    if info != 0:
        raise NumericError(f"QR factorization failed (info {info})")
    return q


def kron_vec_operator(a, b, sign: int) -> np.ndarray:
    """Matrix of x |-> a x + sign * (x b) under column-stacking vectorization.

    For a of shape (n, n) and b of shape (m, m) returns the (nm, nm) matrix K
    with K @ vec(x) = vec(a x + sign * x b) for every n x m matrix x.
    """
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    if sign not in (1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    n, m = a.shape[0], b.shape[0]
    # K[j, p, l, q] multiplies x[q, l] in entry [p, j] of a x + sign * x b,
    # so a fills the blocks j = l and b[l, j] the entries p = q
    K = np.zeros((m, n, m, n), dtype=np.complex128)
    K[np.arange(m), :, np.arange(m), :] = a
    K[:, np.arange(n), :, np.arange(n)] += sign * b.T
    return K.reshape(n * m, n * m)


@dataclass(frozen=True)
class LstsqResult:
    """The thin SVD K = U diag(s) Vh of an operator, with its rank judged at
    the cutoff the caller passed: each right-hand side costs two products
    (:meth:`minimum_norm`), no SVD."""

    rank: int
    near_cutoff: bool  # a singular value landed within 10x of the cutoff
    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @property
    def null_space(self) -> np.ndarray:
        """Columns: the right singular vectors past the rank."""
        return self.Vh[self.rank:].conj().T

    def minimum_norm(self, rhs) -> np.ndarray:
        """The minimum-norm least-squares solution of K x = rhs, for one
        right-hand side of length rows."""
        # V_r ((U_r^* rhs) / s_r), over the singular triplets past the rank cutoff
        r = self.rank
        return self.Vh[:r].conj().T @ ((self.U[:, :r].conj().T @ rhs) / self.s[:r])


def lstsq_solve(K, cutoff: float) -> LstsqResult:
    """The SVD of K, by one gesdd, for minimum-norm least squares: the rank
    is the number of singular values above ``cutoff``, which the caller
    takes by :func:`rank_cutoff` at the scale of the data K was built from,
    and ``near_cutoff`` flags a singular value within a factor 10 of it.
    ``null_space`` spans the null space of K when K has no fewer rows than
    columns, and the columns of ``U`` past the rank span the complement of
    its range when K is square.
    """
    K = as_complex_matrix(K, "K")
    if K.size:
        U, s, Vh, info = lapack.zgesdd(K, full_matrices=0)
        if info != 0:
            raise NumericError(f"SVD failed to converge (gesdd info {info})")
    else:
        # gesdd rejects an empty operator (and says so on stderr)
        U, s, Vh = (np.zeros((K.shape[0], 0), dtype=np.complex128), np.zeros(0),
                    np.zeros((0, K.shape[1]), dtype=np.complex128))
    # the few singular values of a shared block are judged faster as floats
    values = s.tolist()
    return LstsqResult(rank=sum(value > cutoff for value in values),
                       near_cutoff=any(cutoff / 10.0 < value <= cutoff * 10.0
                                       for value in values),
                       U=U, s=s, Vh=Vh)
