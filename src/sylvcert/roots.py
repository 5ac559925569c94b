"""Square-root machinery on the block algebra.

A nonzero intertwiner (a x = x b) embeds into a block upper-triangular square
root of the diagonal embedding of (a^2, b^2) that is similar to the embedding
of (a, -b); conversely every such nonprimary root exposes an intertwiner in
its similarity matrix.  The same mechanics solve the quadratic block equation
Y B Y = T for B, T the companion-coupled embeddings built from the problem
data; unipotent solutions [[I, q], [0, I]] certify solvability of the
original equation through q b - a q = r.

Every Sylvester solve and square root runs on the problem's own Schur
factors, and each factorization is taken once per problem.  The singular
couplings a^2 s - s b^2 = P_12 of the four branches share their left-hand
side and are decided by one call of the main decision's kernel,
:func:`~sylvcert.singular.decide_sylvester`, on the squared factors and the
stack of the four P_12.  The x-side intertwiners are read off the problem
(``SylvesterProblem.kernel``, taken once), the y-side ones are
:func:`~sylvcert.singular.intertwiner_basis` on the swapped factors.

Every operand of the root search (base, target, branch roots and their
inverses, the products P and every candidate) is block upper triangular, and
for such operands the block algebra's typed product is the ordinary product.
The search therefore runs on dense arrays split after row and column
``n = p.n``, and returns them: stacked ``(k, n+m, n+m)`` arrays, all branches
or all candidates in one product.  Each stacked product is checked to be
finite with zero lower-left blocks, and base and target to be finite.  The
branch inverses are closed-form, L D^-1 L^-1 for a branch root L D L^-1, from
one inverse of each principal root.  The equivalence's operands are block
triangular on one side or block diagonal, and it too runs on dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GateError, NumericError, PreconditionError
from .blockalg import _inverse_block, block_upper, commutes_with_diag_pair
from .numerics import as_complex_matrix, frob, schur_sqrt, schur_sylvester, solve_left
from .regular import compute_offset
from .singular import (DEFAULT_TOL, SylvesterProblem, Verdict, VerdictStatus,
                       check_entry, decide_sylvester, intertwiner_basis,
                       skipped_on_refusal, unipotent_identity_residual)

UNIPOTENT_TOL = 1e-7
# (k1, k2) of the branch ((-1)^k1 sqrt(a), (-1)^k2 i sqrt(b)), in branch order
BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class RootCandidate:
    """A candidate square root of the (a^2, b^2) diagonal embedding."""

    root: np.ndarray  # dense (n+m)-square, split after row and column n
    is_square_root: bool
    is_primary: bool
    similarity: np.ndarray  # U with U^-1 (a, -b)-embedding U = root
    residuals: dict = field(default_factory=dict)


@dataclass
class QuadraticSolveResult:
    """Solutions of the quadratic block equation Y base Y = target; every
    matrix is dense (n+m)-square, split after row and column n."""

    base: np.ndarray
    target: np.ndarray
    offset: np.ndarray  # r = a^-1 s b + a s b^-1, the upper-right blocks' difference
    base_roots: np.ndarray  # (4, n+m, n+m), in BRANCHES order
    y_solutions: np.ndarray  # (k, n+m, n+m)
    q_values: list
    notes: list = field(default_factory=list)


def homogeneous_nullspaces(p: SylvesterProblem):
    """Orthonormal bases for the solution spaces of a x = x b (n x m side,
    the problem's own ``kernel``) and b y = y a (m x n side), ordered
    deterministically, as fresh lists of read-only arrays."""
    return list(p.kernel), list(intertwiner_basis(p.b, p.a, p.schur_b, p.schur_a))


def _check_intertwiner(a, b, x, side: str, tol: float) -> None:
    if side == "upper":
        residual = frob(a @ x - x @ b)
    else:
        residual = frob(b @ x - x @ a)
    scale = (frob(a) + frob(b)) * frob(x) + 1e-300
    if residual > tol * scale:
        raise PreconditionError(
            f"{side}-side intertwining residual {residual:.3g} exceeds {tol:.1g} * {scale:.3g}")


def similarity_root_from_intertwiner(p: SylvesterProblem, x, side: str = "upper",
                                     tol: float = DEFAULT_TOL) -> RootCandidate:
    """Embed a verified intertwiner into a square root of the (a^2, b^2)
    embedding, together with the similarity that conjugates the (a, -b)
    embedding into it.

    For the upper side the root is [[a, x], [0, -b]] and the similarity is
    [[I, t], [0, I]] where t solves a t + t b = x; the lower side mirrors it.
    A nonzero intertwiner yields a nonprimary root.
    """
    a, b = p.a, p.b
    x = as_complex_matrix(x, "x")
    if side not in ("upper", "lower"):
        raise PreconditionError(f"side must be 'upper' or 'lower', got {side!r}")
    expected = (p.n, p.m) if side == "upper" else (p.m, p.n)
    if x.shape != expected:
        raise PreconditionError(f"{side}-side intertwiner must be {expected[0]}x{expected[1]}")
    _check_intertwiner(a, b, x, side, tol)

    # every operand is block triangular on the side of x, or block diagonal,
    # so the ordinary product and inverse are the typed ones; the lower side
    # is the transpose of an upper one
    eye_n, eye_m = np.eye(p.n), np.eye(p.m)
    if side == "upper":
        coupled = schur_sylvester(p.schur_a, p.schur_b, x, +1)
        root, similarity = block_upper(a, x, -b), block_upper(eye_n, coupled, eye_m)
    else:
        coupled = -schur_sylvester(p.schur_b, p.schur_a, x, +1)
        root, similarity = block_upper(a.T, x.T, -b.T).T, block_upper(eye_n, coupled.T, eye_m).T
    _finite(similarity, "similarity")
    d_minus = block_upper(a, 0, -b)
    d_square = block_upper(a @ a, 0, b @ b)

    square_residual = frob(root @ root - d_square)
    similarity_residual = frob(solve_left(similarity, d_minus @ similarity) - root)
    scale = max(frob(d_square), 1e-300)
    is_root = square_residual <= tol * scale
    is_primary = frob(x) <= tol * max(frob(root), 1e-300)
    return RootCandidate(
        root=root,
        is_square_root=is_root,
        is_primary=is_primary,
        similarity=similarity,
        residuals={"square": square_residual, "similarity": similarity_residual},
    )


def homogeneous_equivalence(p: SylvesterProblem, tol: float = DEFAULT_TOL):
    """Evaluate the three equivalent statements for the homogeneous equation:

    (a) a nonzero intertwiner exists,
    (b) a nonprimary square root of the (a^2, b^2) embedding similar to the
        (a, -b) embedding can be constructed from it,
    (c) a non-block-diagonal member of the triangular commutant commutes with
        the (a, b) embedding.

    Requires spectra in the open right half-plane that intersect by the
    gate's rule, ``p.gate.spectra_intersect``.
    """
    if min(p.schur_a[0].diagonal().real.min(), p.schur_b[0].diagonal().real.min()) <= 0:
        raise GateError("spectra must lie in the open right half-plane")
    if not p.gate.spectra_intersect:
        raise PreconditionError("spectra do not intersect; the equation is regular")

    if not p.kernel:
        return False, False, False

    x = p.kernel[0]
    candidate = similarity_root_from_intertwiner(p, x, "upper", tol)
    b_holds = (candidate.is_square_root and not candidate.is_primary
               and candidate.residuals["similarity"] <= tol * max(frob(candidate.root), 1.0))

    commutant = block_upper(np.eye(p.n), x, np.eye(p.m))
    c_holds = commutes_with_diag_pair(commutant, p.a, p.b, tol)
    return True, b_holds, c_holds


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} contains NaN or Inf entries")
    return x


def _checked(stack: np.ndarray, n: int) -> np.ndarray:
    """A stack of products, after checking the premise under which the
    ordinary product is the typed one: finite, block upper triangular."""
    _finite(stack, "root bridge product")
    if np.any(stack[..., n:, :n]):
        raise PreconditionError("root bridge operand is not block upper triangular")
    return stack


def _base_and_target(p: SylvesterProblem):
    """The problem's companion solution s, its offset r, and the dense base
    [[a, -s], [0, -b]] and target [[a, -(s + r)], [0, -b]] of the quadratic
    equation, each checked finite."""
    companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
    offset = compute_offset(p.a, p.b, companion)
    return (companion, offset, _finite(block_upper(p.a, -companion, -p.b), "base"),
            _finite(block_upper(p.a, -(companion + offset), -p.b), "target"))


def _branch_roots(p: SylvesterProblem, companion, base, tol: float) -> tuple:
    """The four branch roots of ``base`` and their inverses, as two
    (4, n+m, n+m) stacks in :data:`BRANCHES` order; each root is verified to
    square back to it.

    A branch root is L D L^-1 for the coupling L = [[I, -e], [0, I]] and the
    diagonal D = (s1 sqrt(a), s2 sqrt(b)) with s1 = +-1, s2 = +-i, so its
    inverse is L D^-1 L^-1 with D^-1 = (conj(s1) sqrt(a)^-1, conj(s2) sqrt(b)^-1):
    the sign reciprocals are exact, and each principal root is inverted
    once for all branches.
    """
    n, m = p.n, p.m
    e1 = schur_sylvester(p.schur_a, p.schur_b, -companion, +1)
    signs = np.array([[(-1) ** k1, (-1) ** k2 * 1j] for k1, k2 in BRANCHES])
    sqrt_a, sqrt_b = schur_sqrt(p.schur_a), schur_sqrt(p.schur_b)
    inv_a = _inverse_block(sqrt_a, "upper-left")
    inv_b = _inverse_block(sqrt_b, "lower-right")
    inner = np.zeros((2, len(BRANCHES), n + m, n + m), dtype=np.complex128)
    inner[0, :, :n, :n] = signs[:, 0, None, None] * sqrt_a
    inner[0, :, n:, n:] = signs[:, 1, None, None] * sqrt_b
    inner[1, :, :n, :n] = signs[:, 0, None, None].conj() * inv_a
    inner[1, :, n:, n:] = signs[:, 1, None, None].conj() * inv_b
    coupling = block_upper(np.eye(n), -e1, np.eye(m))
    coupling_inverse = block_upper(np.eye(n), e1, np.eye(m))
    roots, inverses = _checked(coupling @ inner @ coupling_inverse, n)
    residuals = np.linalg.norm(_checked(roots @ roots, n) - base, axis=(1, 2))
    bound = tol * max(frob(base), 1.0)
    for (k1, k2), residual in zip(BRANCHES, residuals):
        if residual > bound:
            raise PreconditionError(
                f"branch ({k1},{k2}) failed to square to the base matrix "
                f"(residual {residual:.3g})")
    return roots, inverses


def block_roots(p: SylvesterProblem, tol: float = DEFAULT_TOL):
    """The four sign-branch square roots of the base matrix
    [[a, -s], [0, -b]] for the problem's companion solution s, each verified
    to square back to it, as a dense (4, n+m, n+m) stack.

    Every branch is the coupling conjugation of the diagonal
    ((-1)^k1 sqrt(a), (-1)^k2 i sqrt(b)), enumerated in (k1, k2) order.
    """
    companion, _, base, _ = _base_and_target(p)
    roots, _ = _branch_roots(p, companion, base, tol)
    return roots


def solve_unipotent_quadratic(p: SylvesterProblem,
                              tol: float = DEFAULT_TOL) -> QuadraticSolveResult:
    """Solve Y base Y = target over the enumerated root family and extract
    the unipotent solutions.

    For each branch root R of the base matrix, P = R target R has diagonal
    blocks a^2 and b^2 with spectra in the sector, so its principal root is
    [[a, z], [0, b]] with a z + z b = P_12.  Candidates Z for the root of P
    are that one, its negative, and the four diagonal-sign variants
    [[d1, d1 s - s d2], [0, d2]] with d1 in {a, -a}, d2 in {b, -b},
    available when the singular coupling equation a^2 s - s b^2 = P_12 is
    consistent.  Every candidate gives Y = R^-1 Z R^-1; the ones that solve
    the equation are kept in candidate order unless they repeat one kept
    before.  Absence of a unipotent solution here means none exists in the
    enumerated family; the (u, v) system remains the authoritative verdict.
    """
    a, b, n, m = p.a, p.b, p.n, p.m
    companion, offset, base, target = _base_and_target(p)
    roots, inverses = _branch_roots(p, companion, base, tol)
    products = _checked(roots @ target @ roots, n)

    # t^2 is the Schur factor of a^2 in the basis of t; one decision takes
    # the coupling equations of all four branches
    (ta, qa), (tb, qb) = p.schur_a, p.schur_b
    couplings = decide_sylvester(a @ a, b @ b, (ta @ ta, qa), (tb @ tb, qb),
                                 products[:, :n, n:], tol)
    notes: list = []
    candidates: list = []
    owners: list = []  # the branch of each candidate
    for index, (p12, coupling) in enumerate(zip(products[:, :n, n:], couplings)):
        principal = block_upper(a, schur_sylvester(p.schur_a, p.schur_b, p12, +1), b)
        candidates += [principal, -principal]
        if coupling.lstsq_residual <= coupling.threshold:
            s = coupling.u
            candidates += [block_upper(d1, d1 @ s - s @ d2, d2) for d1 in (a, -a) for d2 in (b, -b)]
        else:
            notes.append(f"branch {index}: coupling equation inconsistent "
                         f"(residual {coupling.lstsq_residual:.3g})")
        owners += [index] * (len(candidates) - len(owners))

    owner_inverses = inverses[owners]
    y = _checked(owner_inverses @ _checked(np.stack(candidates), n) @ owner_inverses, n)
    residuals = np.linalg.norm(_checked(y @ base @ y, n) - target, axis=(1, 2))
    y_norms = np.linalg.norm(y, axis=(1, 2))
    scales = _finite(frob(base) * (1.0 + y_norms) ** 2 + frob(target), "candidate scale")

    kept: list = []
    for i in np.flatnonzero(residuals <= tol * scales):
        if kept and np.any(np.linalg.norm(y[kept] - y[i], axis=(1, 2))
                           <= 1e-8 * (1.0 + y_norms[i])):
            continue
        kept.append(i)
    # the lower-left blocks are zero (checked), so unipotent means identity diagonals
    unipotent = ((np.linalg.norm(y[kept, :n, :n] - np.eye(n), axis=(1, 2))
                  <= UNIPOTENT_TOL * np.sqrt(n))
                 & (np.linalg.norm(y[kept, n:, n:] - np.eye(m), axis=(1, 2))
                    <= UNIPOTENT_TOL * np.sqrt(m)))

    return QuadraticSolveResult(base=base, target=target, offset=offset, base_roots=roots,
                                y_solutions=y[kept],
                                q_values=[y[i, :n, n:].copy()
                                          for i, u in zip(kept, unipotent) if u],
                                notes=notes)


def unipotent_bridge_check(verdict: Verdict, tol: float = DEFAULT_TOL) -> dict:
    """The ``unipotent_bridge`` entry of ``verdict.checks``: it passes when
    the root bridge finds a unipotent solution exactly for a solvable
    verdict.  A found one reports the q closest to holding, with its residual
    and threshold from
    :func:`~sylvcert.singular.unipotent_identity_residual`."""
    if verdict.status is VerdictStatus.ILL_CONDITIONED:
        return skipped_on_refusal(verdict.ill_conditioned_gate)
    p = verdict.problem
    quad = solve_unipotent_quadratic(p, tol=tol)
    solvable = verdict.status is VerdictStatus.SOLVABLE
    found = len(quad.q_values) > 0
    entry = check_entry("pass" if found == solvable else "fail")
    if found:
        entry["residual"], entry["threshold"] = min(
            (unipotent_identity_residual(q, p, quad.offset, tol) for q in quad.q_values),
            key=lambda pair: pair[0] / pair[1])
    elif not solvable:
        entry["note"] = ("no unipotent solution in the enumerated root family; "
                         "this bounds the search, the system verdict is authoritative")
    return entry


def verify_unipotent_identity(q, p: SylvesterProblem, tol: float = DEFAULT_TOL) -> bool:
    """Check that [[I, q], [0, I]] conjugates the base matrix into the target,
    in both its block form and the reduced form q b - a q = r; the two
    residuals must agree."""
    q = as_complex_matrix(q, "q")
    if q.shape != (p.n, p.m):
        raise DimensionError(f"q must be {p.n}x{p.m}, got {q.shape}")
    _, offset, base, target = _base_and_target(p)
    y = block_upper(np.eye(p.n), q, np.eye(p.m))
    block_residual = frob(y @ base @ y - target)
    reduced_residual, threshold = unipotent_identity_residual(q, p, offset, tol)
    if abs(block_residual - reduced_residual) > 1e-9 * threshold / tol + 1e-12:
        raise PreconditionError(
            "block and reduced residuals disagree; inconsistent evaluation")
    return reduced_residual <= threshold
