"""Square-root machinery on the block algebra.

A nonzero intertwiner (a x = x b) embeds into a block upper-triangular square
root of the diagonal embedding of (a^2, b^2) that is similar to the embedding
of (a, -b); conversely every such nonprimary root exposes an intertwiner in
its similarity matrix.  The same mechanics solve the quadratic block equation
Y B Y = T for B, T the companion-coupled embeddings built from the problem
data; unipotent solutions [[I, q], [0, I]] certify solvability of the
original equation through q b - a q = r.

The four branch roots come in two sign classes: the branches (1,1) and
(1,0) are the exact negatives of (0,0) and (0,1).  R and -R give the same
P = R target R, the same coupling and the same Y = R^-1 Z R^-1 for every
candidate Z, so the search runs on branches 0 and 1 alone and loses no
solution.  A candidate is a root [[d1, z], [0, d2]] of P with d1 in
{a, -a} and d2 in {b, -b}, whose corner solves d1 z + z d2 = P_12.  The
(a, b) one is P's principal root: a w + w b = P_12 has one solution, as the
spectra of a and -b are disjoint.  The (a, -b) ones are [[a, X], [0, -b]]
for the solutions X of the coupling a X - X b = P_12, the problem's own
equation with right-hand side P_12.  The candidates come in pairs Z, -Z,
and -Z gives -Y exactly, with the residual and norm of Y, so one candidate
of each pair is multiplied out.  The principal Y repeats across the
classes: it is R^-1 (R T R)^{1/2} R^-1 = (T B)^{1/2} B^-1 for every branch
root R of B (R T R = R (T B) R^-1, and a similarity commutes with the
principal root).  The search multiplies out one principal root per problem
and one (a, -b) variant per consistent class.

Every Sylvester solve and square root runs on the problem's own Schur
factors, and each factorization is taken once per problem.  Each sign
class decides its coupling with :func:`~sylvcert.singular.decide_sylvester`
on the problem itself, so both classes apply the problem pair's one
shared-block SVD, as do its ``kernel`` and ``cokernel``, the intertwiners of
both sides; the root search marks no cluster of its own.

Every operand of the root search (base, target, branch roots and their
inverses, and every candidate) is block upper triangular, and for such
operands the block algebra's typed product is the ordinary product.  The
search therefore runs on dense arrays split after row and column ``n = p.n``,
and returns them: stacked ``(k, n+m, n+m)`` arrays.  A branch root L D L^-1
and its inverse L D^-1 L^-1 are written down block by block, from four
n x m products and one inverse of each principal root, with no (n+m)-square
product; of P = R target R only the corner P_12 is formed, the one block
the search reads.  The branch roots and inverses, their squares, the
corners, and the candidates' Y and Y base Y are each checked to be finite,
every stacked (n+m)-square product also to have zero lower-left blocks, and
base and target to be finite.  The equivalence's operands are block
triangular on one side or block diagonal, and it too runs on dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GateError, NumericError, PreconditionError
from .blockalg import _inverse_block, block_upper, commutes_with_diag_pair
from .numerics import as_complex_matrix, frob, identity, schur_sqrt, schur_sylvester
from .singular import (DEFAULT_TOL, SylvesterProblem, Verdict, VerdictStatus,
                       check_entry, decide_sylvester, skipped_on_refusal,
                       unipotent_identity_residual)

UNIPOTENT_TOL = 1e-7
# (k1, k2) of the branch ((-1)^k1 sqrt(a), (-1)^k2 i sqrt(b)), in branch order
BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))
# the sign class of each branch: branch 3 is -branch 0 and branch 2 is -branch 1
SIGN_CLASS = (0, 1, 1, 0)
# the diagonal signs ((-1)^k1, (-1)^k2 i) of each branch, in branch order
_BRANCH_SIGNS = np.array([[(-1) ** k1, (-1) ** k2 * 1j] for k1, k2 in BRANCHES])
_BRANCH_SIGNS.flags.writeable = False
# the diagonal signs of the four branch roots, then of the inverses of branches
# 0 and 1: the reciprocal of +-1 or +-i is its conjugate
_STACK_SIGNS = np.concatenate([_BRANCH_SIGNS, _BRANCH_SIGNS[:2].conj()])
_STACK_SIGNS.flags.writeable = False


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
    matrix is dense (n+m)-square, split after row and column n.  The
    upper-right blocks of base and target differ by the problem's offset."""

    base: np.ndarray
    target: np.ndarray
    base_roots: np.ndarray  # (4, n+m, n+m), in BRANCHES order
    y_solutions: np.ndarray  # (k, n+m, n+m)
    q_values: list
    notes: list = field(default_factory=list)


def homogeneous_nullspaces(p: SylvesterProblem):
    """Orthonormal bases for the solution spaces of a x = x b (n x m side)
    and b y = y a (m x n side), the pair's ``kernel`` and ``cokernel``,
    ordered deterministically, as fresh lists of read-only arrays."""
    return list(p.kernel), list(p.cokernel)


def _check_intertwiner(p: SylvesterProblem, x, side: str, tol: float) -> None:
    a, b = p.a, p.b
    residual = frob(a @ x - x @ b) if side == "upper" else frob(b @ x - x @ a)
    scale = (p.norm_a + p.norm_b) * frob(x) + 1e-300
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
    _check_intertwiner(p, x, side, tol)

    # every operand is block triangular on the side of x, or block diagonal,
    # so the ordinary product and inverse are the typed ones; the lower side
    # is the transpose of an upper one
    eye_n, eye_m = identity(p.n), identity(p.m)
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
    # similarity = I + e with e^2 = 0, so its inverse is I - e = 2I - similarity
    inverse = 2 * identity(p.n + p.m) - similarity
    similarity_residual = frob(inverse @ (d_minus @ similarity) - root)
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

    commutant = block_upper(identity(p.n), x, identity(p.m))
    c_holds = commutes_with_diag_pair(commutant, p.a, p.b, tol)
    return True, b_holds, c_holds


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{what} contains NaN or Inf entries")
    return x


def _checked(stack: np.ndarray, n: int) -> np.ndarray:
    """A stack of products, after checking the premise under which the
    ordinary product is the typed one: finite, block upper triangular."""
    _finite(stack, "root bridge product")
    if stack[..., n:, :n].any():
        raise PreconditionError("root bridge operand is not block upper triangular")
    return stack


def _base_and_target(p: SylvesterProblem):
    """The dense base [[a, -s], [0, -b]] and target [[a, -(s + r)], [0, -b]]
    of the quadratic equation for the problem's companion solution s and its
    offset r, each checked finite."""
    s = p.companion
    return (_finite(block_upper(p.a, -s, -p.b), "base"),
            _finite(block_upper(p.a, -(s + p.offset), -p.b), "target"))


def _branch_roots(p: SylvesterProblem, base, tol: float) -> tuple:
    """The four branch roots of ``base``, a (4, n+m, n+m) stack in
    :data:`BRANCHES` order, each verified to square back to it, and the
    inverses of branches 0 and 1, the two the search reads, a (2, n+m, n+m)
    stack.

    A branch root is L D L^-1 for the coupling L = [[I, -e], [0, I]] and the
    diagonal D = (s1 sqrt(a), s2 sqrt(b)) with s1 = +-1, s2 = +-i, that is
    [[s1 sqrt(a), s1 sqrt(a) e - s2 e sqrt(b)], [0, s2 sqrt(b)]], and its
    inverse L D^-1 L^-1 is the same form in conj(s1) sqrt(a)^-1 and
    conj(s2) sqrt(b)^-1.  So both are assembled from their blocks, with the
    four n x m products sqrt(a) e, e sqrt(b), sqrt(a)^-1 e and e sqrt(b)^-1,
    and each principal root is inverted once for all branches.  Multiplying
    by +-1 or +-i only moves and negates the parts of a complex number, so
    the signs factor out exactly: branches 3 and 2 are the exact negatives
    of branches 0 and 1, and their squares are the same.
    """
    n = p.n
    e1 = schur_sylvester(p.schur_a, p.schur_b, -p.companion, +1)
    sqrt_a, sqrt_b = schur_sqrt(p.schur_a), schur_sqrt(p.schur_b)
    inv_a = _inverse_block(sqrt_a, "upper-left")
    inv_b = _inverse_block(sqrt_b, "lower-right")
    s1, s2 = _STACK_SIGNS[:, 0, None, None], _STACK_SIGNS[:, 1, None, None]
    stack = np.zeros((6, n + p.m, n + p.m), dtype=np.complex128)
    for rows, d1, d2 in ((slice(4), sqrt_a, sqrt_b), (slice(4, 6), inv_a, inv_b)):
        stack[rows, :n, :n] = s1[rows] * d1
        stack[rows, :n, n:] = s1[rows] * (d1 @ e1) - s2[rows] * (e1 @ d2)
        stack[rows, n:, n:] = s2[rows] * d2
    _finite(stack, "root bridge product")
    roots, inverses = stack[:4], stack[4:]
    classes = roots[:2]
    residuals = np.linalg.norm(_checked(classes @ classes, n) - base, axis=(1, 2)).tolist()
    bound = tol * max(frob(base), 1.0)
    for (k1, k2), k in zip(BRANCHES, SIGN_CLASS):
        if residuals[k] > bound:
            raise PreconditionError(
                f"branch ({k1},{k2}) failed to square to the base matrix "
                f"(residual {residuals[k]:.3g})")
    return roots, inverses


def block_roots(p: SylvesterProblem, tol: float = DEFAULT_TOL):
    """The four sign-branch square roots of the base matrix
    [[a, -s], [0, -b]] for the problem's companion solution s, each verified
    to square back to it, as a dense (4, n+m, n+m) stack.

    Every branch is the coupling conjugation of the diagonal
    ((-1)^k1 sqrt(a), (-1)^k2 i sqrt(b)), enumerated in (k1, k2) order.
    """
    base, _ = _base_and_target(p)
    roots, _ = _branch_roots(p, base, tol)
    return roots


def solve_unipotent_quadratic(p: SylvesterProblem,
                              tol: float = DEFAULT_TOL) -> QuadraticSolveResult:
    """Solve Y base Y = target over the enumerated root family and extract
    the unipotent solutions.

    The family is searched once per sign class, on branches 0 and 1: the
    roots of branches 3 and 2 are their exact negatives, and R and -R give
    the same P, the same coupling and the same Y for every Z below, so the
    other two branches would only repeat their candidates.  Every branch
    still gets its coupling note, read from its class.

    For each branch root R of the base matrix, P = R target R has diagonal
    blocks a^2 and b^2 with spectra in the sector.  Candidates Z for the
    root of P are [[d1, z], [0, d2]] with d1 in {a, -a}, d2 in {b, -b} and
    d1 z + z d2 = P_12, so of P only P_12 = R[:n] target R[:, n:] is
    formed:

    * (a, b) is P's principal root [[a, w], [0, b]], with w the one
      solution of a w + w b = P_12 (the spectra of a and -b are disjoint),
      and (-a, -b) its negative;
    * (a, -b) is [[a, X], [0, -b]] for the coupling a X - X b = P_12, the
      problem's own equation, decided by
      :func:`~sylvcert.singular.decide_sylvester` on the problem; when it
      is consistent, X is its minimum-norm solution, and (-a, b) is
      [[-a, -X], [0, b]].  s -> a s + s b maps the solutions of
      a^2 s - s b^2 = P_12 one to one onto these X.

    Every candidate gives Y = R^-1 Z R^-1; the ones that solve the equation
    are kept in candidate order unless they repeat one kept before.  The
    diagonal blocks of an (a, -b) variant's Y are sqrt(a)^-1 a sqrt(a)^-1
    and (s2 sqrt(b))^-1 (-b) (s2 sqrt(b))^-1 for s2 = +-i, both I, whatever
    X, so which unipotent solutions exist does not depend on the X chosen;
    only the reported q does.  The candidates come in pairs Z, -Z, and -Z
    gives -Y exactly, and (-Y) base (-Y) = Y base Y, so only the first of
    each pair is multiplied out.  The principal Y is the same for both
    classes: R T R = R (T B) R^-1 for B = base = R^2, and a similarity
    commutes with the principal root, so R^-1 (R T R)^{1/2} R^-1 =
    (T B)^{1/2} B^-1, whatever R.

    So class 0's principal root is multiplied out once, and for each
    consistent class its (a, -b) variant; the kept solutions are the ones
    the full enumeration keeps, in its order.  Absence of a unipotent
    solution here means none exists in the enumerated family; the (u, v)
    system remains the authoritative verdict.
    """
    a, b, n, m = p.a, p.b, p.n, p.m
    base, target = _base_and_target(p)
    roots, inverses = _branch_roots(p, base, tol)
    classes = roots[:2]  # branches 0 and 1, one per sign class
    # P_12 = R[:n] target R[:, n:], the one block of P = R target R read
    corners = _finite(classes[:, :n] @ target @ classes[:, :, n:], "root bridge product")

    # the (a, -b) coupling a X - X b = P_12 is the problem's own equation:
    # each class decides its own against the problem's one shared-block SVD
    couplings = [decide_sylvester(p, p12, tol) for p12 in corners]
    notes = [f"branch {index}: coupling equation inconsistent "
             f"(residual {coupling.lstsq_residual:.3g})"
             for index, coupling in enumerate(couplings[k] for k in SIGN_CLASS)
             if not coupling.lstsq_residual <= coupling.threshold]
    # class 0's principal root, then each consistent class's (a, -b); the
    # negatives are the principal's and the (-a, b) variants
    firsts = [block_upper(a, schur_sylvester(p.schur_a, p.schur_b, corners[0], +1), b)]
    owners = [0]  # the class of each
    for k, coupling in enumerate(couplings):
        if coupling.lstsq_residual <= coupling.threshold:
            firsts.append(block_upper(a, coupling.u, -b))
            owners.append(k)

    owner_inverses = inverses[owners]
    y = _checked(owner_inverses @ _checked(np.stack(firsts), n) @ owner_inverses, n)
    residuals = np.linalg.norm(_checked(y @ base @ y, n) - target, axis=(1, 2)).tolist()
    y_norms = np.linalg.norm(y, axis=(1, 2)).tolist()
    base_norm, target_norm = frob(base), frob(target)
    scales = [base_norm * ((1.0 + norm) * (1.0 + norm)) + target_norm for norm in y_norms]
    _finite(np.array(scales), "candidate scale")

    # row 2i of signed is the Y of firsts[i], row 2i + 1 its negative
    signed = np.stack((y, -y), axis=1).reshape(-1, n + m, n + m)
    solving = [i for i in range(len(signed)) if residuals[i // 2] <= tol * scales[i // 2]]
    solutions = signed[_drop_repeats(signed, np.repeat(y_norms, 2).tolist(), solving)]
    # the lower-left blocks are zero (checked), so unipotent means identity diagonals
    unipotent = ((np.linalg.norm(solutions[:, :n, :n] - identity(n), axis=(1, 2))
                  <= UNIPOTENT_TOL * np.sqrt(n))
                 & (np.linalg.norm(solutions[:, n:, n:] - identity(m), axis=(1, 2))
                    <= UNIPOTENT_TOL * np.sqrt(m)))

    return QuadraticSolveResult(base=base, target=target, base_roots=roots,
                                y_solutions=solutions,
                                q_values=[solution[:n, n:].copy() for solution, u
                                          in zip(solutions, unipotent) if u],
                                notes=notes)


def _drop_repeats(y: np.ndarray, norms: list, indices: list) -> list:
    """``indices`` into the stack ``y``, in order, less each whose matrix
    lies within 1e-8 (1 + ||y_i||) of one kept before it; ``norms`` are the
    Frobenius norms of ``y`` as floats.  A kept y_j is compared with y_i only
    when their norms differ by at most twice that bound: a repeat's differ by
    at most the bound (triangle inequality), so none is missed."""
    kept: list = []
    for i in indices:
        norm = norms[i]
        bound = 1e-8 * (1.0 + norm)
        if not any(abs(norms[j] - norm) <= 2.0 * bound and frob(y[j] - y[i]) <= bound
                   for j in kept):
            kept.append(i)
    return kept


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
            (unipotent_identity_residual(q, p, tol) for q in quad.q_values),
            key=lambda pair: pair[0] / pair[1])
    elif not solvable:
        entry["note"] = ("no unipotent solution in the enumerated root family; "
                         "this bounds the search, the system verdict is authoritative")
    return entry

