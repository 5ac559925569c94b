"""Solvability verdicts and certified particular solutions for a x - x b = c
when the spectra of a and b intersect.

The paper's decision procedure works with an auxiliary pair (u, v),

    a v + u b = s                                  (mixed sum)
    a^3 v + a^2 v b + u b^3 + a u b^2 = 0          (cubic constraint)

where s is the unique solution of a s + s b = c.  The original equation is
solvable exactly when this system is consistent, and in that case

    x = a^-1 u b^2 + u b = -(a^2 v b^-1 + a v)

are one and the same particular solution.  Any two of the pair identities
decide the system, so the decision substitutes v = a^-1 c b^-1 - u into the
mixed sum and solves the reduced equation

    a u - u b = a s b^-1                           (nm unknowns)

with :func:`decide_sylvester`, the one kernel for singular Sylvester equations
(the root bridge decides its coupling equation with it too).  It works in the
complex Schur coordinates that :func:`prepare` computes once per problem,
reordered so the k_a x k_b block of eigenvalues shared within the cluster
tolerance leads; only that block is decided by minimum-norm least squares with
an explicit, reported threshold, the rest and the companion equation by
Bartels-Stewart, in O(n^3 + m^3 + (k_a k_b)^3) instead of O((nm)^3).  The
stacked 2nm system stays the oracle's ``uv_stacked`` reference.  Completing v
this way makes u + v = a^-1 c b^-1 and the mixed sum hold by construction; the
identity a u + v b = s + offset, the cubic constraint and the two gates of
:func:`particular_solution` are the independent checks, each certified as a
residual against a threshold at its own scale.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InversionError, PreconditionError, WitnessError
from .gate import (DEFAULT_ALPHA, GateReport, choose_shift, sector_contains,
                   shared_eigenvalues)
from .blockalg import block_upper
from .numerics import (as_complex_matrix, complex_schur, frob, kron_vec_operator,
                       lstsq_solve, rank_cutoff, reorder_schur, require_square,
                       schur_sylvester, solve_left, solve_right, triangular_sylvester,
                       unvec, vec)
from .oracle import ORACLE_MAX_UNKNOWNS, oracle_solve
from .regular import QUADRATURE_GAP_TOL, companion_solve_quadrature, compute_offset

DEFAULT_TOL = 1e-8

# the witness residuals of the four (u, v) pair identities
PAIR_IDENTITIES = ("av_ub", "au_vb", "u_plus_v", "cubic")


class VerdictStatus(str, enum.Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    ILL_CONDITIONED = "ill_conditioned"


@dataclass(frozen=True)
class SylvesterProblem:
    """A shift-prepared instance: a and b are invertible with spectra inside
    the working sector; the solution set equals that of the original data."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gate: GateReport
    alpha: float
    lambda_shift: float
    schur_a: tuple  # complex Schur factors (t, q) of the shifted a
    schur_b: tuple  # complex Schur factors (t, q) of the shifted b

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @functools.cached_property
    def kernel(self) -> tuple:
        """Read-only basis of the intertwiners {x : a x = x b}, taken once
        per problem by :func:`intertwiner_basis` on the problem's factors.
        (A frozen dataclass may cache it: the property writes the instance
        ``__dict__``, not an attribute.)"""
        return intertwiner_basis(self.a, self.b, self.schur_a, self.schur_b)


@dataclass
class UVWitness:
    """The certified pair (u, v) plus the derived quantities that make the
    verdict auditable."""

    u: np.ndarray
    v: np.ndarray
    companion: np.ndarray          # unique solution of a s + s b = c
    offset: np.ndarray             # a^-1 s b + a s b^-1
    q: np.ndarray                  # v - u
    residuals: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)  # same keys as residuals
    uv_norm: float = 0.0


@dataclass
class UVSystemReport:
    """Outcome of :func:`decide_sylvester` for a u - u b = rhs; for the (u, v)
    system, ``companion`` is the s it used and ``witness`` the completed pair."""

    u: np.ndarray  # the least-squares answer, in the original coordinates
    lstsq_residual: float
    threshold: float
    rank: int
    marginal: bool  # residual within 10x of the threshold: too close to call
    near_cutoff: bool = False  # the rank decision itself sat near the cutoff
    cluster_sizes: tuple = (0, 0)  # (k_a, k_b): eigenvalues in the shared block
    cluster_tolerance: float = 0.0
    witness: UVWitness | None = None
    companion: np.ndarray | None = None


@dataclass
class Verdict:
    """A verdict with its evidence; ``checks`` maps each verification step
    to an entry built by :func:`check_entry` where its threshold is decided."""

    status: VerdictStatus
    witness: UVWitness | None
    solution: np.ndarray | None
    certificate_residual: float
    certificate_threshold: float
    system_residual: float
    system_threshold: float
    oracle_agreement: bool | None
    problem: SylvesterProblem
    solution_norm: float | None = None
    ill_conditioned_gate: str | None = None  # the check that refused a binary answer
    cluster_sizes: tuple | None = None
    cluster_tolerance: float | None = None
    checks: dict = field(default_factory=dict)


def check_entry(status: str, residual: float | None = None,
                threshold: float | None = None) -> dict:
    """One ``checks`` entry: ``pass``, ``fail`` or ``skipped``, with the
    residual and the threshold that decided it; a ``note`` may follow."""
    entry = {"status": status}
    entry["residual"] = None if residual is None else float(residual)
    entry["threshold"] = None if threshold is None else float(threshold)
    return entry


def _bounded_check(residual: float, threshold: float) -> dict:
    # fail closed: a non-finite residual or threshold bounds nothing
    passed = math.isfinite(residual) and math.isfinite(threshold) and residual <= threshold
    return check_entry("pass" if passed else "fail", residual, threshold)


def _skipped(note: str) -> dict:
    return {**check_entry("skipped"), "note": note}


def skipped_on_refusal(gate: str) -> dict:
    """The entry of a requested cross-check that an ``ill_conditioned``
    verdict, refused at ``gate``, leaves unrun."""
    return _skipped(f"the verdict is ill_conditioned (gate {gate}): "
                    "there is no binary answer to cross-check")


def prepare(a, b, c, alpha: float = DEFAULT_ALPHA) -> SylvesterProblem:
    """Shift (a, b, c) so both spectra sit inside the sector of half-angle
    ``alpha`` and record the gate evidence; the solution set is unchanged.
    The gate's intersection is the decision's cluster on the shifted pair."""
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    c = as_complex_matrix(c, "c")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}")
    ta, qa = complex_schur(a)
    tb, qb = complex_schur(b)
    lam = choose_shift(ta.diagonal(), tb.diagonal(), alpha)
    id_a, id_b = np.eye(a.shape[0]), np.eye(b.shape[0])
    a, b = a + lam * id_a, b + lam * id_b
    shared_a, _, tolerance = shared_eigenvalues(ta.diagonal() + lam, tb.diagonal() + lam,
                                                frob(a) + frob(b))
    gate = GateReport(in_sector_a=sector_contains(ta.diagonal(), alpha),
                      in_sector_b=sector_contains(tb.diagonal(), alpha),
                      spectra_intersect=bool(shared_a.any()),
                      intersection_tolerance=float(tolerance), suggested_lambda=lam)
    return SylvesterProblem(a=a, b=b, c=c, gate=gate, alpha=alpha, lambda_shift=lam,
                            schur_a=(ta + lam * id_a, qa), schur_b=(tb + lam * id_b, qb))


def unipotent_identity_residual(q, p: SylvesterProblem, offset,
                                tol: float = DEFAULT_TOL) -> tuple:
    """Residual of the reduced unipotent identity q b - a q = r for the
    offset r, and the threshold it is judged against."""
    residual = frob(q @ p.b - p.a @ q - offset)
    threshold = tol * (frob(offset) + (frob(p.a) + frob(p.b)) * frob(q) + 1e-300)
    return residual, threshold


def _witness_from_u(p: SylvesterProblem, u: np.ndarray, companion: np.ndarray,
                    offset: np.ndarray, tol: float,
                    decision_threshold: float) -> UVWitness:
    """Complete u to the pair (u, v = a^-1 c b^-1 - u) and record every pair
    identity's residual with its threshold.

    With this v, u_plus_v holds by construction and av_ub is the reduced
    equation's own residual, so it is judged against the threshold the
    decision applied; au_vb, cubic and unipotent_identity are independent.
    """
    a, b = p.a, p.b
    pair_sum = solve_left(a, solve_right(p.c, b))
    v = pair_sum - u
    q = v - u
    na, nb, nu, nv = frob(a), frob(b), frob(u), frob(v)
    # a residual that overflows is non-finite and fails its check; numpy
    # need not warn about it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = {
            "av_ub": frob(a @ v + u @ b - companion),
            "au_vb": frob(a @ u + v @ b - (companion + offset)),
            "u_plus_v": frob(u + v - pair_sum),
            "cubic": frob(a @ a @ a @ v + a @ a @ v @ b + u @ b @ b @ b + a @ u @ b @ b),
        }
    # each identity at the scale of its own terms
    thresholds = {
        "av_ub": decision_threshold,
        "au_vb": tol * (na * nu + nv * nb + frob(companion) + frob(offset)),
        "u_plus_v": tol * (nu + nv + frob(pair_sum)),
        "cubic": tol * (na + nb) ** 3 * (nu + nv),
    }
    residuals["unipotent_identity"], thresholds["unipotent_identity"] = \
        unipotent_identity_residual(q, p, offset, tol)
    return UVWitness(u=u, v=v, companion=companion, offset=offset, q=q,
                     residuals=residuals, thresholds=thresholds,
                     uv_norm=float(np.sqrt(nu ** 2 + nv ** 2)))


def _regular_block(ta, tb, rhs, cutoff: float) -> np.ndarray | None:
    """Solution y of ta y - y tb = rhs for spectra outside the shared
    cluster, or None when the solve amplifies rhs by 0.1 / ``cutoff`` or
    more: that gain is as fragile as a near-cutoff singular value, and the
    block belongs to the cluster."""
    try:
        y = triangular_sylvester(ta, tb, rhs, -1)
    except InversionError:
        return None
    return None if frob(y) > 0.1 / cutoff * frob(rhs) else y


def _shared_first(a, b, schur_a, schur_b) -> tuple:
    """Schur factors of a and b reordered so the shared eigenvalues lead, the
    cluster sizes (k_a, k_b), the data scale ||a|| + ||b|| and the tolerance."""
    (ta, qa), (tb, qb) = schur_a, schur_b
    data_scale = frob(a) + frob(b)
    select_a, select_b, tolerance = shared_eigenvalues(ta.diagonal(), tb.diagonal(), data_scale)
    return (reorder_schur(ta, qa, select_a), reorder_schur(tb, qb, select_b),
            (int(select_a.sum()), int(select_b.sum())), data_scale, tolerance)


def _shared_block_lstsq(ta, tb, k_a: int, k_b: int, heads, data_scale: float):
    """Minimum-norm least squares on the shared block of Schur factors ta,
    tb whose leading k_a and k_b eigenvalues form the cluster: a11 y - y b11
    = h for vec(h) in ``heads`` (one vector or a block of columns), rank
    judged by the rule of the full nm operator at the scale ``data_scale``."""
    nm = ta.shape[0] * tb.shape[0]
    return lstsq_solve(kron_vec_operator(ta[:k_a, :k_a], tb[:k_b, :k_b], -1), heads,
                       scale_reference=data_scale, cutoff_shape=(nm, nm))


def _schur_reduced_solve(ta, tb, rhs, k_a: int, k_b: int, data_scale: float):
    """Solve ta y - y tb = r blockwise for each r in the list ``rhs``, for
    Schur factors whose leading k_a and k_b eigenvalues form the shared
    cluster.

    Blocks (2,1), (2,2) and (1,2) pair disjoint spectra and are solved by
    trsyl in that order around the shared block (1,1), the only one decided
    by rank-revealing least squares, with the rank rule of the full nm
    operator; one SVD of the shared block serves every r.  Returns
    (ys, lstsq result or None): ys holds the y of each r, or None where a
    regular block amplifies its right-hand side past the rank rule's cutoff.
    """
    n, m = ta.shape[0], tb.shape[0]
    cutoff = rank_cutoff((n * m, n * m), 0.0, data_scale)
    a11, a12, a22 = ta[:k_a, :k_a], ta[:k_a, k_a:], ta[k_a:, k_a:]
    b11, b12, b22 = tb[:k_b, :k_b], tb[:k_b, k_b:], tb[k_b:, k_b:]
    ys = []
    for r in rhs:
        y21 = _regular_block(a22, b11, r[k_a:, :k_b], cutoff)
        y22 = None if y21 is None else \
            _regular_block(a22, b22, r[k_a:, k_b:] + y21 @ b12, cutoff)
        y = None
        if y22 is not None:
            y = np.zeros((n, m), dtype=np.complex128)
            y[k_a:, :k_b], y[k_a:, k_b:] = y21, y22
        ys.append(y)
    solved = [(y, r) for y, r in zip(ys, rhs) if y is not None]
    shared = None
    if k_a and k_b and solved:
        heads = np.array([vec(r[:k_a, :k_b] - a12 @ y[k_a:, :k_b]) for y, r in solved]).T
        shared = _shared_block_lstsq(ta, tb, k_a, k_b, heads, data_scale)
        for (y, _), z in zip(solved, shared.solution.T):
            y[:k_a, :k_b] = unvec(z, k_a, k_b)
    for index, (y, r) in enumerate(zip(ys, rhs)):
        if y is None:
            continue
        y12 = _regular_block(a11, b22, r[:k_a, k_b:] - a12 @ y[k_a:, k_b:]
                             + y[:k_a, :k_b] @ b12, cutoff)
        if y12 is None:
            ys[index] = None
        else:
            y[:k_a, k_b:] = y12
    return ys, shared


def decide_sylvester(a, b, schur_a, schur_b, rhs, tol: float = DEFAULT_TOL):
    """Decide the possibly singular equation a u - u b = rhs on the complex
    Schur factors (t, q) of a and b.

    ``rhs`` is one n x m right-hand side, decided into one
    :class:`UVSystemReport`, or a (k, n, m) stack of them, decided into a
    list of k reports, each the one its slice alone would get: the factors
    are reordered and the shared block's operator is built and decomposed
    once for the whole stack.

    The factors are reordered so the eigenvalues that
    :func:`~sylvcert.gate.shared_eigenvalues` marks at the scale ||a|| + ||b||
    lead: only the k_a x k_b shared block is decided by minimum-norm least
    squares (rank judged as for the full nm operator at the scale
    ||a|| + ||b||), everything else by Bartels-Stewart.  If a regular block
    amplifies its right-hand side past the rank cutoff, or a nonzero u comes
    out so large that u = 0 would pass the threshold too, the cluster widens
    to all of both spectra for that slice and the same code decides the
    whole equation.  The residual is then taken on the full u in the
    original coordinates against tol * (||rhs|| + (||a|| + ||b||) ||u||),
    relative to the data, so scaling rhs alone cannot move the decision;
    residuals within a factor 10 of it are flagged marginal rather than
    forced into a binary answer.
    """
    (ta, qa), (tb, qb), cluster, data_scale, tolerance = _shared_first(a, b, schur_a, schur_b)
    n, m = ta.shape[0], tb.shape[0]
    stack = np.asarray(rhs, dtype=np.complex128)
    if stack.ndim not in (2, 3) or stack.shape[-2:] != (n, m):
        raise DimensionError(f"rhs must be {n}x{m} or a stack of them, got shape {stack.shape}")
    slices = stack.reshape(-1, n, m)  # a single rhs is the one-slice stack
    r = qa.conj().T @ slices @ qb

    reports: list = [None] * len(slices)
    pending = list(range(len(slices)))
    # the whole spectra form the fallback cluster, where every block is shared
    for k_a, k_b in (cluster, (n, m)):
        ys, shared = _schur_reduced_solve(ta, tb, [r[i] for i in pending], k_a, k_b, data_scale)
        rank = n * m - k_a * k_b + (0 if shared is None else shared.rank)
        widen = []
        for i, y in zip(pending, ys):
            if y is None:
                widen.append(i)
                continue
            u = qa @ y @ qb.conj().T
            u_norm, rhs_norm = frob(u), frob(slices[i])
            # a u so large that u = 0 would pass the threshold too decides
            # nothing; u = 0 at rhs = 0 decides
            if tol * data_scale * u_norm > rhs_norm and (k_a, k_b) != (n, m):
                widen.append(i)
                continue
            residual = frob(a @ u - u @ b - slices[i])
            threshold = tol * (rhs_norm + data_scale * u_norm)
            reports[i] = UVSystemReport(
                u=u, lstsq_residual=residual, threshold=threshold, rank=rank,
                marginal=threshold < residual <= 10.0 * threshold,
                near_cutoff=shared is not None and shared.near_cutoff,
                cluster_sizes=(k_a, k_b), cluster_tolerance=tolerance)
        if not widen:
            break
        pending = widen
    return reports[0] if stack.ndim == 2 else reports


def sylvester_kernel(a, b, schur_a, schur_b) -> list:
    """Orthonormal basis of {x : a x = x b}, in a deterministic order, read
    off the decision's shared block at rhs = 0 on the Schur factors (t, q)
    of a and b: each null vector z of the shared block extends by one trsyl
    through a11 y12 - y12 b22 = z b12, the other blocks are zero, and an
    extension that blows up widens the cluster to the whole spectra."""
    (ta, qa), (tb, qb), cluster, data_scale, _ = _shared_first(a, b, schur_a, schur_b)
    n, m = ta.shape[0], tb.shape[0]
    for k_a, k_b in (cluster, (n, m)):
        # at rhs = 0 the regular blocks of the decision are zero, so only
        # the shared block's null vectors need solving for
        heads = []
        if k_a and k_b:
            shared = _shared_block_lstsq(ta, tb, k_a, k_b, np.zeros(k_a * k_b), data_scale)
            heads = [unvec(z, k_a, k_b) for z in shared.null_space.T]
        tails = [_regular_block(ta[:k_a, :k_a], tb[k_b:, k_b:], y11 @ tb[:k_b, k_b:],
                                shared.cutoff) for y11 in heads]
        if all(y12 is not None for y12 in tails):
            break
    if not heads:
        return []
    # only the leading k_a rows are nonzero; orthonormal in Schur coordinates
    # stays orthonormal under the unitary qa, qb
    q, _ = np.linalg.qr(np.column_stack([vec(np.hstack(pair)) for pair in zip(heads, tails)]))
    return [qa[:, :k_a] @ unvec(v, k_a, m) @ qb.conj().T for v in q.T]


def _phase_fix(x: np.ndarray) -> np.ndarray:
    """x times the unit scalar that makes its first entry of non-negligible
    modulus, in column-stacking order, real and positive."""
    v = vec(x)
    norm = np.linalg.norm(v)
    if norm == 0:
        return x
    pivot = v[np.argmax(np.abs(v) > 1e-12 * norm)]
    if pivot == 0:
        return x
    return x * (abs(pivot) / pivot)


def intertwiner_basis(a, b, schur_a, schur_b) -> tuple:
    """The :func:`sylvester_kernel` basis of {x : a x = x b}, each element's
    phase fixed, as read-only arrays."""
    basis = tuple(_phase_fix(x) for x in sylvester_kernel(a, b, schur_a, schur_b))
    for x in basis:
        x.flags.writeable = False
    return basis


def solve_uv_report(p: SylvesterProblem, tol: float = DEFAULT_TOL) -> UVSystemReport:
    """Decide the (u, v) system through its reduced form a u - u b = a s b^-1
    (substitute v = a^-1 c b^-1 - u into a v + u b = s) with
    :func:`decide_sylvester`; a consistent decision is completed to the
    witness pair (u, v)."""
    a, b = p.a, p.b
    companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
    rhs = solve_right(a @ companion, b)
    report = decide_sylvester(a, b, p.schur_a, p.schur_b, rhs, tol)
    report.companion = companion
    if report.lstsq_residual <= report.threshold:
        report.witness = _witness_from_u(p, report.u, companion,
                                         compute_offset(a, b, companion), tol,
                                         report.threshold)
    return report


def solve_uv_system(p: SylvesterProblem, tol: float = DEFAULT_TOL) -> UVWitness | None:
    """Minimum-norm witness for the (u, v) system, or None when inconsistent."""
    return solve_uv_report(p, tol).witness


def solution_from_u(a, b, u) -> np.ndarray:
    """The solution formula in u, x = a^-1 u b^2 + u b."""
    a, b, u = as_complex_matrix(a, "a"), as_complex_matrix(b, "b"), as_complex_matrix(u, "u")
    return solve_left(a, u @ b @ b) + u @ b


def _certificate_scale(a, b, c, x) -> float:
    return (frob(a) + frob(b)) * frob(x) + frob(c) + 1e-300


def particular_solution(w: UVWitness, p: SylvesterProblem,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate both closed-form solution expressions from the witness and
    require them to agree and to satisfy the equation.

    The gap between the two expressions and its threshold are recorded in
    the witness under ``solution_formula_gap``.
    """
    a, b, c = p.a, p.b, p.c
    x_u = solution_from_u(a, b, w.u)
    x_v = -(solve_right(a @ a @ w.v, b) + a @ w.v)
    gap = frob(x_u - x_v)
    gap_threshold = tol * (frob(x_u) + frob(x_v))
    w.residuals["solution_formula_gap"] = gap
    w.thresholds["solution_formula_gap"] = gap_threshold
    if gap > gap_threshold:
        raise WitnessError(
            f"solution formulas disagree ({gap:.3g} > {gap_threshold:.3g}); "
            "the witness does not certify solvability", gate="solution_formula_gap")
    residual = frob(a @ x_u - x_u @ b - c)
    scale = _certificate_scale(a, b, c, x_u)
    if residual > tol * scale:
        raise WitnessError(
            f"certified solution fails the equation ({residual:.3g} > {tol:.1g} * {scale:.3g})",
            gate="solution_certificate")
    return x_u


def diagnose(a, b, c, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
             with_oracle: bool = False, with_quadrature: bool = False) -> Verdict:
    """Full decision pipeline: prepare, decide the (u, v) system, synthesize
    and certify a particular solution, optionally cross-check against the
    Kronecker oracle and the integral representation of the companion
    solution.

    The certificate residual is evaluated against the original, unshifted
    data (the shift leaves a x - x b unchanged).  ``checks`` gets one entry
    per verification step, built where its decision is made;
    ``unipotent_bridge`` reads ``skipped`` here, and
    :func:`~sylvcert.roots.unipotent_bridge_check` builds it on request.
    """
    a0 = require_square(as_complex_matrix(a, "a"), "a")
    b0 = require_square(as_complex_matrix(b, "b"), "b")
    c0 = as_complex_matrix(c, "c")
    p = prepare(a0, b0, c0, alpha=alpha)

    rep = x = gate = None
    if not np.any(c0):
        x = np.zeros((p.n, p.m), dtype=np.complex128)
        witness = _witness_from_u(p, x, x, x, tol, 0.0)
        witness.residuals["solution_formula_gap"] = 0.0
        witness.thresholds["solution_formula_gap"] = 0.0
        system_residual, system_threshold = 0.0, tol
    else:
        rep = solve_uv_report(p, tol)
        # a fragile rank decision makes neither answer trustworthy, and a
        # residual just above the threshold makes "no witness" untrustworthy
        gate = "near_cutoff" if rep.near_cutoff else "marginal_residual" if rep.marginal else None
        witness = rep.witness
        if witness is not None and gate is None:
            try:
                x = particular_solution(witness, p, tol)
            except WitnessError as exc:
                gate = exc.gate
        system_residual, system_threshold = rep.lstsq_residual, rep.threshold

    solvable = x is not None
    status = VerdictStatus.SOLVABLE if solvable else \
        VerdictStatus.UNSOLVABLE if gate is None else VerdictStatus.ILL_CONDITIONED
    checks = {"system_consistency": check_entry("pass" if solvable else "fail",
                                                system_residual, system_threshold)}
    if solvable:
        certificate = (frob(a0 @ x - x @ b0 - c0), tol * _certificate_scale(a0, b0, c0, x))
        residuals, thresholds = witness.residuals, witness.thresholds
        # the pair identity farthest from holding, each against its own
        # threshold; a NaN ratio ranks worst, so it cannot hide behind the others
        ratios = {key: residuals[key] / max(thresholds[key], 1e-300) for key in PAIR_IDENTITIES}
        worst = max(ratios, key=lambda key: math.inf if math.isnan(ratios[key]) else ratios[key])
        checks["solution_certificate"] = _bounded_check(*certificate)
        checks["solution_formulas_agree"] = _bounded_check(
            residuals["solution_formula_gap"], thresholds["solution_formula_gap"])
        checks["identity_cascade"] = _bounded_check(residuals[worst], thresholds[worst])
    else:
        witness = None
        certificate = (system_residual, system_threshold)
        for name in ("solution_certificate", "solution_formulas_agree", "identity_cascade"):
            checks[name] = check_entry("skipped")

    oracle_agreement = None
    unknowns = p.n * p.m
    if not with_oracle:
        checks["oracle_cross_check"] = check_entry("skipped")
    elif unknowns > ORACLE_MAX_UNKNOWNS:
        # the dense oracle needs (nm)^2 memory; above its cap it is not run
        checks["oracle_cross_check"] = _skipped(
            f"{unknowns} unknowns exceed the dense oracle's cap of {ORACLE_MAX_UNKNOWNS}")
    elif status is VerdictStatus.ILL_CONDITIONED:
        checks["oracle_cross_check"] = skipped_on_refusal(gate)
    else:
        reference = oracle_solve("sylvester", a0, b0, c0, tol=tol)
        oracle_agreement = bool(reference.consistent == solvable)
        checks["oracle_cross_check"] = check_entry(
            "pass" if oracle_agreement else "fail", reference.residual, reference.threshold)

    if with_quadrature and rep is not None:
        quad = companion_solve_quadrature(p.a, p.b, c0).solution
        gap = frob(rep.companion - quad) / max(frob(rep.companion), 1e-300)
        checks["integral_representation"] = _bounded_check(gap, QUADRATURE_GAP_TOL)
    elif with_quadrature:
        checks["integral_representation"] = _skipped(
            "c = 0, so the companion solution is zero; no quadrature was run")
    else:
        checks["integral_representation"] = check_entry("skipped")
    checks["unipotent_bridge"] = check_entry("skipped")

    return Verdict(status=status, witness=witness, solution=x,
                   certificate_residual=certificate[0], certificate_threshold=certificate[1],
                   system_residual=system_residual, system_threshold=system_threshold,
                   oracle_agreement=oracle_agreement, problem=p,
                   solution_norm=None if x is None else frob(x),
                   ill_conditioned_gate=gate,
                   cluster_sizes=None if rep is None else rep.cluster_sizes,
                   cluster_tolerance=None if rep is None else rep.cluster_tolerance,
                   checks=checks)


def reduced_singular_routes(p: SylvesterProblem, tol: float = DEFAULT_TOL):
    """Decide the two reduced single-unknown equations

        a u - u b = a s b^-1      and      a v - v b = -a^-1 s b

    via the Kronecker oracle.  Either both are consistent (the original
    equation is solvable) or neither is.
    """
    a, b, c = p.a, p.b, p.c
    companion = schur_sylvester(p.schur_a, p.schur_b, c, +1)
    rhs_u = solve_right(a @ companion, b)
    rhs_v = -solve_left(a, companion @ b)
    res_u = oracle_solve("sylvester", a, b, rhs_u, tol=tol)
    res_v = oracle_solve("sylvester", a, b, rhs_v, tol=tol)
    return (res_u.solution if res_u.consistent else None,
            res_v.solution if res_v.consistent else None)


def verify_commutant_identity(w: UVWitness, p: SylvesterProblem,
                              a_prime=None, b_prime=None,
                              tol: float = DEFAULT_TOL) -> bool:
    """Check the block identity U' D2 V' = D- U' V' D- for
    U' = [[a, u], [0, b']] and V' = [[a', v], [0, b]], where D2 and D- are the
    block-diagonal embeddings of (a^2, b^2) and (a, -b).

    ``a_prime`` and ``b_prime`` may be any elements commuting with a and b
    respectively (identity by default); the identity holds for a certified
    witness regardless of that choice.
    """
    a, b = p.a, p.b
    a_prime = np.eye(p.n, dtype=np.complex128) if a_prime is None \
        else require_square(as_complex_matrix(a_prime, "a_prime"), "a_prime")
    b_prime = np.eye(p.m, dtype=np.complex128) if b_prime is None \
        else require_square(as_complex_matrix(b_prime, "b_prime"), "b_prime")
    if frob(a_prime @ a - a @ a_prime) > tol * (frob(a) * frob(a_prime) + 1e-300):
        raise PreconditionError("a_prime does not commute with a")
    if frob(b_prime @ b - b @ b_prime) > tol * (frob(b) * frob(b_prime) + 1e-300):
        raise PreconditionError("b_prime does not commute with b")

    # every operand is block upper triangular, so the products are dense ones
    u_block = block_upper(a, as_complex_matrix(w.u, "u"), b_prime)
    v_block = block_upper(a_prime, as_complex_matrix(w.v, "v"), b)
    d_square = block_upper(a @ a, 0, b @ b)
    d_minus = block_upper(a, 0, -b)
    lhs = u_block @ d_square @ v_block
    rhs = d_minus @ u_block @ v_block @ d_minus
    scale = max(frob(lhs), frob(rhs), 1e-300)
    return frob(lhs - rhs) <= tol * scale


def commutator_identity_verdict(a, tol: float = DEFAULT_TOL,
                                with_oracle: bool = True) -> Verdict:
    """Verdict for a x - x a = I, which is never solvable (the left side has
    zero trace in every matrix representation, the right side does not)."""
    a = require_square(as_complex_matrix(a, "a"), "a")
    identity = np.eye(a.shape[0], dtype=np.complex128)
    return diagnose(a, a, identity, tol=tol, with_oracle=with_oracle)


def complete_intertwined_pair(p: SylvesterProblem, given, which: str = "z",
                              tol: float = DEFAULT_TOL):
    """Complete (z, w) with a z = w b from one member.

    ``which`` names the member that was provided.  The returned pair is
    residual-verified.
    """
    a, b = p.a, p.b
    given = as_complex_matrix(given, which)
    if given.shape != (p.n, p.m):
        raise DimensionError(f"{which} must be {p.n}x{p.m}")
    if which == "z":
        z = given
        w = solve_right(a @ z, b)
    elif which == "w":
        w = given
        z = solve_left(a, w @ b)
    else:
        raise PreconditionError(f"which must be 'z' or 'w', got {which!r}")
    residual = frob(a @ z - w @ b)
    scale = frob(a) * frob(z) + frob(w) * frob(b) + 1e-300
    if residual > tol * scale:
        raise WitnessError(f"completed pair fails a z = w b ({residual:.3g})")
    return z, w
