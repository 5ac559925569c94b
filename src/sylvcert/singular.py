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

by minimum-norm least squares with an explicit, reported threshold.  The
stacked 2nm system stays available as the oracle's ``uv_stacked`` reference.
Completing v this way makes u + v = a^-1 c b^-1 and the mixed sum hold by
construction; the identity a u + v b = s + offset, the cubic constraint and
the two gates of :func:`particular_solution` are the independent checks,
each certified as a residual against a threshold at its own scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError, WitnessError
from .gate import (DEFAULT_ALPHA, DEFAULT_MARGIN, GateReport,
                   default_intersection_tolerance, gate_report)
from .blockalg import BlockMatrix, block_mul, diag_embed
from .numerics import (as_complex_matrix, eigenvalues, frob, kron_vec_operator,
                       lstsq_solve, require_square, unvec, vec)
from .oracle import oracle_solve
from .regular import (companion_solve_direct, companion_solve_quadrature,
                      compute_offset)

DEFAULT_TOL = 1e-8

# keys of the witness residual map, one per certified identity
RESIDUAL_KEYS = ("av_ub", "au_vb", "u_plus_v", "cubic", "unipotent_identity")


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

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]


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
    """Outcome of the least-squares decision of the reduced equation
    a u - u b = a s b^-1; ``witness`` carries the completed pair (u, v)."""

    witness: UVWitness | None
    lstsq_residual: float
    threshold: float
    rank: int
    marginal: bool  # residual within 10x of the threshold: too close to call
    near_cutoff: bool = False  # the rank decision itself sat near the cutoff


@dataclass
class Verdict:
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
    quadrature_gap: float | None = None
    oracle_residual: float | None = None
    oracle_threshold: float | None = None


def prepare(a, b, c, alpha: float = DEFAULT_ALPHA, margin: float = DEFAULT_MARGIN,
            intersection_tolerance: float | None = None) -> SylvesterProblem:
    """Shift (a, b, c) so both spectra sit inside the sector of half-angle
    ``alpha`` and record the gate evidence; the solution set is unchanged."""
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    c = as_complex_matrix(c, "c")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}")
    sa = eigenvalues(a)
    sb = eigenvalues(b)
    tol = intersection_tolerance if intersection_tolerance is not None \
        else default_intersection_tolerance(a, b)
    report = gate_report(sa, sb, alpha, tol, margin)
    lam = report.suggested_lambda
    a_shifted = a + lam * np.eye(a.shape[0])
    b_shifted = b + lam * np.eye(b.shape[0])
    return SylvesterProblem(a=a_shifted, b=b_shifted, c=c, gate=report,
                            alpha=alpha, lambda_shift=lam)


def _witness_from_u(p: SylvesterProblem, u: np.ndarray, companion: np.ndarray,
                    offset: np.ndarray, tol: float,
                    decision_threshold: float) -> UVWitness:
    """Complete u to the pair (u, v = a^-1 c b^-1 - u) and record every pair
    identity's residual with its threshold.

    With this v, u_plus_v holds by construction and av_ub is the reduced
    equation's own residual, so it is judged against the threshold the
    decision applied; au_vb, cubic and unipotent_identity are independent.
    """
    a, b, c = p.a, p.b, p.c
    pair_sum = np.linalg.inv(a) @ c @ np.linalg.inv(b)
    v = pair_sum - u
    q = v - u
    na, nb, nu, nv = frob(a), frob(b), frob(u), frob(v)
    residuals = {
        "av_ub": frob(a @ v + u @ b - companion),
        "au_vb": frob(a @ u + v @ b - (companion + offset)),
        "u_plus_v": frob(u + v - pair_sum),
        "cubic": frob(a @ a @ a @ v + a @ a @ v @ b + u @ b @ b @ b + a @ u @ b @ b),
        "unipotent_identity": frob(q @ b - a @ q - offset),
    }
    # each identity at the scale of its own terms
    thresholds = {
        "av_ub": decision_threshold,
        "au_vb": tol * (na * nu + nv * nb + frob(companion) + frob(offset)),
        "u_plus_v": tol * (nu + nv + frob(pair_sum)),
        "cubic": tol * (na + nb) ** 3 * (nu + nv),
        "unipotent_identity": tol * ((na + nb) * frob(q) + frob(offset)),
    }
    return UVWitness(u=u, v=v, companion=companion, offset=offset, q=q,
                     residuals=residuals, thresholds=thresholds,
                     uv_norm=float(np.sqrt(nu ** 2 + nv ** 2)))


def solve_uv_report(p: SylvesterProblem, tol: float = DEFAULT_TOL) -> UVSystemReport:
    """Decide consistency of the (u, v) system through its reduced form.

    Substituting v = a^-1 c b^-1 - u into a v + u b = s leaves the single
    equation a u - u b = a s b^-1 in nm unknowns, decided by minimum-norm
    least squares with the rank judged at the scale ||a|| + ||b|| of the
    data.  The threshold is tol * (||a s b^-1|| + (||a|| + ||b||) ||u||),
    relative to the data, so scaling c alone cannot move the verdict;
    residuals within a factor 10 of it are flagged marginal rather than
    forced into a binary answer.
    """
    a, b, c = p.a, p.b, p.c
    companion = companion_solve_direct(a, b, c, check_gate=False).solution
    offset = compute_offset(a, b, companion)
    rhs = a @ companion @ np.linalg.inv(b)
    data_scale = frob(a) + frob(b)
    res = lstsq_solve(kron_vec_operator(a, b, -1), vec(rhs), scale_reference=data_scale)
    u = unvec(res.solution, p.n, p.m)
    threshold = tol * (frob(rhs) + data_scale * frob(u))
    marginal = threshold < res.residual_norm <= 10.0 * threshold
    witness = None
    if res.residual_norm <= threshold:
        witness = _witness_from_u(p, u, companion, offset, tol, threshold)
    return UVSystemReport(witness=witness, lstsq_residual=res.residual_norm,
                          threshold=threshold, rank=res.rank, marginal=marginal,
                          near_cutoff=res.near_cutoff)


def solve_uv_system(p: SylvesterProblem, tol: float = DEFAULT_TOL) -> UVWitness | None:
    """Minimum-norm witness for the (u, v) system, or None when inconsistent."""
    return solve_uv_report(p, tol).witness


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
    a_inv = np.linalg.inv(a)
    b_inv = np.linalg.inv(b)
    x_u = a_inv @ w.u @ b @ b + w.u @ b
    x_v = -(a @ a @ w.v @ b_inv + a @ w.v)
    gap = frob(x_u - x_v)
    gap_threshold = tol * (frob(x_u) + frob(x_v))
    w.residuals["solution_formula_gap"] = gap
    w.thresholds["solution_formula_gap"] = gap_threshold
    if gap > gap_threshold:
        raise WitnessError(
            f"solution formulas disagree ({gap:.3g} > {gap_threshold:.3g}); "
            "the witness does not certify solvability")
    residual = frob(a @ x_u - x_u @ b - c)
    scale = _certificate_scale(a, b, c, x_u)
    if residual > tol * scale:
        raise WitnessError(
            f"certified solution fails the equation ({residual:.3g} > {tol:.1g} * {scale:.3g})")
    return x_u


def diagnose(a, b, c, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
             with_oracle: bool = False, with_quadrature: bool = False,
             intersection_tolerance: float | None = None) -> Verdict:
    """Full decision pipeline: prepare, decide the (u, v) system, synthesize
    and certify a particular solution, optionally cross-check against the
    Kronecker oracle and the integral representation of the companion
    solution.

    The certificate residual is evaluated against the original, unshifted
    data (the shift leaves a x - x b unchanged).
    """
    a0 = require_square(as_complex_matrix(a, "a"), "a")
    b0 = require_square(as_complex_matrix(b, "b"), "b")
    c0 = as_complex_matrix(c, "c")
    p = prepare(a0, b0, c0, alpha=alpha,
                intersection_tolerance=intersection_tolerance)

    if not np.any(c0):
        x = np.zeros((p.n, p.m), dtype=np.complex128)
        witness = _witness_from_u(p, x, x, x, tol, 0.0)
        witness.residuals["solution_formula_gap"] = 0.0
        witness.thresholds["solution_formula_gap"] = 0.0
        verdict = Verdict(status=VerdictStatus.SOLVABLE, witness=witness, solution=x,
                          certificate_residual=0.0,
                          certificate_threshold=tol * _certificate_scale(a0, b0, c0, x),
                          system_residual=0.0, system_threshold=tol,
                          oracle_agreement=None, problem=p, solution_norm=0.0)
    else:
        rep = solve_uv_report(p, tol)
        if rep.witness is not None:
            x = particular_solution(rep.witness, p, tol)
            residual = frob(a0 @ x - x @ b0 - c0)
            verdict = Verdict(status=VerdictStatus.SOLVABLE, witness=rep.witness,
                              solution=x, certificate_residual=residual,
                              certificate_threshold=tol * _certificate_scale(a0, b0, c0, x),
                              system_residual=rep.lstsq_residual,
                              system_threshold=rep.threshold,
                              oracle_agreement=None, problem=p,
                              solution_norm=frob(x))
        else:
            # a fragile rank decision makes "no witness" untrustworthy
            too_close = rep.marginal or rep.near_cutoff
            status = VerdictStatus.ILL_CONDITIONED if too_close else VerdictStatus.UNSOLVABLE
            verdict = Verdict(status=status, witness=None, solution=None,
                              certificate_residual=rep.lstsq_residual,
                              certificate_threshold=rep.threshold,
                              system_residual=rep.lstsq_residual,
                              system_threshold=rep.threshold,
                              oracle_agreement=None, problem=p)

    if with_oracle and verdict.status is not VerdictStatus.ILL_CONDITIONED:
        reference = oracle_solve("sylvester", a0, b0, c0, tol=tol)
        verdict.oracle_agreement = bool(
            reference.consistent == (verdict.status is VerdictStatus.SOLVABLE))
        verdict.oracle_residual = reference.residual
        verdict.oracle_threshold = reference.threshold

    if with_quadrature and np.any(c0):
        direct = companion_solve_direct(p.a, p.b, c0, check_gate=False).solution
        quad = companion_solve_quadrature(p.a, p.b, c0).solution
        verdict.quadrature_gap = frob(direct - quad) / max(frob(direct), 1e-300)

    return verdict


def reduced_singular_routes(p: SylvesterProblem, tol: float = DEFAULT_TOL):
    """Decide the two reduced single-unknown equations

        a u - u b = a s b^-1      and      a v - v b = -a^-1 s b

    via the Kronecker oracle.  Either both are consistent (the original
    equation is solvable) or neither is.
    """
    a, b, c = p.a, p.b, p.c
    companion = companion_solve_direct(a, b, c, check_gate=False).solution
    rhs_u = a @ companion @ np.linalg.inv(b)
    rhs_v = -np.linalg.inv(a) @ companion @ b
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

    u_block = BlockMatrix.upper(a, w.u, b_prime)
    v_block = BlockMatrix.upper(a_prime, w.v, b)
    d_square = diag_embed(a @ a, b @ b)
    d_minus = diag_embed(a, -b)
    lhs = block_mul(block_mul(u_block, d_square), v_block)
    rhs = block_mul(block_mul(block_mul(d_minus, u_block), v_block), d_minus)
    scale = max(lhs.norm(), rhs.norm(), 1e-300)
    return (lhs - rhs).norm() <= tol * scale


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
        w = a @ z @ np.linalg.inv(b)
    elif which == "w":
        w = given
        z = np.linalg.inv(a) @ w @ b
    else:
        raise PreconditionError(f"which must be 'z' or 'w', got {which!r}")
    residual = frob(a @ z - w @ b)
    scale = frob(a) * frob(z) + frob(w) * frob(b) + 1e-300
    if residual > tol * scale:
        raise WitnessError(f"completed pair fails a z = w b ({residual:.3g})")
    return z, w
