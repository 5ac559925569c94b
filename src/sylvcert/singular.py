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

with :func:`decide_sylvester`, the one kernel for singular Sylvester equations,
one right-hand side per call (the root bridge decides the coupling equation of
each sign class with it too).  The pair (a, b) is factored once, into the
:class:`SylvesterPair` that :func:`cluster_first` builds, and each
right-hand side is decided against it: in complex Schur coordinates ordered
so the k_a x k_b block of eigenvalues shared within the cluster tolerance
leads, only that block by minimum-norm least squares with an explicit,
reported threshold, the rest and the companion equation by Bartels-Stewart,
in O(n^3 + m^3 + (k_a k_b)^3) instead of O((nm)^3).  The tests keep the
stacked 2nm system as their reference.  Completing v this way makes
u + v = a^-1 c b^-1 and the mixed sum hold by construction; the identity
a u + v b = s + offset, the cubic constraint, the formula gate of
:func:`particular_solution` and the certificate :func:`diagnose` takes on the
original data are the independent checks, each certified as a residual
against a threshold at its own scale.

:func:`prepare` validates the input, factors each matrix once and builds the
shifted pair; a :class:`SylvesterProblem` is that pair plus c.  The decision
and both kernels read the pair and never mark or reorder.  The shared block
is factored by one SVD per pair, ``SylvesterPair.shared_svd``, its rank
judged at the pair's one cutoff, ``SylvesterPair.cutoff``: every decision
projects its right-hand side onto the singular vectors, the kernel reads the
right singular vectors past the rank and the cokernel the left ones.  The
fallback cluster, the whole spectra, is the pair's ``widened``; each cluster,
widened or not, is factored once per pair.  Every a^-1 and b^-1 above is a
triangular solve on its Schur factors (``numerics.schur_solve``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, InversionError, WitnessError
from .gate import DEFAULT_ALPHA, GateReport, sector_evidence, shared_eigenvalues
from .numerics import (as_sylvester_data, complex_schur, frob, identity, kron_vec_operator,
                       lstsq_solve, orthonormal_columns, rank_cutoff, reorder_schur,
                       schur_solve, schur_sylvester, triangular_sylvester, unvec, vec)
from .oracle import ORACLE_MAX_UNKNOWNS, oracle_solve
from .regular import (QUADRATURE_GAP_TOL, companion_solve_quadrature, compute_offset,
                      reduced_rhs)

DEFAULT_TOL = 1e-8

# the witness residuals of the four (u, v) pair identities
PAIR_IDENTITIES = ("av_ub", "au_vb", "u_plus_v", "cubic")


class VerdictStatus(str, enum.Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    ILL_CONDITIONED = "ill_conditioned"


@dataclass(frozen=True)
class SylvesterPair:
    """The pair (a, b), factored and normed once; every c is decided against
    it.  Only :func:`cluster_first` builds one (and ``cokernel`` its swap,
    ``widened`` its whole-spectra cluster)."""

    a: np.ndarray
    b: np.ndarray
    # complex Schur factors (t, q) of a and b, cluster first
    schur_a: tuple
    schur_b: tuple
    norm_a: float  # ||a||_F
    norm_b: float  # ||b||_F
    # (k_a, k_b): the leading k_a and k_b eigenvalues of the factors are
    # shared at the scale norm_a + norm_b
    cluster: tuple
    # the rank rule's cutoff for the nm operator at that scale: the pair's
    # one cutoff, read by the shared block's SVD, the decision, the kernel
    # and the cokernel
    cutoff: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @functools.cached_property
    def shared_svd(self):
        """The SVD (a :class:`~sylvcert.numerics.LstsqResult`) of the shared
        block's operator y |-> a11 y - y b11, rank judged at the pair's
        cutoff; None when the cluster is empty.  The one place a shared block
        is factored: every decision, the kernel and the cokernel apply it.  (A
        frozen dataclass may cache it: the property writes the instance
        ``__dict__``, not an attribute.)"""
        k_a, k_b = self.cluster
        if not (k_a and k_b):
            return None
        (ta, _), (tb, _) = self.schur_a, self.schur_b
        return lstsq_solve(kron_vec_operator(ta[:k_a, :k_a], tb[:k_b, :k_b], -1), self.cutoff)

    @functools.cached_property
    def widened(self) -> SylvesterPair:
        """This pair with the whole spectra as its cluster, or itself when its
        cluster is whole: the fallback of a decision or a kernel whose
        cluster proves too narrow, factored once however many widen."""
        if self.cluster == (self.n, self.m):
            return self
        return SylvesterPair(self.a, self.b, self.schur_a, self.schur_b,
                             self.norm_a, self.norm_b, (self.n, self.m), self.cutoff)

    @functools.cached_property
    def kernel(self) -> tuple:
        """Read-only basis of {x : a x = x b}, taken once per pair by
        :func:`sylvester_kernel`."""
        return sylvester_kernel(self)

    @functools.cached_property
    def cokernel(self) -> tuple:
        """Read-only basis of {y : b y = y a}: the kernel of the swapped
        pair, whose cluster is this one with the sides swapped and whose
        shared block's SVD is read off this pair's (:func:`_swapped`)."""
        k_a, k_b = self.cluster
        swapped = SylvesterPair(self.b, self.a, self.schur_b, self.schur_a,
                                self.norm_b, self.norm_a, (k_b, k_a), self.cutoff)
        # fill the swapped pair's cache, so it takes no SVD of its own
        vars(swapped)["shared_svd"] = _swapped(self.shared_svd, k_a, k_b)
        return sylvester_kernel(swapped)


@dataclass(frozen=True)
class SylvesterProblem(SylvesterPair):
    """A shift-prepared instance: the pair, invertible with spectra inside
    the working sector, and c; the solution set is that of the original
    data.  Each value of c below is taken once per problem, on first use."""

    c: np.ndarray
    gate: GateReport
    alpha: float
    lambda_shift: float
    unshifted: tuple  # the validated (a, b) before the shift

    @functools.cached_property
    def companion(self) -> np.ndarray:
        """The unique solution s of a s + s b = c, by Bartels-Stewart."""
        return schur_sylvester(self.schur_a, self.schur_b, self.c, +1)

    @functools.cached_property
    def reduced(self) -> np.ndarray:
        """a s b^-1, by :func:`~sylvcert.regular.reduced_rhs`."""
        return reduced_rhs(self, self.companion)

    @functools.cached_property
    def offset(self) -> np.ndarray:
        """The offset r = a^-1 s b + a s b^-1, by :func:`~sylvcert.regular.compute_offset`."""
        return compute_offset(self, self.companion, self.reduced)

    @functools.cached_property
    def pair_sum(self) -> np.ndarray:
        """a^-1 c b^-1, the sum u + v of every (u, v) pair."""
        return schur_solve(self.schur_a, schur_solve(self.schur_b, self.c, "right"))


@dataclass
class UVWitness:
    """The certified pair (u, v) plus the derived quantities that make the
    verdict auditable; the companion solution and the offset it was checked
    against are the problem's."""

    u: np.ndarray
    v: np.ndarray
    q: np.ndarray                  # v - u
    residuals: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)  # same keys as residuals
    uv_norm: float = 0.0


@dataclass
class UVSystemReport:
    """Outcome of :func:`decide_sylvester` for a u - u b = rhs; for the (u, v)
    system, ``witness`` is the completed pair."""

    u: np.ndarray  # the least-squares answer, in the original coordinates
    lstsq_residual: float
    threshold: float
    marginal: bool  # residual within 10x of the threshold: too close to call
    near_cutoff: bool = False  # the rank decision itself sat near the cutoff
    cluster_sizes: tuple = (0, 0)  # (k_a, k_b): eigenvalues in the shared block
    witness: UVWitness | None = None


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
    checks: dict = field(default_factory=dict)


def check_entry(status: str, residual: float | None = None,
                threshold: float | None = None) -> dict:
    """One ``checks`` entry: ``pass``, ``fail`` or ``skipped``, with the
    residual and the threshold that decided it; a ``note`` may follow."""
    entry = {"status": status}
    entry["residual"] = None if residual is None else float(residual)
    entry["threshold"] = None if threshold is None else float(threshold)
    return entry


def _within(residual: float, threshold: float) -> bool:
    # fail closed: a non-finite residual or threshold bounds nothing
    return math.isfinite(residual) and math.isfinite(threshold) and residual <= threshold


def _bounded_check(residual: float, threshold: float) -> dict:
    return check_entry("pass" if _within(residual, threshold) else "fail", residual, threshold)


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
    The gate's intersection is the cluster of the shifted pair, which
    :func:`cluster_first` builds once from each matrix's one factorization;
    every inverse of a or b is a solve on these factors."""
    a0, b0, c = as_sylvester_data(a, b, c)
    ta, qa = complex_schur(a0)
    tb, qb = complex_schur(b0)
    in_sector_a, in_sector_b, lam = sector_evidence(ta.diagonal(), tb.diagonal(), alpha)
    id_a, id_b = identity(a0.shape[0]), identity(b0.shape[0])
    pair, tolerance = cluster_first(a0 + lam * id_a, b0 + lam * id_b,
                                    (ta + lam * id_a, qa), (tb + lam * id_b, qb))
    gate = GateReport(in_sector_a=in_sector_a, in_sector_b=in_sector_b,
                      spectra_intersect=pair.cluster[0] > 0,
                      intersection_tolerance=float(tolerance))
    return SylvesterProblem(**vars(pair), c=c, gate=gate, alpha=alpha, lambda_shift=lam,
                            unshifted=(a0, b0))


def unipotent_identity_residual(q, p: SylvesterProblem, tol: float = DEFAULT_TOL) -> tuple:
    """Residual of the reduced unipotent identity q b - a q = r for the
    problem's offset r, and the threshold it is judged against."""
    offset = p.offset
    residual = frob(q @ p.b - p.a @ q - offset)
    threshold = tol * (frob(offset) + (p.norm_a + p.norm_b) * frob(q) + 1e-300)
    return residual, threshold


def _witness_from_u(p: SylvesterProblem, u: np.ndarray, tol: float,
                    decision_threshold: float) -> UVWitness:
    """Complete u to the pair (u, v = a^-1 c b^-1 - u) and record every pair
    identity's residual with its threshold.

    With this v, u_plus_v holds by construction and av_ub is the reduced
    equation's own residual, so it is judged against the threshold the
    decision applied; au_vb, cubic and unipotent_identity are independent.
    """
    a, b, companion, offset, pair_sum = p.a, p.b, p.companion, p.offset, p.pair_sum
    v = pair_sum - u
    q = v - u
    na, nb, nu, nv = p.norm_a, p.norm_b, frob(u), frob(v)
    # a residual that overflows is non-finite and fails its check; numpy
    # need not warn about it on stderr.  Each cubic term multiplies onto the
    # pair from the inside out, so no power of a is formed that could
    # overflow before it meets a zero v
    with np.errstate(over="ignore", invalid="ignore"):
        av, ub, au, vb = a @ v, u @ b, a @ u, v @ b
        aav, ubb, aub = a @ av, ub @ b, au @ b
        residuals = {
            "av_ub": frob(av + ub - companion),
            "au_vb": frob(au + vb - (companion + offset)),
            "u_plus_v": frob(u + v - pair_sum),
            "cubic": frob(a @ aav + aav @ b + ubb @ b + aub @ b),
        }
    # each identity at the scale of its own terms; the cube as float
    # products, so an overflow reads inf (not OverflowError) and fails its
    # check, while a zero pair keeps a zero threshold
    data_scale = na + nb
    thresholds = {
        "av_ub": decision_threshold,
        "au_vb": tol * (na * nu + nv * nb + frob(companion) + frob(offset)),
        "u_plus_v": tol * (nu + nv + frob(pair_sum)),
        "cubic": tol * (nu + nv) * data_scale * data_scale * data_scale,
    }
    residuals["unipotent_identity"], thresholds["unipotent_identity"] = \
        unipotent_identity_residual(q, p, tol)
    return UVWitness(u=u, v=v, q=q, residuals=residuals, thresholds=thresholds,
                     uv_norm=float(np.sqrt(nu ** 2 + nv ** 2)))


def _amplifies(y, rhs, cutoff: float) -> bool:
    # a regular block's gain of 0.1 / cutoff or more is as fragile as a
    # near-cutoff singular value: the block belongs to the cluster
    return frob(y) > 0.1 / cutoff * frob(rhs)


def _regular_block(ta, tb, rhs, cutoff: float) -> np.ndarray | None:
    """Solution y of ta y - y tb = rhs for spectra outside the shared
    cluster, or None when the solve amplifies rhs by 0.1 / ``cutoff`` or
    more."""
    try:
        y = triangular_sylvester(ta, tb, rhs, -1)
    except InversionError:
        return None
    return None if _amplifies(y, rhs, cutoff) else y


def cluster_first(a, b, schur_a, schur_b) -> tuple:
    """The :class:`SylvesterPair` of a and b, with their complex Schur
    factors (t, q), and the cluster tolerance.  The one place the shared
    cluster is marked: the factors are reordered so the eigenvalues that
    :func:`~sylvcert.gate.shared_eigenvalues` marks at the scale
    ||a|| + ||b|| lead."""
    (ta, qa), (tb, qb) = schur_a, schur_b
    norm_a, norm_b = frob(a), frob(b)
    scale = norm_a + norm_b
    select_a, select_b, tolerance = shared_eigenvalues(ta.diagonal(), tb.diagonal(), scale)
    nm = a.shape[0] * b.shape[0]
    pair = SylvesterPair(a, b, reorder_schur(ta, qa, select_a), reorder_schur(tb, qb, select_b),
                         norm_a, norm_b, (int(select_a.sum()), int(select_b.sum())),
                         rank_cutoff((nm, nm), scale))
    return pair, tolerance


def _swapped(svd, k_a: int, k_b: int):
    """The SVD of z |-> b11 z - z a11 (z k_b x k_a) read off ``svd``, that of
    K: y |-> a11 y - y b11 (y k_a x k_b).  With the perfect shuffle P,
    P vec(y) = vec(y^T), the swapped operator is -P K^T P^T, so its factors
    are U' = -P Vh^T and Vh' = U^T P^T with the same singular values, rank
    and ``near_cutoff``; its null space is P conj(U) past the rank."""
    if svd is None:
        return None

    def shuffle(rows):
        # P applied to the rows, indexed by vec of a k_a x k_b matrix
        return rows.reshape(k_b, k_a, -1).transpose(1, 0, 2).reshape(k_a * k_b, -1)

    return replace(svd, U=-shuffle(svd.Vh.T), Vh=shuffle(svd.U).T)


def _schur_reduced_solve(pair: SylvesterPair, r):
    """Solve ta y - y tb = r blockwise, on the pair's Schur factors ta, tb
    whose leading k_a and k_b eigenvalues are the pair's cluster.

    Block row 2, [y21 y22], pairs the unshared eigenvalues of a, each
    farther than the cluster tolerance from every eigenvalue of b, with all
    of tb, and is solved by one trsyl; then the shared block (1,1), the only
    one decided by rank-revealing least squares with the rank rule of the
    full nm operator, on the pair's ``shared_svd``; then block (1,2) by
    trsyl.  Returns y, or None when a regular block amplifies its
    right-hand side past the pair's cutoff.  Blocks (2,1) and (2,2) are
    tested apart, so a gain in one cannot hide behind the other's
    right-hand side.
    """
    (ta, _), (tb, _) = pair.schur_a, pair.schur_b
    (k_a, k_b), n, m, cutoff = pair.cluster, pair.n, pair.m, pair.cutoff
    a11, a12 = ta[:k_a, :k_a], ta[:k_a, k_a:]
    b12, b22 = tb[:k_b, k_b:], tb[k_b:, k_b:]
    try:
        y2 = triangular_sylvester(ta[k_a:, k_a:], tb, r[k_a:], -1)
    except InversionError:
        return None
    # tb is triangular, so the first k_b columns of y2 are block (2,1)'s own
    # solution, and the others solve a22 y22 - y22 b22 = r22 + y21 b12
    y21 = y2[:, :k_b]
    if (_amplifies(y21, r[k_a:, :k_b], cutoff)
            or _amplifies(y2[:, k_b:], r[k_a:, k_b:] + y21 @ b12, cutoff)):
        return None
    y = np.zeros((n, m), dtype=np.complex128)
    y[k_a:] = y2
    shared = pair.shared_svd
    if shared is not None:
        y[:k_a, :k_b] = unvec(shared.minimum_norm(vec(r[:k_a, :k_b] - a12 @ y2[:, :k_b])),
                              k_a, k_b)
    y12 = _regular_block(a11, b22, r[:k_a, k_b:] - a12 @ y2[:, k_b:] + y[:k_a, :k_b] @ b12,
                         cutoff)
    if y12 is None:
        return None
    y[:k_a, k_b:] = y12
    return y


def decide_sylvester(pair: SylvesterPair, rhs, tol: float = DEFAULT_TOL) -> UVSystemReport:
    """Decide the possibly singular equation a u - u b = rhs, for one n x m
    right-hand side, against the pair's cluster-first factors.

    Only the k_a x k_b shared block is decided by minimum-norm least
    squares (rank judged as for the full nm operator at the scale
    ||a|| + ||b||), everything else by Bartels-Stewart.  If a regular block
    amplifies its right-hand side past the rank cutoff, or a nonzero u comes
    out so large that u = 0 would pass the threshold too, the cluster widens
    to all of both spectra and the same code decides the whole equation.
    The residual is then taken on the full u in the original coordinates
    against tol * (||rhs|| + (||a|| + ||b||) ||u||), relative to the data,
    so scaling rhs alone cannot move the decision; residuals within a factor
    10 of it are flagged marginal rather than forced into a binary answer.
    """
    (_, qa), (_, qb) = pair.schur_a, pair.schur_b
    n, m, data_scale = pair.n, pair.m, pair.norm_a + pair.norm_b
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.shape != (n, m):
        raise DimensionError(f"rhs must be {n}x{m}, got shape {rhs.shape}")
    r = qa.conj().T @ rhs @ qb
    rhs_norm = frob(rhs)
    # the whole spectra form the fallback cluster, where every block is
    # shared and the decision always stands
    for pair in (pair, pair.widened):
        y = _schur_reduced_solve(pair, r)
        if y is not None:
            u = qa @ y @ qb.conj().T
            u_norm = frob(u)
            # a u so large that u = 0 would pass the threshold too decides
            # nothing; u = 0 at rhs = 0 decides
            if pair.cluster == (n, m) or not tol * data_scale * u_norm > rhs_norm:
                break
    residual = frob(pair.a @ u - u @ pair.b - rhs)
    threshold = tol * (rhs_norm + data_scale * u_norm)
    shared = pair.shared_svd
    return UVSystemReport(
        u=u, lstsq_residual=residual, threshold=threshold,
        marginal=threshold < residual <= 10.0 * threshold,
        near_cutoff=shared is not None and shared.near_cutoff,
        cluster_sizes=pair.cluster)


def sylvester_kernel(pair: SylvesterPair) -> tuple:
    """Orthonormal basis of {x : a x = x b}, in a deterministic order, each
    element's phase fixed, as read-only arrays.  It is read off the
    decision's shared block at rhs = 0: each null vector z of the shared
    block, a right singular vector of the pair's SVD past the rank, extends
    by one trsyl through a11 y12 - y12 b22 = z b12, the other blocks are
    zero, and an extension that blows up widens the cluster to the whole
    spectra."""
    (ta, qa), (tb, qb) = pair.schur_a, pair.schur_b
    for pair in (pair, pair.widened):
        # at rhs = 0 the regular blocks of the decision are zero, so only
        # the shared block's null vectors need solving for
        (k_a, k_b), shared = pair.cluster, pair.shared_svd
        heads = [] if shared is None else [unvec(z, k_a, k_b) for z in shared.null_space.T]
        tails = [_regular_block(ta[:k_a, :k_a], tb[k_b:, k_b:], y11 @ tb[:k_b, k_b:],
                                pair.cutoff) for y11 in heads]
        if all(y12 is not None for y12 in tails):
            break
    if not heads:
        return ()
    # only the leading k_a rows are nonzero; orthonormal in Schur coordinates
    # stays orthonormal under the unitary qa, qb
    q = orthonormal_columns(np.column_stack([vec(np.hstack(blocks))
                                             for blocks in zip(heads, tails)]))
    qa_k, qb_h = qa[:, :k_a], qb.conj().T
    basis = tuple(_phase_fix(qa_k @ unvec(v, k_a, pair.m) @ qb_h) for v in q.T)
    for x in basis:
        x.flags.writeable = False
    return basis


def _phase_fix(x: np.ndarray) -> np.ndarray:
    """x times the unit scalar that makes its first entry of non-negligible
    modulus, in column-stacking order, real and positive."""
    v = vec(x)
    norm = frob(v)
    if norm == 0:
        return x
    pivot = v[np.argmax(np.abs(v) > 1e-12 * norm)]
    if pivot == 0:
        return x
    return x * (abs(pivot) / pivot)


def solve_uv_report(p: SylvesterProblem, tol: float = DEFAULT_TOL) -> UVSystemReport:
    """Decide the (u, v) system through its reduced form a u - u b = a s b^-1
    (substitute v = a^-1 c b^-1 - u into a v + u b = s) with
    :func:`decide_sylvester`; a consistent decision is completed to the
    witness pair (u, v)."""
    report = decide_sylvester(p, p.reduced, tol)
    if report.lstsq_residual <= report.threshold:
        report.witness = _witness_from_u(p, report.u, tol, report.threshold)
    return report


def solution_from_u(p: SylvesterProblem, u) -> np.ndarray:
    """The solution formula in u, x = a^-1 u b^2 + u b, on the prepared
    problem's a, b and the Schur factors of a."""
    ub = u @ p.b
    return schur_solve(p.schur_a, ub @ p.b) + ub


def particular_solution(w: UVWitness, p: SylvesterProblem,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate both closed-form solution expressions from the witness and
    require them to agree; :func:`diagnose` judges the solution against the
    equation.

    The gap between the two expressions and its threshold are recorded in
    the witness under ``solution_formula_gap``.
    """
    a = p.a
    x_u = solution_from_u(p, w.u)
    x_v = -(schur_solve(p.schur_b, a @ a @ w.v, "right") + a @ w.v)
    # a norm that overflows is non-finite and fails the gate; numpy need
    # not warn about it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        gap = frob(x_u - x_v)
        gap_threshold = tol * (frob(x_u) + frob(x_v))
    w.residuals["solution_formula_gap"] = gap
    w.thresholds["solution_formula_gap"] = gap_threshold
    if not _within(gap, gap_threshold):
        raise WitnessError(
            f"solution formulas disagree ({gap:.3g} > {gap_threshold:.3g}); "
            "the witness does not certify solvability", gate="solution_formula_gap")
    return x_u


def _decision(p: SylvesterProblem, tol: float) -> tuple:
    """The decision stage, (report, x, gate): the (u, v) system's report
    (None when a solve broke down before it was made; at c = 0, u = v = 0
    and no cluster decided), the particular solution x of a consistent
    system, and the gate that refused a binary answer."""
    report = None
    try:
        if not p.c.any():
            x = np.zeros((p.n, p.m), dtype=np.complex128)
            witness = _witness_from_u(p, x, tol, 0.0)
            witness.residuals["solution_formula_gap"] = 0.0
            witness.thresholds["solution_formula_gap"] = 0.0
            return UVSystemReport(x, 0.0, tol, False, cluster_sizes=None, witness=witness), x, None
        report = solve_uv_report(p, tol)
        # a fragile rank decision makes neither answer trustworthy; a
        # residual just above the threshold, or a residual or threshold that
        # over- or underflowed, makes "no witness" untrustworthy
        bounded = math.isfinite(report.lstsq_residual) and math.isfinite(report.threshold)
        gate = "near_cutoff" if report.near_cutoff else "marginal_residual" if report.marginal \
            else "scale" if report.witness is None and not bounded else None
        if report.witness is None or gate is not None:
            return report, None, gate
        return report, particular_solution(report.witness, p, tol), None
    except WitnessError as exc:
        return report, None, exc.gate
    except (InversionError, ArithmeticError):
        # a solve that breaks down, or a cutoff that underflowed to zero, at
        # the data's magnitude (ROADMAP item 1); a decision already made keeps
        # its evidence
        return report, None, "scale"


def _certificate(p: SylvesterProblem, x, tol: float) -> tuple:
    """The certificate stage: the residual of x on the original, unshifted
    data (the shift leaves a x - x b unchanged) and its threshold."""
    (a0, b0), c0 = p.unshifted, p.c
    # a norm that overflows is non-finite and fails the certificate; numpy
    # need not warn about it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        return (frob(a0 @ x - x @ b0 - c0),
                tol * ((frob(a0) + frob(b0)) * frob(x) + frob(c0) + 1e-300))


def _solution_checks(system: tuple, witness, certificate) -> dict:
    """The answer's entries: ``system_consistency`` on the decision's
    (residual, threshold), then the solution's three.  ``witness`` is set
    exactly when the verdict is solvable; otherwise the solution's entries
    read ``skipped``, but a certificate that refused x keeps its evidence."""
    if witness is None:
        return {"system_consistency": check_entry("fail", *system),
                "solution_certificate": check_entry("skipped") if certificate is None
                else check_entry("fail", *certificate),
                "solution_formulas_agree": check_entry("skipped"),
                "identity_cascade": check_entry("skipped")}
    residuals, thresholds = witness.residuals, witness.thresholds
    # the pair identity farthest from holding, each against its own
    # threshold; a NaN ratio ranks worst, so it cannot hide behind the others
    ratios = {key: residuals[key] / max(thresholds[key], 1e-300) for key in PAIR_IDENTITIES}
    worst = max(ratios, key=lambda key: math.inf if math.isnan(ratios[key]) else ratios[key])
    return {"system_consistency": check_entry("pass", *system),
            "solution_certificate": check_entry("pass", *certificate),
            "solution_formulas_agree": _bounded_check(residuals["solution_formula_gap"],
                                                      thresholds["solution_formula_gap"]),
            "identity_cascade": _bounded_check(residuals[worst], thresholds[worst])}


def _oracle_check(p: SylvesterProblem, status, gate, tol: float) -> dict:
    """The oracle stage: the dense Kronecker oracle on the original data,
    ``pass`` when it agrees with ``status``; ``skipped`` above its cap or on
    a verdict refused at ``gate``."""
    unknowns = p.n * p.m
    if unknowns > ORACLE_MAX_UNKNOWNS:
        # the dense oracle needs (nm)^2 memory; above its cap it is not run
        return _skipped(
            f"{unknowns} unknowns exceed the dense oracle's cap of {ORACLE_MAX_UNKNOWNS}")
    if status is VerdictStatus.ILL_CONDITIONED:
        return skipped_on_refusal(gate)
    reference = oracle_solve(*p.unshifted, p.c, tol=tol)
    agrees = reference.consistent == (status is VerdictStatus.SOLVABLE)
    return check_entry("pass" if agrees else "fail", reference.residual, reference.threshold)


def _quadrature_check(p: SylvesterProblem, gate) -> dict:
    """The quadrature stage: the companion solution against its integral
    representation; ``skipped`` at gate ``scale`` or at c = 0."""
    if gate == "scale":
        return _skipped("the verdict is ill_conditioned (gate scale): no quadrature was run")
    if not p.c.any():
        return _skipped("c = 0, so the companion solution is zero; no quadrature was run")
    quad = companion_solve_quadrature(p.a, p.b, p.c).solution
    gap = frob(p.companion - quad) / max(frob(p.companion), 1e-300)
    return _bounded_check(gap, QUADRATURE_GAP_TOL)


def diagnose(a, b, c, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
             with_oracle: bool = False, with_quadrature: bool = False) -> Verdict:
    """Full decision pipeline, in named stages: :func:`prepare`, then
    ``_decision`` (decide the (u, v) system, synthesize the particular
    solution), ``_certificate`` (judge it on the original data),
    ``_solution_checks``, and on request ``_oracle_check`` (the Kronecker
    oracle) and ``_quadrature_check`` (the integral representation of the
    companion solution).  Each stage builds its own ``checks`` entries, and
    the decision names the gate that refused a binary answer, if any.

    The certificate residual is evaluated once, against the original,
    unshifted data (the shift leaves a x - x b unchanged); a solution that
    fails it is refused at gate ``solution_certificate``, whose check then
    reads ``fail`` with that residual and threshold.  A magnitude the
    decision cannot resolve, a non-finite residual or threshold behind "no
    witness" or a solve that breaks down, is refused at gate ``scale``.
    ``unipotent_bridge`` reads ``skipped`` here, and
    :func:`~sylvcert.roots.unipotent_bridge_check` builds it on request.
    """
    p = prepare(a, b, c, alpha=alpha)
    report, x, gate = _decision(p, tol)
    certificate = None if x is None else _certificate(p, x, tol)
    if certificate is not None and not _within(*certificate):
        x, gate = None, "solution_certificate"
    solvable = x is not None
    status = VerdictStatus.SOLVABLE if solvable else \
        VerdictStatus.UNSOLVABLE if gate is None else VerdictStatus.ILL_CONDITIONED
    system = (math.nan, math.nan) if report is None else (report.lstsq_residual, report.threshold)
    witness = report.witness if solvable else None
    checks = _solution_checks(system, witness, certificate)
    checks["oracle_cross_check"] = _oracle_check(p, status, gate, tol) if with_oracle \
        else check_entry("skipped")
    checks["integral_representation"] = _quadrature_check(p, gate) if with_quadrature \
        else check_entry("skipped")
    checks["unipotent_bridge"] = check_entry("skipped")
    oracle = checks["oracle_cross_check"]["status"]
    certificate = system if certificate is None else certificate
    return Verdict(status=status, witness=witness, solution=x,
                   certificate_residual=certificate[0], certificate_threshold=certificate[1],
                   system_residual=system[0], system_threshold=system[1],
                   oracle_agreement=None if oracle == "skipped" else oracle == "pass",
                   problem=p, solution_norm=frob(x) if solvable else None,
                   ill_conditioned_gate=gate,
                   cluster_sizes=None if report is None else report.cluster_sizes,
                   checks=checks)
