"""Regular companion equations.

For spectra in the open right half-plane the map x |-> a x + x b is
invertible, so the companion equation a x + x b = c has exactly one
solution.  That solution
also equals the absolutely convergent integral of exp(-t a) c exp(-t b) over
t in [0, inf), which the quadrature routine realizes as an independent
validation path.  The generalized transform a^2 x + a x b + x b^2 is regular
once both spectra sit inside the sector of half-angle pi/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GateError, PreconditionError
from .gate import sector_contains
from .numerics import (as_complex_matrix, complex_schur, eigenvalues, frob, mat_exp,
                       require_square, schur_sylvester, solve_left, solve_right,
                       triangular_sylvester)

QUADRATURE_NODES_PER_PANEL = 32
MAX_PANELS = 256
# largest relative gap between the quadrature and the direct companion
# solution that still validates the integral representation
QUADRATURE_GAP_TOL = 1e-8


@dataclass(frozen=True)
class RegularSolveResult:
    """Solution of a x + x b = c with its residual evidence."""

    solution: np.ndarray
    method: str  # "direct" or "quadrature"
    residual: float
    truncation_T: float | None = None
    nodes_used: int | None = None


def _validate_triple(a, b, c):
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    c = as_complex_matrix(c, "c")
    if c.shape != (a.shape[0], b.shape[0]):
        raise PreconditionError(
            f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}")
    return a, b, c


def companion_solve_direct(a, b, c) -> RegularSolveResult:
    """Unique solution of a x + x b = c by Bartels-Stewart on the complex
    Schur forms of a and b, O(n^3 + m^3).

    Both spectra must lie in the open right half-plane (checked on the Schur
    diagonals); callers holding Schur factors use ``schur_sylvester``.
    """
    a, b, c = _validate_triple(a, b, c)
    schur_a, schur_b = complex_schur(a), complex_schur(b)
    delta = min(eigenvalues(schur_a[0]).min_real_part, eigenvalues(schur_b[0]).min_real_part)
    if delta <= 0:
        raise GateError(
            f"spectra must lie in the open right half-plane (min real part {delta:.3g})")
    x = schur_sylvester(schur_a, schur_b, c, +1)
    residual = frob(a @ x + x @ b - c)
    return RegularSolveResult(solution=x, method="direct", residual=residual)


def _decay_constant(m: np.ndarray, delta: float) -> float:
    # bound ||exp(-t m)|| <= C exp(-t delta) with C fitted on a few samples,
    # taken in units of the decay time 1/delta so the fit is scale-free
    samples = [1.0]
    for tau in (1.0, 2.0, 4.0):
        t = tau / delta
        samples.append(frob(mat_exp(-t * m)) * math.exp(tau))
    return max(samples)


def _gauss_legendre_panel(f, lo: float, hi: float, nodes, weights):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = None
    for xi, wi in zip(nodes, weights):
        value = f(mid + half * xi)
        total = wi * value if total is None else total + wi * value
    return half * total


def companion_solve_quadrature(a, b, c, tol: float = 1e-10) -> RegularSolveResult:
    """Companion solution computed from the truncated matrix-exponential
    integral, as a validation of the representation (not the production path).

    The truncation point T comes from the sampled decay bound
    ||exp(-t a) c exp(-t b)|| <= C_a C_b ||c|| exp(-(delta_a + delta_b) t);
    panels are refined dyadically until two successive composite
    Gauss-Legendre estimates agree within tol/2.
    """
    a, b, c = _validate_triple(a, b, c)
    delta_a = eigenvalues(a).min_real_part
    delta_b = eigenvalues(b).min_real_part
    if min(delta_a, delta_b) <= 0:
        raise PreconditionError(
            "quadrature requires strictly positive minimal real parts, "
            f"got ({delta_a:.3g}, {delta_b:.3g})")
    if not np.any(c):
        return RegularSolveResult(solution=np.zeros_like(c), method="quadrature",
                                  residual=0.0, truncation_T=0.0, nodes_used=0)
    delta = delta_a + delta_b
    c_const = _decay_constant(a, delta_a) * _decay_constant(b, delta_b) * frob(c)
    target = tol * max(frob(c), 1.0)
    # make both the tail integral and the integrand at T fall below target/2
    t_tail = math.log(2.0 * c_const / (target * delta)) / delta
    t_interval = math.log(2.0 * c_const / target) / delta
    T = max(t_tail, t_interval, 1.0 / delta)

    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES_PER_PANEL)

    def integrand(t: float) -> np.ndarray:
        return mat_exp(-t * a) @ c @ mat_exp(-t * b)

    def composite(panels: int) -> np.ndarray:
        edges = np.linspace(0.0, T, panels + 1)
        total = np.zeros_like(c)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total = total + _gauss_legendre_panel(integrand, lo, hi, nodes, weights)
        return total

    panels = 1
    previous = composite(panels)
    while panels <= MAX_PANELS:
        panels *= 2
        current = composite(panels)
        if frob(current - previous) <= target / 2:
            residual = frob(a @ current + current @ b - c)
            return RegularSolveResult(solution=current, method="quadrature", residual=residual,
                                      truncation_T=T,
                                      nodes_used=panels * QUADRATURE_NODES_PER_PANEL)
        previous = current
    raise ConvergenceError(
        f"quadrature did not reach tolerance {tol:g} within {MAX_PANELS} panels")


def compute_offset(a, b, companion) -> np.ndarray:
    """The derived quantity a^-1 s b + a s b^-1 for the companion solution s
    (the right-hand-side offset of the swapped pair equation)."""
    a, b, companion = _validate_triple(a, b, companion)
    return solve_left(a, companion @ b) + solve_right(a @ companion, b)


def solve_generalized_regular(a, b, rhs) -> np.ndarray:
    """Unique solution of a^2 x + a x b + x b^2 = rhs.

    Requires both spectra inside the sector of half-angle pi/3, where the
    transform is regular.  With w = exp(2 pi i / 3) the transform factors as
    x |-> (a y - w y b) after y = a x - conj(w) x b, two regular Sylvester
    maps solved by Bartels-Stewart on one pair of Schur forms.
    """
    a, b, rhs = _validate_triple(a, b, rhs)
    ta, qa = complex_schur(a)
    tb, qb = complex_schur(b)
    if not (sector_contains(eigenvalues(ta), math.pi / 3)
            and sector_contains(eigenvalues(tb), math.pi / 3)):
        raise GateError("generalized transform needs both spectra inside the pi/3 sector")
    w = np.exp(2j * math.pi / 3)
    y = triangular_sylvester(ta, -w * tb, qa.conj().T @ rhs @ qb, +1)
    x = triangular_sylvester(ta, -np.conj(w) * tb, y, +1)
    return qa @ x @ qb.conj().T
