"""Regular companion equations.

For spectra in the open right half-plane the map x |-> a x + x b is
invertible, so the companion equation a x + x b = c has exactly one
solution.  The decision takes it by one Bartels-Stewart step on the
problem's own Schur factors (``numerics.schur_sylvester``).  That solution
also equals the absolutely convergent integral of exp(-t a) c exp(-t b) over
t in [0, inf), which the quadrature routine realizes as an independent
validation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .numerics import as_sylvester_data, complex_schur, frob, mat_exp, schur_solve

QUADRATURE_NODES_PER_PANEL = 32
MAX_PANELS = 256
# largest relative gap between the quadrature and the direct companion
# solution that still validates the integral representation
QUADRATURE_GAP_TOL = 1e-8


@dataclass(frozen=True)
class RegularSolveResult:
    """Solution of a x + x b = c with its residual evidence."""

    solution: np.ndarray
    residual: float
    truncation_T: float | None = None
    nodes_used: int | None = None


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
    a, b, c = as_sylvester_data(a, b, c)
    delta_a = float(complex_schur(a)[0].diagonal().real.min())
    delta_b = float(complex_schur(b)[0].diagonal().real.min())
    if min(delta_a, delta_b) <= 0:
        raise PreconditionError(
            "quadrature requires strictly positive minimal real parts, "
            f"got ({delta_a:.3g}, {delta_b:.3g})")
    if not np.any(c):
        return RegularSolveResult(solution=np.zeros_like(c), residual=0.0,
                                  truncation_T=0.0, nodes_used=0)
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
            return RegularSolveResult(solution=current, residual=residual,
                                      truncation_T=T,
                                      nodes_used=panels * QUADRATURE_NODES_PER_PANEL)
        previous = current
    raise ConvergenceError(
        f"quadrature did not reach tolerance {tol:g} within {MAX_PANELS} panels")


def reduced_rhs(p, companion) -> np.ndarray:
    """a s b^-1 for the companion solution s of the prepared problem p: the
    right-hand side of the reduced equation a u - u b = a s b^-1, by a solve
    on the Schur factors of b."""
    return schur_solve(p.schur_b, p.a @ companion, "right")


def compute_offset(p, companion, rhs) -> np.ndarray:
    """The derived quantity a^-1 s b + a s b^-1 for the companion solution s
    of the prepared problem p (the right-hand-side offset of the swapped pair
    equation), given its second term ``rhs`` = :func:`reduced_rhs`; the first
    is a solve on the Schur factors of a."""
    return schur_solve(p.schur_a, companion @ p.b) + rhs

