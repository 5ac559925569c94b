"""Sector membership, shift selection, and the one rule for where two
spectra meet.

The open sector of half-angle ``alpha`` is ``{z != 0 : |arg z| < alpha}``
with ``alpha`` in (0, pi/2); the union over all alpha is the open right
half-plane.  Replacing (a, b) by (a + lambda, b + lambda) leaves the solution
set of a x - x b = c untouched, so a nonnegative shift may always be used to
push both spectra into a requested sector.
The gate's ``spectra_intersect``, the decision's shared block and the
homogeneous kernel all read :func:`shared_eigenvalues`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEFAULT_ALPHA = math.pi / 4
DEFAULT_MARGIN = 0.05

# eigenvalues of a and b closer than this times ||a|| + ||b|| are shared: a
# size-k Jordan block splits by about eps^(1/k), so eps^(1/4) keeps defective
# clusters up to size 4 whole
CLUSTER_TOLERANCE_FACTOR = float(np.finfo(float).eps) ** 0.25


@dataclass(frozen=True)
class GateReport:
    """Pre-shift sector membership and whether the shifted spectra meet."""

    in_sector_a: bool
    in_sector_b: bool
    spectra_intersect: bool
    intersection_tolerance: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.pi / 2:
        raise ParameterError(f"alpha must lie in (0, pi/2), got {alpha}")


def _spectrum_values(spectrum) -> np.ndarray:
    return np.atleast_1d(np.asarray(spectrum, dtype=np.complex128))


def sector_contains(spectrum, alpha: float) -> bool:
    """True iff every eigenvalue z satisfies z != 0 and |arg z| < alpha."""
    _check_alpha(alpha)
    values = _spectrum_values(spectrum)
    return bool(np.all((values != 0) & (np.abs(np.angle(values)) < alpha)))


def shared_eigenvalues(sa, sb, scale: float) -> tuple:
    """Masks of the eigenvalues of each spectrum that lie within the cluster
    tolerance ``CLUSTER_TOLERANCE_FACTOR * scale`` of the other spectrum,
    with that tolerance; ``scale`` is ||a|| + ||b||."""
    tolerance = CLUSTER_TOLERANCE_FACTOR * scale
    gaps = np.abs(_spectrum_values(sa)[:, None] - _spectrum_values(sb)[None, :])
    return gaps.min(axis=1) <= tolerance, gaps.min(axis=0) <= tolerance, tolerance


def _shift_admissible(values: np.ndarray, lam: float, alpha: float,
                      margin: float, floor: float) -> bool:
    # sin of the angular gap to the sector boundary at least margin, modulus
    # at least floor (which excludes z + lam = 0)
    shifted = values + lam
    gaps = alpha - np.abs(np.angle(shifted))
    return bool(np.all((np.abs(shifted) >= floor) & (np.sin(gaps) >= margin)))


def _decimal(count: int, exponent: int) -> float:
    # the float nearest count * 10^exponent: int-to-float conversion and int
    # true division round once, so the value prints back as its digits
    return float(count * 10 ** exponent) if exponent >= 0 else count / 10 ** -exponent


def choose_shift(sa, sb, alpha: float) -> float:
    """Smallest three-significant-digit shift placing both spectra inside
    the sector.

    Membership is demanded with an angular margin (sin of the gap to the
    boundary at least ``DEFAULT_MARGIN``) and a modulus floor of that margin
    times the pre-shift spectral scale, so the shifted matrices stay
    comfortably invertible.  Per eigenvalue z each condition holds exactly on
    a half-line of shifts:

        |arg(z + lambda)| <= alpha - asin(margin)  iff
            lambda >= |Im z| / tan(alpha - asin(margin)) - Re z,
        |z + lambda| >= floor  iff
            lambda >= sqrt(max(floor^2 - (Im z)^2, 0)) - Re z;

    the shift is the largest of these bounds rounded up to three significant
    digits, then checked; lambda = 0 is returned when the spectra already
    qualify.
    """
    _check_alpha(alpha)
    values = np.concatenate([_spectrum_values(sa), _spectrum_values(sb)])
    margin = min(DEFAULT_MARGIN, 0.99 * math.sin(alpha))
    radius = float(np.max(np.abs(values))) if values.size else 0.0
    floor = margin * (radius if radius > 0 else 1.0)
    if _shift_admissible(values, 0.0, alpha, margin, floor):
        return 0.0

    sector = np.abs(values.imag) / math.tan(alpha - math.asin(margin)) - values.real
    modulus = np.sqrt(np.maximum(floor ** 2 - values.imag ** 2, 0.0)) - values.real
    # a bound at or below 0 here is rounding at the boundary of a spectrum
    # that narrowly fails at lambda = 0
    bound = max(float(sector.max()), float(modulus.max()), 1e-3 * floor)
    exponent = math.floor(math.log10(bound)) - 2
    # start one quantum low, so rounding in the bound cannot cost a quantum
    count = math.ceil(bound / 10.0 ** exponent) - 1
    while not _shift_admissible(values, _decimal(count, exponent), alpha, margin, floor):
        count += 1
    return _decimal(count, exponent)
