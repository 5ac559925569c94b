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
from .numerics import SpectrumReport

DEFAULT_ALPHA = math.pi / 4
DEFAULT_MARGIN = 0.05

# eigenvalues of a and b closer than this times ||a|| + ||b|| are shared: a
# size-k Jordan block splits by about eps^(1/k), so eps^(1/4) keeps defective
# clusters up to size 4 whole
CLUSTER_TOLERANCE_FACTOR = float(np.finfo(float).eps) ** 0.25


@dataclass(frozen=True)
class GateReport:
    """Pre-shift sector membership, the shift, and whether the shifted spectra meet."""

    in_sector_a: bool
    in_sector_b: bool
    spectra_intersect: bool
    intersection_tolerance: float
    suggested_lambda: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.pi / 2:
        raise ParameterError(f"alpha must lie in (0, pi/2), got {alpha}")


def _spectrum_values(spectrum) -> np.ndarray:
    if isinstance(spectrum, SpectrumReport):
        return spectrum.eigenvalues
    return np.atleast_1d(np.asarray(spectrum, dtype=np.complex128))


def sector_margin(z: complex, alpha: float) -> float:
    """sin of the angular gap between z and the sector boundary.

    Positive inside the sector, negative outside; -1 for z = 0.
    """
    if z == 0:
        return -1.0
    gap = alpha - abs(np.angle(z))
    return math.sin(min(max(gap, -math.pi / 2), math.pi / 2))


def sector_contains(spectrum, alpha: float) -> bool:
    """True iff every eigenvalue z satisfies z != 0 and |arg z| < alpha."""
    _check_alpha(alpha)
    # sector_margin is -1 at z = 0 and positive exactly inside the sector
    return all(sector_margin(complex(z), alpha) > 0 for z in _spectrum_values(spectrum))


def shared_eigenvalues(sa, sb, scale: float) -> tuple:
    """Masks of the eigenvalues of each spectrum that lie within the cluster
    tolerance ``CLUSTER_TOLERANCE_FACTOR * scale`` of the other spectrum,
    with that tolerance; ``scale`` is ||a|| + ||b||."""
    tolerance = CLUSTER_TOLERANCE_FACTOR * scale
    gaps = np.abs(_spectrum_values(sa)[:, None] - _spectrum_values(sb)[None, :])
    return gaps.min(axis=1) <= tolerance, gaps.min(axis=0) <= tolerance, tolerance


def _shift_admissible(values: np.ndarray, lam: float, alpha: float,
                      margin: float, floor: float) -> bool:
    shifted = values + lam
    if np.any(shifted == 0):
        return False
    if np.any(np.abs(shifted) < floor):
        return False
    margins = np.array([sector_margin(complex(z), alpha) for z in shifted])
    return bool(np.all(margins >= margin))


def choose_shift(sa, sb, alpha: float) -> float:
    """Smallest practical shift placing both spectra inside the sector.

    Membership is demanded with an angular margin (sin of the gap to the
    boundary at least ``DEFAULT_MARGIN``) and a modulus floor of that margin
    times the pre-shift spectral scale, so the shifted matrices stay
    comfortably invertible.  The shift is found by doubling then bisection,
    reported to three significant digits; lambda = 0 is returned when the
    spectra already qualify.
    """
    _check_alpha(alpha)
    values = np.concatenate([_spectrum_values(sa), _spectrum_values(sb)])
    margin_eff = min(DEFAULT_MARGIN, 0.99 * math.sin(alpha))
    radius = float(np.max(np.abs(values))) if values.size else 0.0
    scale = radius if radius > 0 else 1.0
    floor = margin_eff * scale

    if _shift_admissible(values, 0.0, alpha, margin_eff, floor):
        return 0.0

    hi = scale
    for _ in range(200):
        if _shift_admissible(values, hi, alpha, margin_eff, floor):
            break
        hi *= 2.0
    else:  # pragma: no cover - admissibility is guaranteed for finite spectra
        raise ParameterError("no admissible shift found; spectra are not finite")
    lo = 0.0
    while hi - lo > 5e-3 * hi:
        mid = 0.5 * (lo + hi)
        if _shift_admissible(values, mid, alpha, margin_eff, floor):
            hi = mid
        else:
            lo = mid
    # round up to 3 significant digits, nudging until still admissible
    lam = hi
    if lam > 0:
        exponent = math.floor(math.log10(lam))
        quantum = 10.0 ** (exponent - 2)
        lam = math.ceil(lam / quantum) * quantum
        while not _shift_admissible(values, lam, alpha, margin_eff, floor):
            lam += quantum
    return float(lam)
