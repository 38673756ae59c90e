"""Binning and four-family curve fitting with explained-variance R^2.

Each family is one row of ``_FAMILIES``: whether x and y are log-
transformed before the straight-line fit, and the curve in (a, b).

    linear       v = a*x + b       fitted as y on x
    logarithmic  v = a*ln(x) + b   fitted as y on ln(x)
    exponential  v = a*e^(b*x)     fitted as ln(y) on x, a = e^intercept
    power        v = a*x^b         fitted as ln(y) on ln(x), a = e^intercept

``predict`` and ``fit_curve`` read the table.  Log-linearised families
report R^2 in the transformed space by default (``fit_space=
"transformed"``), switchable to the original space; the others always
report it in the original space.

Points are (x, y) pairs: a sequence of pairs or an (n, 2) array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateFitError, DomainError

log = logging.getLogger(__name__)

# Tie-break order when ranking by R^2.
FAMILIES = ("logarithmic", "power", "linear", "exponential")


class _Family(NamedTuple):
    log_x: bool  # fit against ln(x); needs x > 0
    log_y: bool  # log-linearised: fit ln(y), a = e^intercept; needs y > 0
    curve: Callable  # (a, b, x) -> v


_FAMILIES = {
    "linear": _Family(False, False, lambda a, b, x: a * x + b),
    "logarithmic": _Family(True, False, lambda a, b, x: a * np.log(x) + b),
    "exponential": _Family(False, True, lambda a, b, x: a * np.exp(b * x)),
    "power": _Family(True, True, lambda a, b, x: a * np.power(x, b)),
}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise DomainError(f"unknown curve family {name!r}") from None


@dataclass(frozen=True)
class FitReport:
    family: str
    a: float
    b: float
    r_squared: float
    n_points: int
    fit_space: str  # "original" | "transformed"

    def __post_init__(self):
        if self.n_points < 2:
            raise DegenerateFitError("a fit needs at least 2 points")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.r_squared)):
            raise DegenerateFitError("non-finite fit result")


@dataclass(frozen=True)
class BinnedPoint:
    bin_center: float
    mean_y: float
    count: int


def predict(family: str, a: float, b: float, x):
    """Evaluate a family curve at x (scalar or array)."""
    out = _family(family).curve(a, b, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _columns(points) -> tuple[np.ndarray, np.ndarray]:
    """x and y float columns of a sequence of pairs or an (n, 2) array."""
    return tuple(np.asarray(points, dtype=float).reshape(len(points), 2).T.copy())


@np.errstate(over="ignore")  # a bin index that overflows raises below
def bin_points(
    points: Sequence[tuple[float, float]],
    width: float,
    min_count: int = 1,
) -> list[BinnedPoint]:
    """Average y over left-closed x bins of the given width.

    Bin b covers [b*width, (b+1)*width); its representative x is the
    midpoint.  Bins with fewer than ``min_count`` members are dropped.
    """
    if not 0 < width < math.inf:
        raise DomainError("bin width must be a finite positive number")
    x, y = _columns(points)
    idx = np.floor(x / width)
    if not (np.isfinite(idx).all() and np.isfinite(y).all()):
        raise DomainError(f"bin_points needs finite points and bin indices x / {width}")
    # Summing each bin in sorted order makes the mean independent of input ordering.
    order = np.lexsort((y, idx))
    idx, y = idx[order], y[order]
    bins, starts, counts = np.unique(idx, return_index=True, return_counts=True)
    return [
        BinnedPoint(bin_center=(b + 0.5) * width, mean_y=float(np.mean(y[s:s + n])), count=n)
        for b, s, n in zip(bins.tolist(), starts.tolist(), counts.tolist())
        if n >= min_count
    ]


@np.errstate(all="ignore")  # a total that overflows raises below
def r_squared(observed: Sequence[float], estimated: Sequence[float]) -> float:
    """Explained over total sum of squares about the observed mean; needs a finite total > 0."""
    obs = np.asarray(observed, dtype=float)
    est = np.asarray(estimated, dtype=float)
    if obs.shape != est.shape or obs.size < 2:
        raise DomainError("observed and estimated must be equal-length, size >= 2")
    mean = obs.mean()
    sst = float(np.sum((obs - mean) ** 2))
    if not 0 < sst < math.inf:
        raise DomainError(f"R^2 undefined: observed series has variance sum {sst}")
    return float(np.sum((est - mean) ** 2)) / sst


def _r2_tolerant(obs: np.ndarray, est: np.ndarray) -> float:
    """Explained-variance R^2, but defined for constant observed data (1 iff exact fit)."""
    if float(np.sum((obs - obs.mean()) ** 2)) == 0.0:
        return 1.0 if np.allclose(est, obs, rtol=0, atol=1e-12) else 0.0
    return r_squared(obs, est)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope/intercept of y on x; errors when x is too flat or too spread for a slope."""
    if not 0 < float(np.var(x)) < math.inf:
        raise DegenerateFitError("x-variance is zero or overflows: cannot fit a slope")
    (slope, intercept), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    if rank < 2:
        raise DegenerateFitError("x values too close together: cannot fit a slope")
    return float(slope), float(intercept)


@np.errstate(all="ignore")  # FitReport rejects a result that is not finite
def fit_curve(
    family: str,
    points: Sequence[tuple[float, float]],
    original_space_r2: bool = False,
) -> FitReport:
    """Least-squares fit of one family; log-linearized for exponential/power."""
    spec = _family(family)
    x, y = _columns(points)
    if len(x) < 2:
        raise DegenerateFitError("a fit needs at least 2 points")

    for logged, axis, col in ((spec.log_x, "x", x), (spec.log_y, "y", y)):
        if logged and np.any(col <= 0):
            bad = list(map(tuple, np.column_stack((x, y))[col <= 0].tolist()))
            raise DomainError(f"{family} fit requires {axis} > 0; offending points: {bad}")
    fx = np.log(x) if spec.log_x else x
    fy = np.log(y) if spec.log_y else y

    slope, intercept = _ols(fx, fy)
    try:
        a, b = (math.exp(intercept), slope) if spec.log_y else (slope, intercept)
    except OverflowError:
        raise DegenerateFitError(f"{family} fit amplitude e^{intercept:.6g} overflows") from None
    if spec.log_y and not original_space_r2:
        fit_space = "transformed"
        r2 = _r2_tolerant(fy, intercept + slope * fx)
    else:
        fit_space = "original"
        r2 = _r2_tolerant(y, spec.curve(a, b, x))

    return FitReport(family=family, a=a, b=b, r_squared=r2, n_points=len(x), fit_space=fit_space)


def rank_families(
    points: Sequence[tuple[float, float]],
    original_space_r2: bool = False,
) -> list[FitReport]:
    """Fit all four families and sort by descending R^2 (stable family order on ties).

    Families whose domain preconditions fail are excluded and logged.
    """
    reports = []
    for family in FAMILIES:
        try:
            reports.append(fit_curve(family, points, original_space_r2=original_space_r2))
        except (DomainError, DegenerateFitError) as exc:
            log.warning("family %s excluded from ranking: %s", family, exc)
    reports.sort(key=lambda r: -r.r_squared)  # stable: ties keep the FAMILIES order
    return reports
