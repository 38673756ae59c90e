"""Binning and four-family curve fitting.

Each family is one row of ``_FAMILIES``: whether x and y are log-
transformed before the straight-line fit, and the curve in (a, b).

    linear       v = a*x + b       fitted as y on x
    logarithmic  v = a*ln(x) + b   fitted as y on ln(x)
    exponential  v = a*e^(b*x)     fitted as ln(y) on x, a = e^intercept
    power        v = a*x^b         fitted as ln(y) on ln(x), a = e^intercept

``predict`` and ``fit_curve`` read the table.  Every fit here and in
``fundamental_diagram`` reports ``_fit_r_squared``, 1 - SSE/SST of y in its
own units, so R^2 compares across families and forms and never exceeds 1.

Points are (x, y) pairs: a sequence of pairs, such as ``bin_points``' bins, or an (n, 2) array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
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

    @np.errstate(divide="ignore")  # ln 0 = -inf, for the caller to reject
    def transform(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns the straight line is fitted in: x and y, or their logarithms."""
        return (np.log(x) if self.log_x else x), (np.log(y) if self.log_y else y)


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
    family: str  # a curve family, or the diagram form fit_fd fitted
    a: float
    b: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if not (isinstance(self.n_points, int) and self.n_points >= 2):
            raise DegenerateFitError(f"a fit needs integer n_points >= 2, got {self.n_points!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.r_squared)):
            raise DegenerateFitError("non-finite fit result")


class BinnedPoint(NamedTuple):
    bin_center: float
    mean_y: float


@np.errstate(all="ignore")  # inf on overflow; fits, characteristics and curve export reject it
def predict(family: str, a: float, b: float, x):
    """Evaluate a family curve at x (scalar or array)."""
    out = _family(family).curve(a, b, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _columns(points) -> tuple[np.ndarray, np.ndarray]:
    """x and y float columns of a sequence of pairs or an (n, 2) array."""
    n = len(points)
    if not isinstance(points, np.ndarray) and set(map(len, points)) == {2}:  # ragged: asarray raises
        points = np.fromiter(chain.from_iterable(points), float, 2 * n)  # ~3x faster than asarray
    return tuple(np.asarray(points, dtype=float).reshape(n, 2).T.copy())


@np.errstate(over="ignore")  # a bin index that overflows raises below
def bin_points(
    points: Sequence[tuple[float, float]],
    width: float,
) -> list[BinnedPoint]:
    """Average y over left-closed x bins of the given width; every non-empty bin is kept.

    Bin b covers [b*width, (b+1)*width); its representative x is the midpoint.
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
        BinnedPoint(bin_center=(b + 0.5) * width, mean_y=float(np.mean(y[s:s + n])))
        for b, s, n in zip(bins.tolist(), starts.tolist(), counts.tolist())
    ]


@np.errstate(all="ignore")  # a total that overflows raises below
def r_squared(observed: Sequence[float], estimated: Sequence[float]) -> float:
    """Explained over total sum of squares about the observed mean; needs a finite total > 0.

    Acceptance criterion 9 pins this ratio; fits report ``_fit_r_squared`` instead.
    """
    obs = np.asarray(observed, dtype=float)
    est = np.asarray(estimated, dtype=float)
    if obs.shape != est.shape or obs.size < 2:
        raise DomainError("observed and estimated must be equal-length, size >= 2")
    mean = obs.mean()
    sst = float(np.sum((obs - mean) ** 2))
    if not 0 < sst < math.inf:
        raise DomainError(f"R^2 undefined: observed series has variance sum {sst}")
    return float(np.sum((est - mean) ** 2)) / sst


@np.errstate(all="ignore")  # a residual sum that overflows makes R^2 -inf, which FitReport rejects
def _fit_r_squared(y: np.ndarray, est: np.ndarray) -> float:
    """1 - SSE/SST of y in its own units; constant y scores 1 for an exact fit, else 0."""
    sst = float(np.sum((y - y.mean()) ** 2))  # of equal values, may be a rounding residue
    if y.min() == y.max():  # a fitted constant such as e^(mean ln y) is exact only to rounding
        return float(np.allclose(est, y, rtol=1e-12, atol=0))
    if not 0 < sst < math.inf:
        raise DomainError(f"R^2 undefined: observed series has variance sum {sst}")
    return 1.0 - float(np.sum((y - est) ** 2)) / sst


@np.errstate(over="ignore", invalid="ignore")  # a sum that overflows or is NaN raises below
def _line(family: str, fx: np.ndarray, fy: np.ndarray) -> tuple[float, float]:
    """(a, b) of the family curve from the least-squares line of fy on fx.

    Closed-form least squares, x centred and y measured from its first value,
    so constant y has a slope of exactly 0.  DegenerateFitError on columns
    that are not finite, on x too flat, too spread or too clustered for a
    slope, and on y too spread for R^2.
    """
    n, mx = len(fx), fx.mean()
    dx, dy = fx - mx, fy - fy[0]
    sxx = float(dx @ dx)
    if not 0 < sxx < math.inf:
        raise DegenerateFitError("x-variance is zero or overflows: cannot fit a slope")
    # The smallest over the largest singular value of [x, 1] with unit-norm
    # columns is sd/(rms + |mean|); polyfit's rank test bounds it by n*eps.
    sd = math.sqrt(sxx / n)
    if sd <= n * np.finfo(float).eps * (math.hypot(mx, sd) + abs(mx)):
        raise DegenerateFitError("x values too close together: cannot fit a slope")
    if not float(dy @ dy) < math.inf:
        raise DegenerateFitError("y values spread past the float range: R^2 undefined")
    slope = float(dx @ dy) / sxx
    intercept = float(fy.mean()) - slope * float(mx)
    try:
        a, b = (math.exp(intercept), slope) if _family(family).log_y else (slope, intercept)
    except OverflowError:
        raise DegenerateFitError(f"{family} fit amplitude e^{intercept:.6g} overflows") from None
    return a, b


@np.errstate(all="ignore")  # FitReport rejects a result that is not finite
def fit_curve(family: str, points: Sequence[tuple[float, float]]) -> FitReport:
    """Least-squares fit of one family; log-linearized for exponential/power."""
    spec = _family(family)
    x, y = _columns(points)
    if len(x) < 2:
        raise DegenerateFitError("a fit needs at least 2 points")

    for logged, axis, col in ((spec.log_x, "x", x), (spec.log_y, "y", y)):
        if logged and (bad := np.flatnonzero(col <= 0)).size:
            first = (float(x[bad[0]]), float(y[bad[0]]))
            raise DomainError(f"{family} fit requires {axis} > 0; "
                              f"{bad.size} offending point(s), the first {first}")
    a, b = _line(family, *spec.transform(x, y))
    r2 = _fit_r_squared(y, spec.curve(a, b, x))
    return FitReport(family=family, a=a, b=b, r_squared=r2, n_points=len(x))


def rank_families(points: Sequence[tuple[float, float]]) -> list[FitReport]:
    """Fit all four families and sort by descending R^2 (stable family order on ties).

    Families whose domain preconditions fail are excluded and logged.
    """
    reports = []
    for family in FAMILIES:
        try:
            reports.append(fit_curve(family, points))
        except (DomainError, DegenerateFitError) as exc:
            log.warning("family %s excluded from ranking: %s", family, exc)
    reports.sort(key=lambda r: -r.r_squared)  # stable: ties keep the FAMILIES order
    return reports
