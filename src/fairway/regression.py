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

    def predict(self, x):
        return predict(self.family, self.a, self.b, x)


@dataclass(frozen=True)
class BinnedPoint:
    bin_center: float
    mean_y: float
    count: int


def predict(family: str, a: float, b: float, x):
    """Evaluate a family curve at x (scalar or array)."""
    out = _family(family).curve(a, b, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


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
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in points):
        raise DomainError("bin_points needs finite points")
    buckets: dict[int, list[float]] = {}
    for x, y in points:
        buckets.setdefault(math.floor(x / width), []).append(y)
    # Summing in sorted order makes the mean independent of input ordering.
    out = [
        BinnedPoint(bin_center=(idx + 0.5) * width, mean_y=float(np.mean(sorted(ys))),
                    count=len(ys))
        for idx, ys in buckets.items()
        if len(ys) >= min_count
    ]
    out.sort(key=lambda p: p.bin_center)
    return out


def r_squared(observed: Sequence[float], estimated: Sequence[float]) -> float:
    """Explained sum of squares over total sum of squares about the observed mean."""
    obs = np.asarray(observed, dtype=float)
    est = np.asarray(estimated, dtype=float)
    if obs.shape != est.shape or obs.size < 2:
        raise DomainError("observed and estimated must be equal-length, size >= 2")
    mean = obs.mean()
    sst = float(np.sum((obs - mean) ** 2))
    if sst == 0:
        raise DomainError("R^2 undefined: observed series has zero variance")
    return float(np.sum((est - mean) ** 2)) / sst


def _r2_tolerant(observed, estimated) -> float:
    """Explained-variance R^2, but defined for constant observed data (1 iff exact fit)."""
    obs = np.asarray(observed, dtype=float)
    est = np.asarray(estimated, dtype=float)
    if float(np.sum((obs - obs.mean()) ** 2)) == 0.0:
        return 1.0 if np.allclose(est, obs, rtol=0, atol=1e-12) else 0.0
    return r_squared(obs, est)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope/intercept of y on x; errors on zero x-variance."""
    if float(np.var(x)) == 0.0:
        raise DegenerateFitError("zero x-variance: cannot fit a slope")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def fit_curve(
    family: str,
    points: Sequence[tuple[float, float]],
    original_space_r2: bool = False,
) -> FitReport:
    """Least-squares fit of one family; log-linearized for exponential/power."""
    spec = _family(family)
    if len(points) < 2:
        raise DegenerateFitError("a fit needs at least 2 points")
    x = np.asarray([p[0] for p in points], dtype=float)
    y = np.asarray([p[1] for p in points], dtype=float)

    for logged, axis, col in ((spec.log_x, "x", 0), (spec.log_y, "y", 1)):
        bad = [tuple(p) for p in points if p[col] <= 0] if logged else []
        if bad:
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

    return FitReport(family=family, a=a, b=b, r_squared=r2, n_points=len(points), fit_space=fit_space)


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
    order = {family: i for i, family in enumerate(FAMILIES)}
    reports.sort(key=lambda r: (-r.r_squared, order[r.family]))
    return reports
