"""K-means speed clustering, silhouette-based K selection, and state bands.

Exact 1-D k-means (dynamic programming), a silhouette sweep to pick the
cluster count, midpoint boundaries between adjacent centers, and the
four-way congestion classification used by the navigation endpoint.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateClusteringError, DomainError


class TrafficState(enum.Enum):
    """Four congestion levels ordered from worst to best."""

    SEVERELY_CONGESTED = "severely_congested"
    CONGESTED = "congested"
    SLOW = "slow"
    SMOOTH = "smooth"

    @property
    def severity(self) -> int:
        """3 = severely congested ... 0 = smooth."""
        return 3 - _STATE_ORDER.index(self)

    @property
    def color(self) -> str:
        return _STATE_COLORS[self]


_STATE_ORDER = [
    TrafficState.SEVERELY_CONGESTED,
    TrafficState.CONGESTED,
    TrafficState.SLOW,
    TrafficState.SMOOTH,
]

_STATE_COLORS = {
    TrafficState.SEVERELY_CONGESTED: "dark_red",
    TrafficState.CONGESTED: "red",
    TrafficState.SLOW: "yellow",
    TrafficState.SMOOTH: "green",
}


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centers: tuple[float, ...]  # sorted ascending
    objective: float  # within-cluster sum of squares; inf when beyond the float range

    def __post_init__(self):
        if self.k < 1 or len(self.centers) != self.k:
            raise DomainError("center count must equal k >= 1")
        if any(b <= a for a, b in zip(self.centers, self.centers[1:])):
            raise DomainError("centers must be strictly increasing")
        if self.objective < 0:
            raise DomainError("objective must be non-negative")


@dataclass(frozen=True)
class StateBands:
    """Three ascending speed thresholds in (0, inf) partitioning it into four states."""

    boundaries: tuple[float, float, float]  # km/h

    def __post_init__(self):
        b = self.boundaries
        if len(b) != 3 or not (0 < b[0] < b[1] < b[2] < math.inf):
            raise DomainError(f"boundaries must be 3 ascending values in (0, inf), got {b}")


def assign_points(points: Sequence[float], centers: Sequence[float]) -> np.ndarray:
    """Nearest-center labels; ties go to the lowest-index center."""
    pts = np.asarray(points, dtype=float)
    ctr = np.asarray(centers, dtype=float)
    return np.argmin(np.abs(pts[:, None] - ctr[None, :]), axis=1)


def _exponent(values: np.ndarray) -> int:
    """The exponent e that puts finite ``values`` times 2**-e inside (-1, 1)."""
    return int(np.frexp(np.abs(values).max())[1])


def _optimal_splits(pts: np.ndarray, k_max: int):
    """Exact 1-D k-means for every K <= k_max by dynamic programming.

    Optimal clusters are contiguous runs of the sorted distinct values
    (Wang & Song 2011, Ckmeans.1d.dp), so equal values are never split.
    Returns the distinct values, their counts and one row per K >= 2 giving,
    for each prefix of j distinct values, where the last of its K optimal
    clusters starts.  Those starts are monotone in j, so a leftmost-argmin
    divide and conquer fills each row in O(n log n) (Gronlund et al. 2017,
    arXiv:1701.07204).
    """
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    values, counts = np.unique(pts, return_counts=True)
    m = values.size
    if m < k_max:
        raise DegenerateClusteringError(f"only {m} distinct values; cannot form {k_max} clusters")
    # Scaling by a power of two into (-1, 1) is exact and keeps the squares
    # finite at any scale, so the partition does not depend on the units;
    # shifting by a central value keeps the prefix sums small, so that their
    # differences stay accurate.
    y = np.ldexp(values, -_exponent(values))
    y -= y[m // 2]
    w, s1, s2 = (np.concatenate(([0.0], np.cumsum(a)))
                 for a in (counts, counts * y, counts * y * y))

    def cost(i, j):  # within-cluster sum of squares of distinct values i..j-1
        s = s1[j] - s1[i]
        return s2[j] - s2[i] - s * s / (w[j] - w[i])

    best = np.full(m + 1, np.inf)
    best[1:] = cost(0, np.arange(1, m + 1))
    table = []
    for k in range(2, k_max + 1):
        prev, best = best, np.full(m + 1, np.inf)
        split = np.zeros(m + 1, dtype=int)
        # Each level fills the middle j of every range [lo, hi] whose split
        # is known to lie in [first, last], then halves the ranges.
        lo, hi, first, last = (np.array([v]) for v in (k, m, k - 1, m - 1))
        while lo.size:
            mid = (lo + hi) // 2
            span = np.minimum(last, mid - 1) - first + 1
            start = np.cumsum(span) - span
            i = np.arange(span.sum()) + np.repeat(first - start, span)
            total = prev[i] + cost(i, np.repeat(mid, span))
            best[mid] = np.minimum.reduceat(total, start)
            hits = np.flatnonzero(total == np.repeat(best[mid], span))
            split[mid] = arg = i[hits[np.searchsorted(hits, start)]]
            left, right = lo < mid, mid < hi
            lo, hi, first, last = (np.concatenate(pair) for pair in (
                (lo[left], mid[right] + 1), (mid[left] - 1, hi[right]),
                (first[left], arg[right]), (arg[left], last[right])))
        table.append(split)
    return values, counts, table


def _model(values: np.ndarray, counts: np.ndarray, table, k: int) -> ClusterModel:
    """The K-cluster optimum read back from the split table."""
    starts = [values.size]
    for split in reversed(table[:k - 1]):
        starts.append(split[starts[-1]])
    starts = [0] + starts[:0:-1]
    e = _exponent(values)  # exact scaling: the sums cannot overflow
    scaled = np.ldexp(values, -e)
    means = np.add.reduceat(counts * scaled, starts) / np.add.reduceat(counts, starts)
    labels = np.repeat(np.arange(k), np.diff(starts + [values.size]))
    with np.errstate(over="ignore"):
        objective = np.ldexp(np.sum(counts * (scaled - means[labels]) ** 2), 2 * e)
    return ClusterModel(k=k, centers=tuple(np.ldexp(means, e).tolist()),
                        objective=float(objective))


def kmeans(points: Sequence[float], k: int, seed: int = 0) -> ClusterModel:
    """Globally optimal k-means clustering of 1-D values.

    The result is exact and deterministic; ``seed`` is accepted for
    compatibility and ignored.
    """
    pts = np.asarray(points, dtype=float)
    if k < 1:
        raise DomainError("k must be >= 1")
    if pts.size < k:
        raise DomainError(f"need at least {k} points, got {pts.size}")
    return _model(*_optimal_splits(pts, k), k)


def silhouette(points: Sequence[float], assignments: Sequence[int]) -> float:
    """Mean silhouette coefficient; singleton-cluster points score 0.

    Summed distances to each cluster come from its sorted prefix sums, in
    O(n C log n) time and O(n C) memory for C clusters.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(assignments, dtype=int)
    if pts.size != labels.size:
        raise DomainError("points and assignments must be equal-length")
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    clusters, own_col, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if clusters.size < 2:
        raise DomainError("silhouette undefined for fewer than 2 clusters")
    # Exactly rescaled (the score is a ratio) and centred: smaller magnitudes,
    # smaller cancellation error, and sums that cannot overflow.
    pts = np.ldexp(pts, -_exponent(pts))
    pts -= np.median(pts)
    sums = np.empty((pts.size, clusters.size))  # summed distance to each cluster
    for c in range(clusters.size):
        members = np.sort(pts[own_col == c])
        prefix = np.concatenate(([0.0], np.cumsum(members)))
        below = np.searchsorted(members, pts, side="left")
        above = np.searchsorted(members, pts, side="right")
        # Members equal to the point add no terms, so a sum over only such
        # members is exactly 0 and the tie conventions below still apply.
        sums[:, c] = (pts * below - prefix[below]) + (
            prefix[-1] - prefix[above] - pts * (counts[c] - above))

    n_own = counts[own_col]
    # Intra-cluster mean excludes the point itself (its self-distance is 0).
    with np.errstate(invalid="ignore", divide="ignore"):
        a = sums[np.arange(pts.size), own_col] / (n_own - 1)
        means = sums / counts[None, :]
        means[np.arange(pts.size), own_col] = np.inf
        b = means.min(axis=1)
        scores = np.where(
            np.maximum(a, b) > 0, (b - a) / np.maximum(a, b), 0.0
        )
    scores = np.where(n_own == 1, 0.0, scores)  # singleton convention: s = 0
    return float(scores.mean())


@dataclass(frozen=True)
class KSelection:
    best_k: int
    silhouette_by_k: dict[int, float]


def select_k(points: Sequence[float], k_range: Sequence[int], seed: int = 0) -> KSelection:
    """Silhouette sweep over candidate cluster counts; ties go to smaller K.

    One dynamic-programming pass up to the largest K gives the optimal
    clustering for every K.  ``seed`` is accepted for compatibility and
    ignored.
    """
    pts = np.asarray(points, dtype=float)
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 2 or ks[-1] > pts.size - 1:
        raise DomainError(f"k_range must lie within [2, {pts.size - 1}]")
    splits = _optimal_splits(pts, ks[-1])
    table = {
        k: silhouette(pts, assign_points(pts, _model(*splits, k).centers)) for k in ks
    }
    best_k = max(ks, key=lambda k: (table[k], -k))
    return KSelection(best_k=best_k, silhouette_by_k=table)


def bands_from_clusters(model: ClusterModel) -> StateBands:
    """Midpoints between adjacent sorted centers; requires exactly 4 clusters."""
    if model.k != 4:
        raise DomainError(f"state bands need exactly 4 clusters, got {model.k}")
    c = model.centers
    return StateBands(boundaries=tuple((a + b) / 2 for a, b in zip(c, c[1:])))


def classify_speed(bands: StateBands, v: float) -> TrafficState:
    """Map a positive speed to its band; upper bounds inclusive except smooth."""
    if not 0 < v < math.inf:
        raise DomainError(f"speed must be positive and finite, got {v}")
    return _STATE_ORDER[bisect_left(bands.boundaries, v)]


def classify_flow_density(
    bands: StateBands, flow: float, density: float
) -> tuple[float, TrafficState]:
    """Estimate speed as flow/density and classify it."""
    if not 0 < density < math.inf:
        raise DomainError(f"density must be positive and finite, got {density}")
    if not 0 <= flow < math.inf:
        raise DomainError(f"flow must be finite and non-negative, got {flow}")
    v = flow / density
    return v, classify_speed(bands, v)  # also rejects a quotient that overflows
