"""K-means speed clustering, silhouette-based K selection, and state bands.

Exact 1-D k-means (dynamic programming), a silhouette sweep to pick the
cluster count, and midpoint boundaries between adjacent centers: the state
bands that ``document.classify_flow_density`` classifies by.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .document import StateBands, TrafficState, classify_flow_density, classify_speed
from .errors import DegenerateClusteringError, DomainError


@dataclass(frozen=True)
class ClusterModel:
    centers: tuple[float, ...]  # sorted ascending, one per cluster
    objective: float  # within-cluster sum of squares; inf when beyond the float range

    def __post_init__(self):
        if not self.centers:
            raise DomainError("a clustering needs at least one center")
        if any(b <= a for a, b in zip(self.centers, self.centers[1:])):
            raise DomainError("centers must be strictly increasing")
        if self.objective < 0:
            raise DomainError("objective must be non-negative")


def assign_points(points: Sequence[float], centers: Sequence[float]) -> np.ndarray:
    """Nearest-center labels; ties go to the lowest-index center."""
    pts = np.asarray(points, dtype=float)
    ctr = np.asarray(centers, dtype=float)
    return np.argmin(np.abs(pts[:, None] - ctr[None, :]), axis=1)


def _exponent(values: np.ndarray) -> int:
    """The exponent e that puts finite ``values`` times 2**-e inside (-1, 1)."""
    return int(np.frexp(np.abs(values).max())[1])


def _cluster_counts(ks) -> list[int]:
    """The distinct counts in ks, ascending; a bool, float, str or other non-integer fails."""
    ks = list(ks)
    if bad := [k for k in ks if isinstance(k, bool) or not isinstance(k, Integral)]:
        raise DomainError(f"cluster counts must be integers, not {type(bad[0]).__name__}")
    return sorted(set(map(int, ks)))


def _optimal_splits(pts: np.ndarray, k_max: int):
    """Exact 1-D k-means for every K <= k_max by dynamic programming.

    Scaling by 2**-e into (-1, 1) keeps every sum finite, so the partition
    does not depend on the units; values it rounds together become one value
    for the DP, the model and the silhouettes alike.  Optimal clusters are
    contiguous runs of the sorted distinct scaled values y (Wang & Song 2011,
    Ckmeans.1d.dp), so equal values are never split.  Returns y, their
    counts, e and each K's cluster starts, read back from one row per K >= 2
    giving, for each prefix of j values, where the last of its K optimal
    clusters starts.  The leftmost such start never falls as j grows
    (Gronlund et al. 2017, arXiv:1701.07204) nor as K grows (Yao 1980,
    "Efficient dynamic programming using quadrangle inequalities"), so row K
    solves j = m first, then j = K-1 + s times each odd number as the stride
    s halves from 2**ceil(log2 m) to 1: each j searches from row K-1's start
    at j, and its solved neighbours j-s and j+s bound it, in O(m log m) per
    row.  Both rows' starts are non-decreasing in j by construction, so that
    lower bound never passes the upper one, whatever the rounding.  Nothing
    reads row k_max back but at m, so it solves only m.
    """
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    e = _exponent(pts)
    y, counts = np.unique(np.ldexp(pts, -e), return_counts=True)
    m = y.size
    if m < k_max:
        raise DegenerateClusteringError(f"only {m} distinct values; cannot form {k_max} clusters")
    z = y - y[m // 2]  # centred, so the prefix-sum differences stay accurate
    w, s1, s2 = (np.concatenate(([0.0], np.cumsum(a)))
                 for a in (counts, counts * z, counts * z * z))

    def cost(i, j):  # within-cluster sum of squares of distinct values i..j-1
        s = s1[j] - s1[i]
        return s2[j] - s2[i] - s * s / (w[j] - w[i])

    def solve(j, lo, hi):  # leftmost argmin over [lo, hi] for each j, at or past row K-1's
        lo = np.maximum(lo, bound[j])
        span = hi - lo + 1
        start = np.cumsum(span) - span
        i = np.arange(span.sum()) + np.repeat(lo - start, span)
        total = prev[i] + cost(i, np.repeat(j, span))
        best[j] = np.minimum.reduceat(total, start)
        hits = np.flatnonzero(total == np.repeat(best[j], span))
        split[j] = i[hits[np.searchsorted(hits, start)]]

    best = np.full(m + 1, np.inf)
    best[1:] = cost(0, np.arange(1, m + 1))
    split, table = np.zeros(m + 1, dtype=int), []  # row 1: its one cluster starts at 0
    for k in range(2, k_max + 1):
        prev, best = best, np.full(m + 1, np.inf)
        bound, split = split, np.full(m + 1, k - 1)  # split[k - 1] = k - 1 bounds j = k
        solve(np.array([m]), k - 1, m - 1)
        s = 1 << (m - 1).bit_length()
        while k < k_max and s:  # j = k - 1 + s * odd sits between two solved neighbours
            j = np.arange(k - 1 + s, m, 2 * s)
            solve(j, split[j - s], np.minimum(split[np.minimum(j + s, m)], j - 1))
            s //= 2
        table.append(split)
    starts = {}
    for k in range(1, k_max + 1):
        back = [m]  # from the end: the start of the last cluster, then the one before
        for split in reversed(table[:k - 1]):
            back.append(split[back[-1]])
        starts[k] = np.array([0] + back[:0:-1])
    return y, counts, e, starts


def _model(y: np.ndarray, counts: np.ndarray, e: int, starts: np.ndarray) -> ClusterModel:
    """The clustering whose clusters start at these indices of y, scaled back by 2**e."""
    ends = np.append(starts[1:], y.size)
    # Clamped into its run: a rounded mean can pass the run's last value by an ulp.
    means = np.clip(np.add.reduceat(counts * y, starts) / np.add.reduceat(counts, starts),
                    y[starts], y[ends - 1])
    labels = np.repeat(np.arange(starts.size), ends - starts)
    with np.errstate(over="ignore"):
        objective = np.ldexp(np.sum(counts * (y - means[labels]) ** 2), 2 * e)
    return ClusterModel(centers=tuple(np.ldexp(means, e).tolist()), objective=float(objective))


@np.errstate(invalid="ignore", divide="ignore")  # singletons and a == b (0/0 too) score 0 below
def _run_silhouette(y: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> float:
    """Mean silhouette of clusters that are runs of the sorted distinct values, in O(m).

    y is scaled as ``_optimal_splits`` returns it: the score is a ratio.  A
    point's nearest other cluster is an adjacent run, and its mean distance
    to a run wholly on one side is the gap to the run's nearer end plus the
    mean's offset from that end: two non-negative terms, so no cancellation.
    Distances within a run come from prefix sums of values centred on its mean.
    """
    ends = np.append(starts[1:], y.size)
    label, j = np.repeat(np.arange(starts.size), ends - starts), np.arange(y.size)
    first, last, sizes = y[starts], y[ends - 1], np.add.reduceat(counts, starts)
    above_first = np.add.reduceat(counts * (y - first[label]), starts) / sizes
    below_last = np.add.reduceat(counts * (last[label] - y), starts) / sizes
    z = (y - first[label]) - above_first[label]
    w, s = (np.concatenate(([0], np.cumsum(a))) for a in (counts, counts * z))
    lo, hi = starts[label], ends[label]
    a = (z * (2 * w[j] + counts - w[lo] - w[hi]) + s[lo] + s[hi] - s[j] - s[j + 1]) / (
        sizes[label] - 1)
    b = np.minimum(y - np.append(-np.inf, last[:-1])[label] + np.append(0, below_last[:-1])[label],
                   np.append(first[1:], np.inf)[label] - y + np.append(above_first[1:], 0)[label])
    scores = np.where((sizes[label] == 1) | (a == b), 0.0, (b - a) / np.maximum(a, b))
    return float(counts @ scores) / float(counts.sum())


def kmeans(points: Sequence[float], k: int, seed: int = 0) -> ClusterModel:
    """Globally optimal k-means clustering of 1-D values, up to rounding.

    The result is deterministic; ``seed`` is accepted for compatibility and
    ignored.  The DP's costs are differences of prefix sums, which cancel
    for clusters tighter than about 1e-7 of the data's range: there the
    partition can be worse than optimal (README "Limits").
    """
    pts = np.asarray(points, dtype=float)
    (k,) = _cluster_counts([k])
    if k < 1:
        raise DomainError("k must be >= 1")
    if pts.size < k:
        raise DomainError(f"need at least {k} points, got {pts.size}")
    y, counts, e, starts = _optimal_splits(pts, k)
    return _model(y, counts, e, starts[k])


def silhouette(points: Sequence[float], assignments: Sequence[int]) -> float:
    """Mean silhouette coefficient of any labelling; singleton-cluster points score 0.

    Summed distances to each cluster come from its sorted prefix sums, in
    O(n C log n) time and O(n C) memory for C clusters.  ``select_k`` does
    not call it: its clusters are contiguous runs, scored in O(m) per K.
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
    model: ClusterModel  # kmeans(points, best_k): a K's DP row does not depend on larger K


def select_k(points: Sequence[float], k_range: Sequence[int], seed: int = 0) -> KSelection:
    """Silhouette sweep over candidate cluster counts; ties go to smaller K.

    One dynamic-programming pass up to the largest K gives the optimal
    clustering for every K, as runs of the m sorted distinct values; each
    K's silhouette is read from its runs in O(m), and the selected K's model
    from the same pass, with ``kmeans``' limit for very tight clusters.
    ``seed`` is accepted for compatibility and ignored.
    """
    pts = np.asarray(points, dtype=float)
    ks = _cluster_counts(k_range)
    if not ks or ks[0] < 2 or ks[-1] > pts.size - 1:
        raise DomainError(f"k_range must lie within [2, {pts.size - 1}]")
    y, counts, e, starts = _optimal_splits(pts, ks[-1])
    table = {k: _run_silhouette(y, counts, starts[k]) for k in ks}
    best_k = max(ks, key=lambda k: (table[k], -k))
    return KSelection(best_k, table, _model(y, counts, e, starts[best_k]))


def bands_from_clusters(model: ClusterModel) -> StateBands:
    """Midpoints between adjacent sorted centers; requires exactly 4 clusters."""
    if len(model.centers) != 4:
        raise DomainError(f"state bands need exactly 4 clusters, got {len(model.centers)}")
    c = model.centers
    return StateBands(boundaries=tuple((a + b) / 2 for a, b in zip(c, c[1:])))
