"""The exact 1-D k-means DP as it stood before the stride schedule, frozen as a reference.

Each row of the DP was filled by a range-partition divide and conquer: every
level solved the middle prefix length of each open range, over the splits
its neighbours allowed, then halved the ranges.  Every row was filled for
every j, the last row included, and no row was bounded by the row before.
Tests require ``fairway.traffic_state`` to return the same cluster starts
for every K, and the same models and silhouettes, bit for bit; on values
0.1 apart, where rounding can break an exact tie differently in two rows,
they require an equally optimal partition.
"""

from __future__ import annotations

import numpy as np

from fairway.errors import DegenerateClusteringError, DomainError
from fairway.traffic_state import KSelection, _exponent, _model, _run_silhouette


def optimal_splits(pts: np.ndarray, k_max: int):
    """y, counts, e and each K's cluster starts, as ``_optimal_splits`` returns them."""
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    e = _exponent(pts)
    y, counts = np.unique(np.ldexp(pts, -e), return_counts=True)
    m = y.size
    if m < k_max:
        raise DegenerateClusteringError(f"only {m} distinct values; cannot form {k_max} clusters")
    z = y - y[m // 2]
    w, s1, s2 = (np.concatenate(([0.0], np.cumsum(a)))
                 for a in (counts, counts * z, counts * z * z))

    def cost(i, j):
        s = s1[j] - s1[i]
        return s2[j] - s2[i] - s * s / (w[j] - w[i])

    best = np.full(m + 1, np.inf)
    best[1:] = cost(0, np.arange(1, m + 1))
    table = []
    for k in range(2, k_max + 1):
        prev, best = best, np.full(m + 1, np.inf)
        split = np.zeros(m + 1, dtype=int)
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
    starts = {}
    for k in range(1, k_max + 1):
        back = [m]
        for split in reversed(table[:k - 1]):
            back.append(split[back[-1]])
        starts[k] = np.array([0] + back[:0:-1])
    return y, counts, e, starts


def kmeans(points, k: int):
    y, counts, e, starts = optimal_splits(np.asarray(points, dtype=float), k)
    return _model(y, counts, e, starts[k])


def select_k(points, k_range):
    ks = sorted(set(k_range))
    y, counts, e, starts = optimal_splits(np.asarray(points, dtype=float), ks[-1])
    table = {k: _run_silhouette(y, counts, starts[k]) for k in ks}
    best_k = max(ks, key=lambda k: (table[k], -k))
    return KSelection(best_k, table, _model(y, counts, e, starts[best_k]))
