from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairway.errors import DegenerateClusteringError, DomainError
from fairway.traffic_state import (
    ClusterModel,
    StateBands,
    TrafficState,
    assign_points,
    bands_from_clusters,
    classify_flow_density,
    classify_speed,
    kmeans,
    select_k,
    silhouette,
)

from reference_data import STATE_BOUNDARIES

BANDS = StateBands(boundaries=STATE_BOUNDARIES)


def exhaustive_optimum(points, k):
    """Best within-cluster sum of squares over every partition (n small).

    In 1-D the optimal clusters are contiguous runs of the sorted values, so
    enumerating the C(n-1, k-1) cut placements covers the global optimum.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    n = pts.size
    best = np.inf
    for cuts in combinations(range(1, n), k - 1):
        edges = (0, *cuts, n)
        obj = sum(
            float(np.sum((pts[a:b] - pts[a:b].mean()) ** 2))
            for a, b in zip(edges, edges[1:])
        )
        best = min(best, obj)
    return best


def reference_dp(points, k):
    """Optimal within-cluster sum of squares by the plain O(K n^2) DP.

    Every cut between sorted points is a candidate, equal values included,
    and every split of every prefix is tried.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    n = pts.size
    cost = np.full((n + 1, n + 1), np.inf)  # cost[i, j]: points i..j-1
    for i in range(n):
        c = pts[i:] - pts[i]
        count = np.arange(1, n - i + 1)
        cost[i, i + 1:] = np.cumsum(c * c) - np.cumsum(c) ** 2 / count
    best = cost[0].copy()
    for _ in range(k - 1):
        best = np.array([np.min(best[:j] + cost[:j, j]) if j else np.inf
                         for j in range(n + 1)])
    return best[n]


def reference_silhouette(points, assignments):
    """Mean silhouette from the full pairwise distance matrix."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(assignments, dtype=int)
    clusters = np.unique(labels)
    dist = np.abs(pts[:, None] - pts[None, :])
    onehot = labels[:, None] == clusters[None, :]  # (n, C)
    counts = onehot.sum(axis=0)
    sums = dist @ onehot  # (n, C): summed distance to each cluster

    own_col = np.searchsorted(clusters, labels)
    n_own = counts[own_col]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = sums[np.arange(pts.size), own_col] / (n_own - 1)
        means = sums / counts[None, :]
        means[np.arange(pts.size), own_col] = np.inf
        b = means.min(axis=1)
        scores = np.where(
            np.maximum(a, b) > 0, (b - a) / np.maximum(a, b), 0.0
        )
    scores = np.where(n_own == 1, 0.0, scores)
    return float(scores.mean())


class TestKmeans:
    def test_single_cluster_mean_and_sse(self):
        model = kmeans([2, 4, 6], 1)
        assert model.centers == (4.0,)
        assert model.objective == pytest.approx(8.0)

    def test_two_well_separated_pairs(self):
        model = kmeans([0, 1, 10, 11], 2)
        assert model.centers == (0.5, 10.5)
        assert model.objective == pytest.approx(1.0)
        assert model.objective == pytest.approx(exhaustive_optimum([0, 1, 10, 11], 2))

    def test_k_equals_n(self):
        pts = [3.0, 1.0, 7.0]
        model = kmeans(pts, 3)
        assert model.centers == (1.0, 3.0, 7.0)
        assert model.objective == pytest.approx(0.0)

    def test_duplicate_points_degenerate(self):
        with pytest.raises(DegenerateClusteringError):
            kmeans([5.0, 5.0, 5.0], 2)

    def test_deterministic_given_seed(self):
        pts = list(np.random.default_rng(1).uniform(0, 20, 50))
        a = kmeans(pts, 3, seed=7)
        b = kmeans(pts, 3, seed=7)
        assert a == b

    @given(st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_small_instances_reach_exhaustive_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        pts = rng.uniform(0, 15, n)
        model = kmeans(pts, k, seed=seed)
        assert model.objective == pytest.approx(exhaustive_optimum(pts, k), abs=1e-9)

    @given(st.integers(-3, 6), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, exponent, seed):
        # Power-of-two factors keep the float arithmetic exactly equivariant.
        c = 2.0 ** exponent
        pts = np.random.default_rng(seed).uniform(1, 20, 30)
        base = kmeans(pts, 3, seed=0)
        scaled = kmeans(c * pts, 3, seed=0)
        assert scaled.centers == pytest.approx([c * v for v in base.centers], rel=1e-12)
        assert scaled.objective == pytest.approx(c * c * base.objective, rel=1e-12)

    @given(st.integers(0, 10_000), st.sampled_from([1e300, 1e-300]))
    @settings(max_examples=50, deadline=None)
    def test_partition_unchanged_by_extreme_factors(self, seed, factor):
        """Squares overflow at 1e300 and underflow at 1e-300; the partition stays."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(1, 20, int(rng.integers(5, 60)))
        base, scaled = kmeans(pts, 3), kmeans(factor * pts, 3)
        selected = select_k(factor * pts, range(2, 5)).silhouette_by_k
        assert scaled.centers == pytest.approx([factor * c for c in base.centers], rel=1e-12)
        assert selected == pytest.approx(select_k(pts, range(2, 5)).silhouette_by_k, rel=1e-9)

    def test_speeds_near_the_float_limit(self):
        speeds = np.random.default_rng(3).uniform(1e307, 1.75e308, 11)
        small = speeds * 2.0 ** -1000  # exact, so the same partition bit for bit
        for k in (2, 3, 4):
            assert kmeans(speeds, k).centers == tuple(
                c * 2.0 ** 1000 for c in kmeans(small, k).centers)
            assert kmeans(speeds, k).objective == np.inf
        assert select_k(speeds, range(2, 10)) == select_k(small, range(2, 10))

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_dp(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        modes = rng.uniform(0, 15, int(rng.integers(1, 10)))
        pts = rng.choice(modes, n) + rng.normal(0, rng.uniform(0.01, 3), n)
        repeat = rng.random(n) < rng.uniform(0, 0.7)  # forced duplicate values
        pts[repeat] = rng.choice(pts, int(repeat.sum()))
        k = int(rng.integers(1, min(9, np.unique(pts).size) + 1))
        assert kmeans(pts, k).objective == pytest.approx(
            reference_dp(pts, k), rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = [1.0, 2.0, 3.0, bad, 5.0]
        with pytest.raises(DomainError):
            kmeans(pts, 2)
        with pytest.raises(DomainError):
            select_k(pts, [2])
        with pytest.raises(DomainError):
            silhouette(pts, [0, 0, 1, 1, 1])


class TestSilhouette:
    def test_hand_computed_pairs(self):
        value = silhouette([0, 1, 10, 11], [0, 0, 1, 1])
        assert value == pytest.approx(0.8998, abs=1e-4)

    def test_singleton_convention(self):
        assert silhouette([0.0, 5.0], [0, 1]) == 0.0

    def test_tends_to_one_with_separation(self):
        rng = np.random.default_rng(5)
        spread = rng.normal(0, 0.5, 50)
        previous = -1.0
        for gap in (5, 20, 100, 1000):
            pts = np.concatenate([spread, spread + gap])
            labels = np.array([0] * 50 + [1] * 50)
            value = silhouette(pts, labels)
            assert value > previous
            previous = value
        assert previous > 0.99

    def test_equal_values_split_across_clusters_score_zero(self):
        # a = b = 0 for the 0.1 points, whose sums must come out exactly 0.
        pts = [0.1] * 24 + [0.7] * 29
        labels = [0] * 12 + [1] * 12 + [2] * 29
        assert silhouette(pts, labels) == pytest.approx(29 / 53, abs=1e-12)

    def test_single_cluster_errors(self):
        with pytest.raises(DomainError):
            silhouette([1, 2, 3], [0, 0, 0])

    @given(st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_bounded_in_minus_one_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        pts = rng.uniform(0, 10, n)
        labels = rng.integers(0, 3, n)
        if len(set(labels.tolist())) < 2:
            return
        assert -1.0 <= silhouette(pts, labels) <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        if rng.random() < 0.5:
            pts = rng.integers(0, 12, n) * 0.5  # many duplicate values
        else:
            pts = rng.uniform(0, 10, n)
        labels = rng.integers(0, int(rng.integers(1, 6)), n)
        labels[rng.integers(n)] = 7  # at least one singleton cluster
        assert silhouette(pts, labels) == pytest.approx(
            reference_silhouette(pts, labels), abs=1e-9
        )


class TestSelectK:
    def test_four_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(c, 0.3, 200) for c in (4.5, 6.5, 8.3, 10.5)])
        selection = select_k(pts, range(2, 7), seed=0)
        assert selection.best_k == 4
        # independent sweep oracle straight from the definition
        for k, value in selection.silhouette_by_k.items():
            model = kmeans(pts, k, seed=0)
            assert value == pytest.approx(
                silhouette(pts, assign_points(pts, model.centers))
            )

    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(3, 0.3, 100), rng.normal(12, 0.3, 100)])
        assert select_k(pts, range(2, 6), seed=0).best_k == 2

    def test_forced_single_candidate(self):
        pts = np.random.default_rng(2).uniform(0, 10, 30)
        assert select_k(pts, [3], seed=0).best_k == 3

    def test_twenty_thousand_speeds(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.normal(c, 0.3, 5000) for c in (4.5, 6.5, 8.3, 10.5)])
        assert select_k(pts, range(2, 10)).best_k == 4


class TestBands:
    def test_midpoints(self):
        model = ClusterModel(k=4, centers=(4.5, 6.5, 8.3, 10.5), objective=0.0)
        assert bands_from_clusters(model).boundaries == pytest.approx((5.5, 7.4, 9.4))

    def test_arithmetic(self):
        model = ClusterModel(k=4, centers=(1.0, 2.0, 3.0, 4.0), objective=0.0)
        assert bands_from_clusters(model).boundaries == (1.5, 2.5, 3.5)

    def test_equal_spacing_preserved(self):
        model = ClusterModel(k=4, centers=(2.0, 5.0, 8.0, 11.0), objective=0.0)
        b = bands_from_clusters(model).boundaries
        assert np.diff(b) == pytest.approx([3.0, 3.0])

    def test_wrong_cardinality(self):
        model = ClusterModel(k=3, centers=(1.0, 2.0, 3.0), objective=0.0)
        with pytest.raises(DomainError):
            bands_from_clusters(model)

    @pytest.mark.parametrize("boundaries", [
        (5.0, 7.0, float("inf")), (5.0, 7.0, float("nan")), (float("nan"), 7.0, 9.0),
        (float("-inf"), 7.0, 9.0), (0.0, 7.0, 9.0), (-1.0, 7.0, 9.0), (5.0, 5.0, 9.0),
        (7.0, 5.0, 9.0), (5.0, 7.0),
    ])
    def test_bands_ascending_positive_finite(self, boundaries):
        with pytest.raises(DomainError, match="boundaries"):
            StateBands(boundaries=boundaries)


class TestClassifySpeed:
    def test_upper_boundary_inclusive(self):
        assert classify_speed(BANDS, 9.38) is TrafficState.SLOW

    def test_just_above_boundary(self):
        assert classify_speed(BANDS, 9.39) is TrafficState.SMOOTH

    def test_lowest_band_inclusive(self):
        assert classify_speed(BANDS, 5.67) is TrafficState.SEVERELY_CONGESTED

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            classify_speed(BANDS, 0.0)

    @pytest.mark.parametrize("v", [np.nan, np.inf])
    def test_non_finite_rejected(self, v):
        with pytest.raises(DomainError):
            classify_speed(BANDS, v)

    @given(st.floats(0.01, 30), st.floats(0.01, 30))
    @settings(max_examples=200)
    def test_monotone_severity(self, v1, v2):
        lo, hi = sorted([v1, v2])
        assert (
            classify_speed(BANDS, lo).severity >= classify_speed(BANDS, hi).severity
        )

    @given(st.floats(0.1, 10), st.floats(0.01, 30))
    @settings(max_examples=100)
    def test_unit_change_invariance(self, c, v):
        scaled = StateBands(boundaries=tuple(c * b for b in BANDS.boundaries))
        assert classify_speed(scaled, c * v) is classify_speed(BANDS, v)


class TestClassifyFlowDensity:
    def test_smooth(self):
        v, state = classify_flow_density(BANDS, 30, 3)
        assert v == pytest.approx(10.0)
        assert state is TrafficState.SMOOTH

    def test_congested(self):
        v, state = classify_flow_density(BANDS, 42, 7)
        assert v == pytest.approx(6.0)
        assert state is TrafficState.CONGESTED

    def test_severely_congested(self):
        v, state = classify_flow_density(BANDS, 20, 4)
        assert v == pytest.approx(5.0)
        assert state is TrafficState.SEVERELY_CONGESTED

    def test_zero_density_rejected(self):
        with pytest.raises(DomainError):
            classify_flow_density(BANDS, 30, 0)

    @pytest.mark.parametrize("flow, density", [
        (np.nan, 4), (np.inf, 4), (30, np.nan), (30, np.inf), (1e308, 1e-308),
    ])
    def test_non_finite_rejected(self, flow, density):
        with pytest.raises(DomainError):
            classify_flow_density(BANDS, flow, density)


class TestStateMetadata:
    def test_colors(self):
        assert TrafficState.SMOOTH.color == "green"
        assert TrafficState.SLOW.color == "yellow"
        assert TrafficState.CONGESTED.color == "red"
        assert TrafficState.SEVERELY_CONGESTED.color == "dark_red"

    def test_severity_order(self):
        assert TrafficState.SEVERELY_CONGESTED.severity == 3
        assert TrafficState.SMOOTH.severity == 0
