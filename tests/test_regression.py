import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairway.errors import DegenerateFitError, DomainError
from fairway.regression import (
    FAMILIES,
    BinnedPoint,
    bin_points,
    fit_curve,
    predict,
    r_squared,
    rank_families,
)

from reference_data import SPEED_GAP_FITS

GAP_GRID = [float(g) for g in range(20, 301, 20)]


def noiseless(family, a, b, xs):
    return [(x, predict(family, a, b, x)) for x in xs]


def reference_bin_points(points, width, min_count=1):
    """The dict-of-lists loop that bin_points replaced."""
    buckets = {}
    for x, y in points:
        buckets.setdefault(math.floor(x / width), []).append(y)
    out = [
        BinnedPoint(bin_center=(idx + 0.5) * width, mean_y=float(np.mean(sorted(ys))),
                    count=len(ys))
        for idx, ys in buckets.items()
        if len(ys) >= min_count
    ]
    out.sort(key=lambda p: p.bin_center)
    return out


def reference_predict(family, a, b, x):
    """Each family's curve written out, the way it was before the family table."""
    x = np.asarray(x, dtype=float)
    if family == "linear":
        out = a * x + b
    elif family == "logarithmic":
        out = a * np.log(x) + b
    elif family == "exponential":
        out = a * np.exp(b * x)
    else:
        out = a * np.power(x, b)
    return out if out.ndim else float(out)


def reference_fit(family, x, y, original_space_r2):
    """(a, b, R^2, fit_space) from each family's own straight-line fit."""
    fx = np.log(x) if family in ("logarithmic", "power") else x
    if family in ("linear", "logarithmic"):
        a, b = (float(c) for c in np.polyfit(fx, y, 1))
        return a, b, r_squared(y, reference_predict(family, a, b, x)), "original"
    slope, intercept = (float(c) for c in np.polyfit(fx, np.log(y), 1))
    a, b = math.exp(intercept), slope
    if original_space_r2:
        return a, b, r_squared(y, reference_predict(family, a, b, x)), "original"
    return a, b, r_squared(np.log(y), intercept + slope * fx), "transformed"


class TestBinPoints:
    def test_single_bin_mean(self):
        out = bin_points([(51, 6), (53, 8)], width=5)
        assert len(out) == 1
        assert out[0].bin_center == pytest.approx(52.5)
        assert out[0].mean_y == pytest.approx(7.0)
        assert out[0].count == 2

    def test_boundary_split(self):
        out = bin_points([(51, 6), (57, 8)], width=5)
        assert [b.bin_center for b in out] == pytest.approx([52.5, 57.5])

    def test_left_closed_right_open(self):
        out = bin_points([(55.0, 1), (54.999, 2)], width=5)
        assert [b.bin_center for b in out] == pytest.approx([52.5, 57.5])

    def test_min_count_against_naive_oracle(self):
        rng = np.random.default_rng(7)
        pts = [(float(x), float(y)) for x, y in zip(rng.uniform(0, 200, 1000),
                                                    rng.normal(size=1000))]
        out = bin_points(pts, width=5, min_count=3)
        assert all(b.count >= 3 for b in out)
        # naive re-binning oracle
        naive = {}
        for x, y in pts:
            naive.setdefault(math.floor(x / 5), []).append(y)
        expected = {
            (i + 0.5) * 5: (float(np.mean(ys)), len(ys))
            for i, ys in naive.items() if len(ys) >= 3
        }
        got = {b.bin_center: (b.mean_y, b.count) for b in out}
        assert got.keys() == expected.keys()
        for center, (mean_y, count) in expected.items():
            assert got[center][0] == pytest.approx(mean_y, rel=1e-12)
            assert got[center][1] == count

    def test_empty_input(self):
        assert bin_points([], width=5) == []

    @pytest.mark.parametrize("point", [(math.nan, 1.0), (1.0, math.nan),
                                       (math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_points_rejected(self, point):
        with pytest.raises(DomainError):
            bin_points([(1.0, 2.0), point], width=5)

    def test_bin_index_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="bin indices"):
            bin_points([(1.0, 2.0), (1e308, 3.0)], width=0.2)

    def test_array_input(self):
        pts = [(51.0, 6.0), (53.0, 8.0), (57.0, 1.0)]
        assert bin_points(np.array(pts), width=5) == bin_points(pts, width=5)

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, -1e-320, 4.999999, 5.0, -5.0]),
                                        st.floats(-1e6, 1e6)),
                              st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))),
                    max_size=60),
           st.sampled_from([0.2, 1.0, 5, 7.5]), st.integers(0, 4))
    @settings(max_examples=200)
    def test_matches_dict_of_lists_reference(self, pts, width, min_count):
        """Duplicate x, signed zeros and min_count: the same bins, bit for bit."""
        got, want = bin_points(pts, width, min_count), reference_bin_points(pts, width, min_count)
        assert got == want
        assert [math.copysign(1.0, b.mean_y) for b in got] == \
            [math.copysign(1.0, b.mean_y) for b in want]

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(-10, 10)),
                    min_size=1, max_size=50),
           st.randoms())
    @settings(max_examples=50)
    def test_order_independence(self, pts, rnd):
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert bin_points(pts, 5.0) == bin_points(shuffled, 5.0)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_mean_predictor(self):
        assert r_squared([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0)

    def test_hand_sums(self):
        assert r_squared([1, 2, 3], [1.1, 2.0, 2.9]) == pytest.approx(0.81)

    def test_zero_variance_errors(self):
        with pytest.raises(DomainError):
            r_squared([5, 5, 5], [4, 5, 6])

    def test_overflowing_variance_errors(self):
        with pytest.raises(DomainError):
            r_squared([1e308, -1e308, 1e308], [0.0, 0.0, 0.0])

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=3, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_equals_one_minus_sse_sst_for_ols(self, pts):
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        if np.var(x) < 1e-9 or np.var(y) < 1e-12:
            return
        slope, intercept = np.polyfit(x, y, 1)
        y_hat = slope * x + intercept
        sst = np.sum((y - y.mean()) ** 2)
        sse = np.sum((y - y_hat) ** 2)
        assert r_squared(y, y_hat) == pytest.approx(1 - sse / sst, abs=1e-9)


class TestFitCurve:
    def test_recovers_logarithmic_reference(self):
        family, a, b = "logarithmic", 1.3382, 0.4536
        report = fit_curve(family, noiseless(family, a, b, GAP_GRID))
        assert report.a == pytest.approx(a, rel=1e-6)
        assert report.b == pytest.approx(b, rel=1e-6)
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_recovers_power_reference(self):
        family, a, b = "power", 2.4139, 0.2138
        report = fit_curve(family, noiseless(family, a, b, GAP_GRID))
        assert report.a == pytest.approx(a, rel=1e-6)
        assert report.b == pytest.approx(b, rel=1e-6)

    def test_flat_linear(self):
        report = fit_curve("linear", [(x, 5.0) for x in range(1, 11)])
        assert report.a == pytest.approx(0.0, abs=1e-12)
        assert report.b == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "family,a,b",
        [row for rows in SPEED_GAP_FITS.values() for row in rows],
    )
    def test_round_trip_all_reference_fits(self, family, a, b):
        report = fit_curve(family, noiseless(family, a, b, GAP_GRID))
        assert report.a == pytest.approx(a, rel=1e-6)
        assert report.b == pytest.approx(b, rel=1e-6)
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_lists_points(self):
        with pytest.raises(DomainError, match=r"-1"):
            fit_curve("logarithmic", [(-1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(DomainError):
            fit_curve("exponential", [(1.0, -2.0), (3.0, 4.0)])

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES),
           original_space_r2=st.booleans())
    @settings(max_examples=200)
    def test_matches_per_family_reference(self, seed, family, original_space_r2):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 300.0, rng.integers(2, 40))
        y = rng.uniform(0.5, 20.0, x.size)
        report = fit_curve(family, list(zip(x.tolist(), y.tolist())),
                           original_space_r2=original_space_r2)
        assert (report.a, report.b, report.r_squared, report.fit_space) == \
            reference_fit(family, x, y, original_space_r2)

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
    @settings(max_examples=200)
    def test_predict_equals_closed_form(self, seed, family):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0)
        xs = rng.uniform(1e-3, 50.0, 50)
        assert np.array_equal(predict(family, a, b, xs), reference_predict(family, a, b, xs))
        for x in xs[:5].tolist():
            assert predict(family, a, b, x) == reference_predict(family, a, b, x)

    def test_overflowing_amplitude_is_degenerate(self):
        # Two close points with a steep drop: ln(a) = intercept is ~800.
        pts = [(11.932201309325283, 0.5096019305112505), (11.96843421521361, 0.05)]
        with pytest.raises(DegenerateFitError):
            fit_curve("exponential", pts)
        assert "exponential" not in [r.family for r in rank_families(pts)]

    def test_zero_x_variance(self):
        with pytest.raises(DegenerateFitError):
            fit_curve("linear", [(2.0, 1.0), (2.0, 3.0)])

    def test_overflowing_x_variance_is_degenerate(self):
        pts = [(20.0, 5.0), (40.0, 6.0), (1.7e308, 7.0), (60.0, 7.5)]
        for family in ("linear", "exponential"):
            with pytest.raises(DegenerateFitError, match="overflows"):
                fit_curve(family, pts)
        assert sorted(r.family for r in rank_families(pts)) == ["logarithmic", "power"]

    def test_rank_deficient_x_is_degenerate(self):
        # Distinct x, but too close together for a least-squares slope.
        pts = [(1e150, 5.0), (1.0000000000000002e150, 6.0), (1.0000000000000004e150, 7.0)]
        with pytest.raises(DegenerateFitError, match="too close"):
            fit_curve("linear", pts)

    def test_every_family_excluded_gives_no_ranking(self):
        assert rank_families([(20.0, 1e308), (40.0, -1e308), (60.0, 1e308)]) == []

    def test_array_input_and_float_offenders(self):
        pts = [(1.0, 2.0), (3.0, 4.0), (5.0, 7.0)]
        assert fit_curve("power", np.array(pts)) == fit_curve("power", pts)
        with pytest.raises(DomainError, match=re.escape("offending points: [(-1.0, 2.0)]")):
            fit_curve("logarithmic", [(-1, 2), (3, 4)])

    def test_fit_space_flag(self):
        pts = noiseless("exponential", 5.0, 0.01, GAP_GRID)
        assert fit_curve("exponential", pts).fit_space == "transformed"
        assert fit_curve("exponential", pts, original_space_r2=True).fit_space == "original"

    @given(st.floats(0.1, 10), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_y_scale_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(5, 100, 12))
        ys = rng.uniform(1, 20, 12)
        pts = list(zip(xs, ys))
        scaled = [(x, c * y) for x, y in pts]
        for family in FAMILIES:
            base = fit_curve(family, pts)
            scl = fit_curve(family, scaled)
            if family in ("linear", "logarithmic"):
                assert scl.a == pytest.approx(c * base.a, rel=1e-7, abs=1e-10)
                assert scl.b == pytest.approx(c * base.b, rel=1e-7, abs=1e-10)
            else:
                assert scl.a == pytest.approx(c * base.a, rel=1e-7)
                assert scl.b == pytest.approx(base.b, rel=1e-7, abs=1e-10)

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_linear_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 100, 20)
        y = rng.uniform(-10, 10, 20)
        if np.var(x) < 1e-9:
            return
        report = fit_curve("linear", list(zip(x, y)))
        resid = y - (report.a * x + report.b)
        scale = max(1.0, float(np.abs(y).max()) * len(y))
        assert abs(resid.sum()) <= 1e-9 * scale
        assert abs(np.dot(resid, x)) <= 1e-9 * scale * max(1.0, np.abs(x).max())


class TestRankFamilies:
    def test_logarithmic_generator_wins(self):
        pts = noiseless("logarithmic", 1.2, 0.5, GAP_GRID)
        reports = rank_families(pts)
        assert reports[0].family == "logarithmic"
        assert reports[0].r_squared == pytest.approx(1.0, abs=1e-9)

    def test_linear_generator_wins(self):
        pts = noiseless("linear", 0.01, 5.0, GAP_GRID)
        assert rank_families(pts)[0].family == "linear"

    def test_noisy_logarithmic_beats_exponential(self):
        a, b = 0.9816, 1.714
        rng = np.random.default_rng(42)
        pts = [
            (g, (a * math.log(g) + b) * (1 + 0.01 * rng.standard_normal()))
            for g in GAP_GRID
        ]
        by_family = {r.family: r.r_squared for r in rank_families(pts)}
        assert by_family["logarithmic"] > by_family["exponential"]

    def test_family_erroring_is_excluded(self):
        pts = [(x, -1.0 + 0.1 * x) for x in range(1, 12)]  # some y <= 0
        families = [r.family for r in rank_families(pts)]
        assert "exponential" not in families and "power" not in families
        assert set(families) == {"linear", "logarithmic"}
