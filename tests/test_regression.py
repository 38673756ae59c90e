import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairway.errors import DegenerateFitError, DomainError
from fairway.regression import (
    FAMILIES,
    BinnedPoint,
    _columns,
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


def reference_bin_points(points, width):
    """The dict-of-lists loop that bin_points replaced."""
    buckets = {}
    for x, y in points:
        buckets.setdefault(math.floor(x / width), []).append(y)
    out = [
        BinnedPoint(bin_center=(idx + 0.5) * width, mean_y=float(np.mean(sorted(ys))))
        for idx, ys in buckets.items()
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


def reference_line(fx, fy):
    """Least-squares (slope, intercept) by the closed form, x centred, y from its first value."""
    dx, dy = fx - fx.mean(), fy - fy[0]
    slope = float(dx @ dy) / float(dx @ dx)
    return slope, float(fy.mean()) - slope * float(fx.mean())


def reference_r_squared(y, est):
    """1 - SSE/SST of y in its own units."""
    return 1.0 - float(np.sum((y - est) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def reference_fit(family, x, y):
    """(a, b, R^2) from each family's own straight-line fit, R^2 measured on y."""
    fx = np.log(x) if family in ("logarithmic", "power") else x
    if family in ("linear", "logarithmic"):
        a, b = reference_line(fx, y)
    else:
        slope, intercept = reference_line(fx, np.log(y))
        a, b = math.exp(intercept), slope
    return a, b, reference_r_squared(y, reference_predict(family, a, b, x))


class TestBinPoints:
    def test_single_bin_mean(self):
        out = bin_points([(51, 6), (53, 8)], width=5)
        assert len(out) == 1
        assert out[0].bin_center == pytest.approx(52.5)
        assert out[0].mean_y == pytest.approx(7.0)

    def test_boundary_split(self):
        out = bin_points([(51, 6), (57, 8)], width=5)
        assert [b.bin_center for b in out] == pytest.approx([52.5, 57.5])

    def test_left_closed_right_open(self):
        out = bin_points([(55.0, 1), (54.999, 2)], width=5)
        assert [b.bin_center for b in out] == pytest.approx([52.5, 57.5])

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
           st.sampled_from([0.2, 1.0, 5, 7.5]))
    @settings(max_examples=200)
    def test_matches_dict_of_lists_reference(self, pts, width):
        """Duplicate x and signed zeros: the same bins, bit for bit."""
        got, want = bin_points(pts, width), reference_bin_points(pts, width)
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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_constant_y_is_an_exact_fit(self, family):
        """R^2 1 at any scale and count, though the mean of equal values rounds."""
        for c in (0.05, 0.1, 7.3, 123456.789, 1e6, 1e-9, 3e200):
            for n in (2, 3, 7, 19, 1000):
                pts = [(x, c) for x in np.linspace(4.1, 11.9, n).tolist()]
                assert fit_curve(family, pts).r_squared == 1.0, (c, n)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_constant_y_has_slope_exactly_zero(self, family):
        """Not a rounding residue whose sign decides a positivity check downstream."""
        pts = [(x, 0.05) for x in np.linspace(4.1, 11.9, 19)]
        report = fit_curve(family, pts)
        assert (report.b if family in ("exponential", "power") else report.a) == 0.0

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

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
    @example(seed=522269, family="power")  # x 96.75, 95.19: the amplitude e^758 overflows
    @settings(max_examples=200)
    def test_matches_per_family_reference(self, seed, family):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 300.0, rng.integers(2, 40))
        y = rng.uniform(0.5, 20.0, x.size)
        points = list(zip(x.tolist(), y.tolist()))
        try:
            expected = reference_fit(family, x, y)
        except OverflowError:  # the reference's own e^intercept
            with pytest.raises(DegenerateFitError, match="overflows"):
                fit_curve(family, points)
            return
        report = fit_curve(family, points)
        assert (report.a, report.b, report.r_squared) == expected

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           spread=st.sampled_from([1e-6, 1.0, 1e6]))
    @settings(max_examples=200)
    def test_closed_form_line_agrees_with_polyfit(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 300.0, n) * spread
        y = rng.uniform(-20.0, 20.0, n)
        report = fit_curve("linear", np.column_stack((x, y)))
        slope, intercept = np.polyfit(x, y, 1)
        assert report.a == pytest.approx(slope, rel=1e-9, abs=1e-12 * 40 / spread)
        assert report.b == pytest.approx(intercept, rel=1e-9, abs=1e-9)

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
        message = re.escape("1 offending point(s), the first (-1.0, 2.0)")
        with pytest.raises(DomainError, match=message):
            fit_curve("logarithmic", [(-1, 2), (3, 4)])

    def test_excluded_family_message_stays_short(self, caplog):
        """A vessel standing still logs speed 0: 20,000 points, 5,000 of them at speed 0,
        give a count and the first offender, not a list of every one."""
        speeds = np.tile([0.0, 5.0, 6.0, 7.0], 5_000)
        pts = np.column_stack((np.linspace(5.0, 200.0, speeds.size), speeds))
        message = re.escape("5000 offending point(s), the first (5.0, 0.0)")
        with pytest.raises(DomainError, match=message) as info:
            fit_curve("power", pts)
        assert len(str(info.value)) < 200
        with caplog.at_level("WARNING", logger="fairway.regression"):
            assert [r.family for r in rank_families(pts)] == ["logarithmic", "linear"]
        assert [len(r.getMessage()) < 200 for r in caplog.records] == [True, True]

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


def reference_columns(points):
    """The np.asarray conversion that regression._columns keeps for arrays."""
    return tuple(np.asarray(points, dtype=float).reshape(len(points), 2).T.copy())


def conversion(convert, points):
    """Each column's dtype, contiguity and bit-exact values, or the error class raised."""
    try:
        columns = convert(points)
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return [(c.dtype, c.flags.c_contiguous, [repr(v) for v in c.tolist()]) for c in columns]


ELEMENT = st.one_of(st.floats(), st.integers(-2 ** 80, 2 ** 80),
                    st.sampled_from([None, "1.5", " 2 ", "a", "", "nan", 10 ** 400]))
NUMBER = st.floats() | st.integers(-2 ** 60, 2 ** 60)
PAIRS = st.one_of(
    st.lists(st.tuples(NUMBER, NUMBER), max_size=8),
    st.lists(st.builds(BinnedPoint, NUMBER, NUMBER), max_size=8),
    st.lists(st.tuples(ELEMENT, ELEMENT) | st.lists(ELEMENT, min_size=2, max_size=2), max_size=8),
    st.lists(st.tuples(NUMBER, NUMBER) | st.lists(NUMBER, max_size=3).map(tuple), max_size=8),
    st.lists(st.tuples(NUMBER, NUMBER), max_size=8).map(
        lambda pairs: np.array(pairs, dtype=float).reshape(-1, 2)),
    st.lists(st.floats(), max_size=9).map(np.array),
)


class TestColumns:
    @given(PAIRS)
    @settings(max_examples=400, deadline=None)
    def test_same_as_asarray(self, points):
        """Pairs of tuples, BinnedPoints, lists or arrays: the values, dtype and layout of
        np.asarray(points, float).reshape(n, 2), or its error class on ragged or
        non-numeric pairs."""
        assert conversion(_columns, points) == conversion(reference_columns, points)
