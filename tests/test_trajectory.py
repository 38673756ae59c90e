import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairway.errors import DomainError, MalformedTrackError
from fairway.trajectory import (
    FleetRun,
    FlowSample,
    FlowSamples,
    VesselMeta,
    VesselTrack,
    density_from_flow_speed,
    derive_gap,
    fleet_density,
    fleet_flow_samples,
    harmonic_mean_speed,
    speed_series,
    summary_stats,
)

from reference_tracks import reference_derive_gap, reference_flow_samples, reference_speed_series


def make_track(coords, position=1, length=40.0, offset=0.0, load="loaded", t0=0):
    meta = VesselMeta(fleet_position=position, length=length,
                      locator_offset=offset, load_state=load)
    return VesselTrack(meta=meta, t=t0 + np.arange(len(coords)),
                       x=[x for x, _ in coords], y=[y for _, y in coords])


def derive_speed(track):
    return speed_series(track)[1].tolist()


def as_reference(track):
    """A columnar track in the reference's (meta, [(t, x, y), ...]) form."""
    return track.meta, list(zip(track.t.tolist(), track.x.tolist(), track.y.tolist()))


class TestDeriveSpeed:
    def test_stationary(self):
        track = make_track([(0, 0), (0, 0)])
        assert derive_speed(track) == [0.0]

    def test_pythagorean(self):
        track = make_track([(0, 0), (3, 4)])
        assert derive_speed(track) == pytest.approx([18.0])

    def test_constant_advance(self):
        track = make_track([(2.5 * i, 0) for i in range(11)])
        speeds = derive_speed(track)
        assert len(speeds) == 10
        assert speeds == pytest.approx([9.0] * 10)

    def test_non_uniform_spacing_names_timestamps(self):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        track = VesselTrack(meta, t=[0, 1, 3], x=[0, 1, 2], y=[0, 0, 0])
        with pytest.raises(MalformedTrackError, match=r"1 fix pair\(s\), first at \(1, 3\)"):
            derive_speed(track)

    # Each id is the track's regular fix spacing in seconds, nan where it has none.
    @pytest.mark.parametrize("t, expected", [
        # Fixes 2 s apart but for one 1 s interval at the end: every 2 s pair is off.
        pytest.param([*range(0, 7200, 2), 7199],
                     "(expected 1s) at 3599 fix pair(s), first at (0, 2)", id="2.0"),
        # Intervals 1, 2, 3, ... s: every pair after the first is off.
        pytest.param(np.cumsum(range(3600)),
                     "(expected 1s) at 3598 fix pair(s), first at (1, 3)", id="nan"),
    ])
    def test_spacing_error_names_first_pair_and_count_only(self, t, expected):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        track = VesselTrack(meta, t=t, x=np.arange(len(t)), y=np.zeros(len(t)))
        with pytest.raises(MalformedTrackError) as info:
            derive_speed(track)
        message = str(info.value)
        assert expected in message
        assert len(message) < 200

    def test_uniform_two_second_spacing(self):
        coords = [(0.0, 0.0), (3.0, 4.0), (3.5, 4.25), (3.5, 4.25), (10.0, -2.0)]
        track = VesselTrack(VesselMeta(1, 40.0, 0.0, "loaded"), t=[10, 12, 14, 16, 18],
                            x=[x for x, _ in coords], y=[y for _, y in coords])
        t, v = speed_series(track)
        assert t.tolist() == [10, 12, 14, 16]
        assert v.tolist() == [math.hypot(b[0] - a[0], b[1] - a[1]) / 2 * 3.6
                              for a, b in zip(coords, coords[1:])]

    def test_interval_past_the_int64_range_is_exact(self):
        track = VesselTrack(VesselMeta(1, 40.0, 0.0, "loaded"), t=[-2 ** 63, 2 ** 63 - 1],
                            x=[0.0, 3e19], y=[0.0, 4e19])
        assert derive_speed(track) == [5e19 / (2 ** 64 - 1) * 3.6]

    def test_keyed_by_earlier_fix(self):
        t, v = speed_series(make_track([(0, 0), (3, 4), (3, 4)], t0=7))
        assert t.tolist() == [7, 8]
        assert v.tolist() == pytest.approx([18.0, 0.0])

    def test_overflowing_speed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="speed overflows at t=0"):
            derive_speed(make_track([(-1e308, 0.0), (1e308, 0.0)]))

    @given(
        st.lists(
            st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
            min_size=2, max_size=20,
        ),
        st.floats(-1e4, 1e4),
        st.floats(-1e4, 1e4),
        st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=50)
    def test_rigid_motion_invariance(self, coords, dx, dy, theta):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        moved = [
            (x * cos_t - y * sin_t + dx, x * sin_t + y * cos_t + dy)
            for x, y in coords
        ]
        a = derive_speed(make_track(coords))
        b = derive_speed(make_track(moved))
        assert a == pytest.approx(b, abs=1e-6)

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2,
                    max_size=30))
    @settings(max_examples=50)
    def test_matches_per_fix_reference_bit_for_bit(self, coords):
        track = make_track(coords, t0=5)
        t, v = speed_series(track)
        assert dict(zip(t.tolist(), v.tolist())) == reference_speed_series(as_reference(track)[1])


class TestDeriveGap:
    def test_collinear_no_offsets(self):
        leader = make_track([(100, 0), (100, 0)], position=1, length=40.0)
        follower = make_track([(0, 0), (0, 0)], position=2)
        gaps = derive_gap(leader, follower)
        assert [g.gap_m for g in gaps] == pytest.approx([60.0, 60.0])
        assert not any(g.overlap_flagged for g in gaps)

    def test_offset_algebra(self):
        leader = make_track([(100, 0)] * 2, position=1, length=40.0, offset=5.0)
        follower = make_track([(0, 0)] * 2, position=2, offset=3.0)
        assert derive_gap(leader, follower).gap_m[0] == pytest.approx(62.0)

    def test_euclidean_with_offsets(self):
        leader = make_track([(30, 40)] * 2, position=1, length=20.0, offset=2.0)
        follower = make_track([(0, 0)] * 2, position=2, offset=1.0)
        assert derive_gap(leader, follower).gap_m[0] == pytest.approx(31.0)

    def test_negative_gap_flagged_not_rejected(self):
        leader = make_track([(10, 0)] * 2, position=1, length=40.0)
        follower = make_track([(0, 0)] * 2, position=2)
        gaps = derive_gap(leader, follower)
        assert gaps.gap_m[0] == pytest.approx(-30.0)
        assert gaps.overlap_flagged[0]

    def test_skips_missing_timestamps(self):
        leader = make_track([(100, 0)] * 5, position=1, length=40.0)
        follower = make_track([(0, 0)] * 3, position=2, t0=2)
        gaps = derive_gap(leader, follower)
        assert [g.t for g in gaps] == [2, 3, 4]

    def test_overflowing_gap_is_a_domain_error(self):
        leader = make_track([(1e308, 0.0)] * 2, position=1)
        follower = make_track([(-1e308, 0.0)] * 2, position=2)
        with pytest.raises(DomainError, match="gap overflows at t=0"):
            derive_gap(leader, follower)

    def test_requires_adjacent_positions(self):
        leader = make_track([(100, 0)] * 2, position=1)
        follower = make_track([(0, 0)] * 2, position=3)
        with pytest.raises(DomainError):
            derive_gap(leader, follower)

    @given(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.floats(1, 100),
        st.floats(0, 20),
        st.floats(0, 20),
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=50)
    def test_translation_invariance_and_formula(self, p1, p2, length, d1, d2, dx, dy):
        def gap_of(a, b):
            leader = make_track([a] * 2, position=1, length=length, offset=d1)
            follower = make_track([b] * 2, position=2, offset=d2)
            return derive_gap(leader, follower).gap_m[0]

        base = gap_of(p1, p2)
        moved = gap_of((p1[0] + dx, p1[1] + dy), (p2[0] + dx, p2[1] + dy))
        assert moved == pytest.approx(base, abs=1e-6)
        # direct re-evaluation oracle
        expected = math.hypot(p1[0] - p2[0], p1[1] - p2[1]) + d1 - d2 - length
        assert base == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                 min_size=2, max_size=12, unique_by=lambda f: f[0]),
        st.lists(st.tuples(st.integers(0, 12), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                 min_size=2, max_size=12, unique_by=lambda f: f[0]),
        st.floats(1, 200), st.floats(0, 50), st.floats(0, 50),
    )
    @settings(max_examples=50)
    def test_matches_per_fix_reference_bit_for_bit(self, lead, foll, length, d1, d2):
        def track(fixes, position, offset):
            fixes = sorted(fixes)
            meta = VesselMeta(position, length, offset, "loaded")
            return VesselTrack(meta, *zip(*fixes))

        leader, follower = track(lead, 1, d1), track(foll, 2, d2)
        try:
            expected = reference_derive_gap(as_reference(leader), as_reference(follower))
        except DomainError:
            with pytest.raises(DomainError):
                derive_gap(leader, follower)
            return
        assert list(derive_gap(leader, follower)) == expected


class TestHarmonicMean:
    def test_identical(self):
        assert harmonic_mean_speed([10.0] * 8) == pytest.approx(10.0)

    def test_hand_sum(self):
        assert harmonic_mean_speed([5] + [10] * 7) == pytest.approx(8.0 / 0.9, abs=1e-3)

    def test_two_values(self):
        assert harmonic_mean_speed([4, 12]) == pytest.approx(6.0)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            harmonic_mean_speed([10, 0])

    @given(
        st.lists(st.floats(0.1, 100), min_size=1, max_size=20),
        st.floats(0.01, 100),
    )
    @settings(max_examples=100)
    def test_scale_homogeneity(self, speeds, c):
        scaled = harmonic_mean_speed([c * v for v in speeds])
        assert scaled == pytest.approx(c * harmonic_mean_speed(speeds), rel=1e-9)

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_never_exceeds_arithmetic_mean(self, speeds):
        assert harmonic_mean_speed(speeds) <= np.mean(speeds) + 1e-9


class TestFleetDensity:
    def test_seven_uniform_gaps(self):
        assert fleet_density([100.0] * 7, [40.0] * 7) == pytest.approx(7 / 0.98, abs=1e-3)

    def test_one_km_spacing(self):
        assert fleet_density([960.0], [40.0]) == pytest.approx(1.0)

    def test_hand_sum(self):
        assert fleet_density([50, 100, 150], [40, 50, 60]) == pytest.approx(3 / 0.45)

    def test_empty_errors(self):
        with pytest.raises(DomainError):
            fleet_density([], [])

    @given(
        st.lists(st.floats(1, 500), min_size=1, max_size=8).flatmap(
            lambda gaps: st.tuples(
                st.just(gaps),
                st.lists(st.floats(10, 80), min_size=len(gaps), max_size=len(gaps)),
            )
        )
    )
    @settings(max_examples=100)
    def test_halves_when_spacing_doubles(self, gaps_lengths):
        gaps, lengths = gaps_lengths
        base = fleet_density(gaps, lengths)
        doubled = fleet_density(
            [2 * g + length for g, length in zip(gaps, lengths)], lengths
        )
        assert doubled == pytest.approx(base / 2, rel=1e-9)


def build_run(n_vessels=8, step=2.5, gap=100.0, length=40.0, duration=5):
    """Column of vessels advancing uniformly in x; constant speed and gaps."""
    tracks = []
    for i in range(n_vessels):
        x0 = -(gap + length) * i
        coords = [(x0 + step * t, 0.0) for t in range(duration)]
        tracks.append(make_track(coords, position=i + 1, length=length))
    return FleetRun(run_id="r1", tracks=tuple(tracks))


def run_flow_samples(run):
    """The run's flow samples from its series, derived once as tracks derive does."""
    speeds = [speed_series(tr) for tr in run.tracks]
    gaps = [derive_gap(a, b) for a, b in zip(run.tracks, run.tracks[1:])]
    return fleet_flow_samples(run, speeds, gaps)


class TestFleetFlowSamples:
    def test_uniform_column(self):
        run = build_run(step=10 / 3.6)
        samples = run_flow_samples(run)
        assert len(samples) == 4
        assert samples.mean_speed[0] == pytest.approx(10.0)
        assert samples.density[0] == pytest.approx(7 / 0.98, abs=1e-3)
        assert samples.flow[0] == pytest.approx(samples.density[0] * samples.mean_speed[0])
        assert samples.stationary == 0

    def test_member_gap_skips_timestamps(self):
        run = build_run(duration=6)
        # Vessel 8 misses the first two seconds.
        short = make_track(
            [(-(140.0) * 7 + 2.5 * t, 0.0) for t in range(2, 6)],
            position=8, t0=2,
        )
        run = FleetRun("r1", run.tracks[:7] + (short,))
        assert run_flow_samples(run).t.tolist() == [2, 3, 4]

    def test_single_timestamp(self):
        run = build_run(duration=2)
        assert len(run_flow_samples(run)) == 1

    def test_stationary_second_is_skipped_not_fatal(self):
        run = build_run(n_vessels=3, duration=5)
        lead = run.tracks[0]
        held = make_track([(lead.x[0] + 2.5 * t, 0.0) for t in (0, 1, 2, 2, 3)],
                          position=1, length=40.0)
        run = FleetRun("r1", (held,) + run.tracks[1:])
        assert speed_series(held)[1][2] == 0.0
        samples = run_flow_samples(run)
        assert samples.t.tolist() == [0, 1, 3]
        assert samples.stationary == 1

    def test_single_vessel_has_no_density(self):
        with pytest.raises(DomainError, match="non-empty"):
            run_flow_samples(build_run(n_vessels=1))

    @given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_matches_per_fix_reference_bit_for_bit(self, n_vessels, holds, seed):
        """Random steps (some zero), gaps and lengths: same bits as the per-fix loop."""
        rng = np.random.default_rng(seed)
        duration = 12
        tracks = []
        for i in range(n_vessels):
            steps = rng.uniform(0.5, 4.0, duration - 1).round(3)
            steps[[h for h in holds if h < duration - 1 and i == h % n_vessels]] = 0.0
            x = -float(rng.uniform(60, 300)) * i + np.concatenate([[0.0], np.cumsum(steps)])
            y = rng.normal(0, 0.3, duration).round(3)
            tracks.append(make_track(list(zip(x.tolist(), y.tolist())), position=i + 1,
                                     length=round(float(rng.uniform(20, 50)), 2),
                                     offset=round(float(rng.uniform(0, 10)), 2)))
        run = FleetRun("r", tuple(tracks))
        expected, stationary = reference_flow_samples(("r", [as_reference(tr) for tr in tracks]))
        s = run_flow_samples(run)
        got = list(zip(s.t.tolist(), s.density.tolist(), s.mean_speed.tolist(), s.flow.tolist()))
        assert got == expected
        assert s.stationary == stationary


class TestDensityFromFlowSpeed:
    def test_exact_division(self):
        assert density_from_flow_speed(30, 10) == pytest.approx(3.0)

    def test_observed_averages(self):
        assert density_from_flow_speed(29.89, 10.44) == pytest.approx(2.863, abs=1e-3)

    def test_zero_flow(self):
        assert density_from_flow_speed(0, 10) == 0.0

    def test_zero_speed_errors(self):
        with pytest.raises(DomainError):
            density_from_flow_speed(30, 0)


# Floats as hypothesis draws them, with the edges of the float range made likely.
ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                           1e-308, 1e308, 1.7976931348623157e308])


class TestNoSilentNonFinite:
    @pytest.mark.parametrize("call", [
        lambda: density_from_flow_speed(1.0, math.nan),
        lambda: density_from_flow_speed(math.inf, 2.0),
        lambda: density_from_flow_speed(-5.0, 2.0),
        lambda: density_from_flow_speed(1e308, 1e-308),
        lambda: harmonic_mean_speed([math.inf, 5.0]),
        lambda: harmonic_mean_speed([math.nan, 5.0]),
        lambda: harmonic_mean_speed([1.7976931348623157e308] * 3),
        lambda: fleet_density([math.inf], [40.0]),
        lambda: fleet_density([math.nan], [40.0]),
        lambda: fleet_density([1e308, 1e308], [40.0, 40.0]),
        lambda: fleet_density([-40.0], [40.0]),
        lambda: fleet_density([-100.0], [40.0]),
        lambda: fleet_density([-30.0, -30.0], [40.0, 10.0]),
    ], ids=["q/nan", "inf/v", "negative q", "q/v past the float range", "inf speed",
            "nan speed", "mean past the float range", "inf gap", "nan gap",
            "occupied length past the float range", "no occupied length",
            "negative occupied length", "negative occupied length over two followers"])
    def test_refused(self, call):
        with pytest.raises(DomainError):
            call()

    @given(st.lists(ANY_FLOAT, min_size=1, max_size=6), st.lists(ANY_FLOAT, min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_helpers_answer_finite_or_refuse(self, a, b):
        """Any floats: a finite space-mean speed >= 0 (0.0 only when a reciprocal overflows),
        a finite fleet density > 0 and a finite density q/v >= 0, or DomainError;
        never nan or inf."""
        n = min(len(a), len(b))
        for helper, args, holds in ((harmonic_mean_speed, (a,), lambda v: v >= 0),
                                    (fleet_density, (a[:n], b[:n]), lambda k: k > 0),
                                    (density_from_flow_speed, (a[0], b[0]), lambda k: k >= 0)):
            try:
                result = helper(*args)
            except DomainError:
                continue
            assert math.isfinite(result) and holds(result), (helper.__name__, args, result)


class TestSummaryStats:
    def test_1_to_100(self):
        stats = summary_stats(list(range(1, 101)))
        assert stats.p15 == pytest.approx(15.85)
        assert stats.median == pytest.approx(50.5)
        assert stats.p85 == pytest.approx(85.15)
        assert stats.mean == pytest.approx(50.5)

    def test_constant(self):
        stats = summary_stats([7, 7, 7])
        assert (stats.p15, stats.median, stats.p85, stats.mean) == (7, 7, 7, 7)

    def test_even_count(self):
        stats = summary_stats([1, 2, 3, 4])
        assert stats.median == pytest.approx(2.5)
        assert stats.mean == pytest.approx(2.5)

    def test_empty_errors(self):
        with pytest.raises(DomainError):
            summary_stats([])

    def test_overflowing_percentiles_error(self):
        with pytest.raises(DomainError, match="must be finite"):
            summary_stats([1e308, -1e308])


class TestInvariantEnforcement:
    def test_flow_is_not_an_input(self):
        with pytest.raises(TypeError):
            FlowSample(density=3.0, mean_speed=10.0, flow=30.0)
        with pytest.raises(TypeError):
            FlowSamples(density=np.ones(2), mean_speed=np.ones(2), flow=np.ones(2))
        with pytest.raises(TypeError):  # a flow passed by position cannot land in t
            FlowSample(3.0, 10.0, 30.0)

    @given(st.lists(st.tuples(st.floats(1e-300, 1e150), st.floats(0, 1e150)), min_size=1))
    def test_flow_is_density_times_speed_bit_for_bit(self, pairs):
        k, v = (np.array(column) for column in zip(*pairs))
        assert np.array_equal(FlowSamples(density=k, mean_speed=v).flow, k * v)
        assert [FlowSample(density=a, mean_speed=b).flow for a, b in pairs] == (k * v).tolist()

    @pytest.mark.parametrize("density, speed", [
        ([1.0, 0.0], [5.0, 5.0]), ([1.0, math.inf], [5.0, 5.0]), ([1.0, 2.0], [5.0, -1.0]),
        ([1.0, 2.0], [5.0, math.nan]),
    ])
    def test_flow_batch_checked_once(self, density, speed):
        k, v = np.array(density), np.array(speed)
        with pytest.raises(DomainError):
            FlowSamples(t=np.arange(2), density=k, mean_speed=v)

    def test_track_needs_two_fixes(self):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        with pytest.raises(MalformedTrackError):
            VesselTrack(meta, t=[0], x=[0.0], y=[0.0])

    @pytest.mark.parametrize("t", [[0, 0, 1], [0, 2, 1]])
    def test_track_timestamps_strictly_increasing(self, t):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        with pytest.raises(MalformedTrackError, match="strictly increasing"):
            VesselTrack(meta, t=t, x=[0.0] * 3, y=[0.0] * 3)

    def test_track_columns_equal_length(self):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        with pytest.raises(MalformedTrackError, match="one length"):
            VesselTrack(meta, t=[0, 1], x=[0.0, 1.0, 2.0], y=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_track_coordinates_finite(self, bad):
        meta = VesselMeta(1, 40.0, 0.0, "loaded")
        with pytest.raises(DomainError, match="non-finite coordinates at t=1"):
            VesselTrack(meta, t=[0, 1], x=[0.0, 0.0], y=[0.0, bad])
        VesselTrack(meta, t=[0, 1], x=[1e308, 1e308], y=[1e308, 1e308])

    def test_track_columns_are_typed_read_only_copies(self):
        x = [0.0, 1.5]
        track = VesselTrack(VesselMeta(1, 40.0, 0.0, "loaded"), t=[3, 4], x=x, y=[0, 0])
        assert track.t.dtype == np.int64 and track.y.dtype == np.float64
        with pytest.raises(ValueError):
            track.x[0] = 9.0

    def test_track_equality_compares_columns(self):
        a = make_track([(0, 0), (1, 0)])
        assert a == make_track([(0, 0), (1, 0)])
        assert a != make_track([(0, 0), (2, 0)])
        assert a != make_track([(0, 0), (1, 0)], t0=1)
        assert a != make_track([(0, 0), (1, 0)], length=41.0)

    def test_fleet_positions_consecutive(self):
        t1 = make_track([(0, 0)] * 2, position=1)
        t3 = make_track([(0, 0)] * 2, position=3)
        with pytest.raises(MalformedTrackError):
            FleetRun("r", (t1, t3))

    def test_meta_validation(self):
        with pytest.raises(DomainError):
            VesselMeta(1, -5.0, 0.0, "loaded")
        with pytest.raises(DomainError):
            VesselMeta(1, 40.0, 0.0, "half-full")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_meta_length_and_offset_finite(self, bad):
        with pytest.raises(DomainError, match="length"):
            VesselMeta(1, bad, 0.0, "loaded")
        with pytest.raises(DomainError, match="locator_offset"):
            VesselMeta(1, 40.0, bad, "loaded")
