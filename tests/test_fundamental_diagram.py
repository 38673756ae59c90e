import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairway import fundamental_diagram
from fairway.errors import (
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NoFeasibleDensityError,
)
from fairway.fundamental_diagram import (
    ALL_FORMS,
    FdModel,
    derive_characteristics,
    economic_speed,
    estimate_breakpoint,
    fit_fd,
    flow_at_density,
    recommend_minimums,
    speed_at_density,
)
from fairway.regression import fit_curve
from fairway.trajectory import FlowSample, FlowSamples

from reference_data import (
    CLASSICAL_CHARACTERISTICS,
    K1,
    PIECEWISE_CHARACTERISTICS,
    SPEED_DENSITY_FITS,
    V_F_PIECEWISE,
    V_MIN,
)

K_GRID = [0.5 + 0.5 * i for i in range(20)]  # 0.5 .. 10.0


def make_model(form, c1, c2):
    if form.startswith("piecewise"):
        return FdModel(form, c1, c2, v_f=V_F_PIECEWISE, k1=K1)
    return FdModel(form, c1, c2)


def samples_from(model, ks):
    return [
        FlowSample.from_density_speed(k, speed_at_density(model, k)) for k in ks
    ]


def random_valid_model(rng) -> tuple[FdModel, float]:
    """A random model plus a v_min guaranteed feasible, with bounded k_max."""
    form = ALL_FORMS[rng.integers(len(ALL_FORMS))]
    shape = {"greenshields": "linear", "piecewise_linear": "linear",
             "greenberg": "log", "piecewise_log": "log"}.get(form, "exp")
    if shape == "linear":
        c1 = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(8.0, 20.0)
        v_min = rng.uniform(0.15, 0.5) * c2
        k_max = (c2 - v_min) / c1
    elif shape == "log":
        c1 = rng.uniform(1.5, 4.0)
        k_max = rng.uniform(10.0, 30.0)
        v_min = rng.uniform(0.5, 3.0)
        c2 = v_min + c1 * math.log(k_max)
    else:
        c1 = rng.uniform(8.0, 20.0)
        c2 = rng.uniform(0.05, 0.3)
        v_min = rng.uniform(0.15, 0.4) * c1
        k_max = math.log(c1 / v_min) / c2
    if form.startswith("piecewise"):
        k1 = rng.uniform(0.2, 0.6) * k_max
        # Valid plateau: free-flow speed at or above the branch value at k1,
        # so the jump at the breakpoint is a drop (or absent).
        classical = {
            "piecewise_linear": "greenshields",
            "piecewise_log": "greenberg",
            "piecewise_exp": "underwood",
        }[form]
        branch_at_k1 = speed_at_density(FdModel(classical, c1, c2), k1)
        v_f = branch_at_k1 * rng.uniform(1.0, 1.4)
        return FdModel(form, c1, c2, v_f=v_f, k1=k1), v_min
    return FdModel(form, c1, c2), v_min


PIECEWISE = ("piecewise_linear", "piecewise_log", "piecewise_exp")


def random_branch(rng, form):
    """Positive branch coefficients of the size the published fits have."""
    if form in ("greenshields", "piecewise_linear"):
        return rng.uniform(0.2, 2.0), rng.uniform(8.0, 20.0)
    if form in ("greenberg", "piecewise_log"):
        return rng.uniform(1.0, 4.0), rng.uniform(6.0, 20.0)
    return rng.uniform(6.0, 20.0), rng.uniform(0.02, 0.4)


def reference_speed(form, c1, c2, v_f, k1, k):
    """v(k) written out per shape, the way it was before the shape table."""
    k = np.asarray(k, dtype=float)
    if form in ("greenshields", "piecewise_linear"):
        out = -c1 * k + c2
    elif form in ("greenberg", "piecewise_log"):
        out = -c1 * np.log(k) + c2
    else:
        out = c1 * np.exp(-c2 * k)
    if form in PIECEWISE:
        out = np.where(k <= k1, v_f, out)
    return out if out.ndim else float(out)


def reference_breakpoint(samples, v_f, candidates, form):
    """The breakpoint search as a per-sample loop; None when no candidate is usable."""
    family = {"piecewise_linear": "linear", "piecewise_log": "logarithmic",
              "piecewise_exp": "exponential"}[form]
    best = None
    for cand in sorted(candidates):
        branch = [(s.density, s.mean_speed) for s in samples if s.density > cand]
        if len(branch) < 2:
            continue
        try:
            fit = fit_curve(family, branch)
        except (DomainError, DegenerateFitError):
            continue
        c1, c2 = (fit.a, -fit.b) if family == "exponential" else (-fit.a, fit.b)
        if c1 <= 0 or c2 <= 0:
            continue
        sse = sum((s.mean_speed - reference_speed(form, c1, c2, v_f, cand, s.density)) ** 2
                  for s in samples)
        if best is None or sse < best[0]:
            best = (sse, cand)
    return None if best is None else best[1]


def grid_optimum(model, k_max, step=1e-4):
    ks = np.arange(step, k_max + step / 2, step)
    q = np.asarray(ks) * speed_at_density(model, ks)
    i = int(np.argmax(q))
    return float(ks[i]), float(q[i])


class TestSpeedAtDensity:
    def test_greenshields_at_zero(self):
        model = FdModel("greenshields", 0.7634, 11.817)
        assert speed_at_density(model, 0.0) == pytest.approx(11.817)

    def test_piecewise_plateau(self):
        model = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        assert speed_at_density(model, 3.0) == pytest.approx(10.5)

    def test_piecewise_discontinuous_drop(self):
        model = FdModel("piecewise_linear", 0.667, 10.92, v_f=10.5, k1=4.0)
        assert speed_at_density(model, 4.0) == pytest.approx(10.5)
        assert speed_at_density(model, 4.0001) == pytest.approx(8.252, abs=1e-3)

    def test_log_form_rejects_zero(self):
        with pytest.raises(DomainError):
            speed_at_density(FdModel("greenberg", 2.502, 11.227), 0.0)

    @given(st.integers(0, 1000))
    @settings(max_examples=100)
    def test_strictly_decreasing_on_non_free_branch(self, seed):
        rng = np.random.default_rng(seed)
        model, v_min = random_valid_model(rng)
        lo = model.k1 if model.is_piecewise else 0.0
        hi = 1.5 * max(lo + 1.0, 10.0)
        ks = np.linspace(lo + 1e-6, hi, 10_000)
        v = speed_at_density(model, ks)
        assert np.all(np.diff(v) < 0)

    @given(st.integers(0, 200))
    @settings(max_examples=50)
    def test_piecewise_free_branch_flow_linear(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            model, _ = random_valid_model(rng)
            if model.is_piecewise:
                break
        ks = np.linspace(1e-6, model.k1, 100)
        assert np.all(speed_at_density(model, ks) == model.v_f)
        q = np.asarray([flow_at_density(model, k) for k in ks])
        assert q == pytest.approx(ks * model.v_f)


class TestFlowAtDensity:
    def test_free_branch_capacity(self):
        model = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        assert flow_at_density(model, 4.0) == pytest.approx(42.0)

    def test_vanishes_at_low_density(self):
        model = FdModel("greenshields", 0.7634, 11.817)
        assert flow_at_density(model, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_greenshields_at_optimum(self):
        model = FdModel("greenshields", 0.7634, 11.817)
        assert flow_at_density(model, 7.7397) == pytest.approx(45.73, abs=1e-2)


class TestDeriveCharacteristics:
    @pytest.mark.parametrize("form,c1,c2,v_f,v_m,k_m,q_m,k_max", CLASSICAL_CHARACTERISTICS)
    def test_classical_reference_rows(self, form, c1, c2, v_f, v_m, k_m, q_m, k_max):
        chars = derive_characteristics(FdModel(form, c1, c2), V_MIN)
        if v_f is None:
            assert chars.v_f is None
        else:
            assert chars.v_f == pytest.approx(v_f, rel=5e-3)
        assert chars.v_m == pytest.approx(v_m, rel=5e-3)
        assert chars.k_m == pytest.approx(k_m, rel=5e-3)
        assert chars.q_m == pytest.approx(q_m, rel=5e-3)
        assert chars.k_max == pytest.approx(k_max, rel=5e-3)

    @pytest.mark.parametrize("form,c1,c2,v_m,k_m,q_m,k_max", PIECEWISE_CHARACTERISTICS)
    def test_piecewise_reference_rows(self, form, c1, c2, v_m, k_m, q_m, k_max):
        chars = derive_characteristics(make_model(form, c1, c2), V_MIN)
        assert chars.v_f == pytest.approx(V_F_PIECEWISE)
        assert chars.v_m == pytest.approx(v_m, rel=5e-3)
        assert chars.k_m == pytest.approx(k_m, rel=5e-3)
        assert chars.q_m == pytest.approx(q_m, rel=5e-3)
        assert chars.k_max == pytest.approx(k_max, rel=5e-3)

    def test_log_form_boundary_constrained(self):
        # Unconstrained optimum exp(c2/c1 - 1) exceeds k_max, so the boundary wins.
        chars = derive_characteristics(FdModel("greenberg", 2.502, 11.227), V_MIN)
        assert math.exp(11.227 / 2.502 - 1) > chars.k_max
        assert chars.k_m == pytest.approx(chars.k_max)
        assert chars.v_m == pytest.approx(V_MIN)

    def test_infeasible_v_min(self):
        with pytest.raises(NoFeasibleDensityError):
            derive_characteristics(FdModel("greenshields", 0.7634, 11.817), 12.0)

    @given(st.integers(0, 2000))
    @settings(max_examples=200, deadline=None)
    def test_consistency_and_speed_at_k_max(self, seed):
        rng = np.random.default_rng(seed)
        model, v_min = random_valid_model(rng)
        chars = derive_characteristics(model, v_min)
        assert chars.q_m == pytest.approx(chars.k_m * chars.v_m, rel=1e-9)
        assert speed_at_density(model, chars.k_max) == pytest.approx(v_min, abs=1e-6)
        if chars.v_f is not None:
            assert v_min - 1e-9 <= chars.v_m <= chars.v_f + 1e-9

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_brute_force_never_beats_analytic(self, seed):
        rng = np.random.default_rng(seed)
        model, v_min = random_valid_model(rng)
        chars = derive_characteristics(model, v_min)
        _, q_best = grid_optimum(model, chars.k_max)
        assert q_best <= chars.q_m + 1e-3

    @pytest.mark.parametrize("v_min", [math.nan, math.inf, 0.0])
    def test_non_finite_v_min_rejected(self, v_min):
        with pytest.raises(DomainError):
            derive_characteristics(FdModel("greenshields", 0.7634, 11.817), v_min)

    def test_v_min_above_exp_branch_amplitude(self):
        # The plateau v_f = 10.5 is above v_min, but the branch starts at c1 = 6.
        with pytest.raises(NoFeasibleDensityError):
            derive_characteristics(FdModel("piecewise_exp", 6.0, 0.115, v_f=10.5, k1=4.0), 7.0)

    def test_log_form_reports_no_free_flow_speed(self):
        chars = derive_characteristics(FdModel("greenberg", 2.502, 11.227), V_MIN)
        assert chars.v_f is None


class TestFitFd:
    @pytest.mark.parametrize("form,c1,c2", SPEED_DENSITY_FITS)
    def test_classical_round_trip(self, form, c1, c2):
        model, report = fit_fd(form, samples_from(make_model(form, c1, c2), K_GRID))
        assert model.c1 == pytest.approx(c1, rel=1e-4)
        assert model.c2 == pytest.approx(c2, rel=1e-4)
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_piecewise_round_trip(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, K_GRID)
        model, report = fit_fd("piecewise_exp", samples, v_f=10.5, k1=4.0)
        assert model.c1 == pytest.approx(13.62, rel=1e-4)
        assert model.c2 == pytest.approx(0.115, rel=1e-4)
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)
        assert report.fit_space == "original"

    def test_all_samples_below_breakpoint(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, [0.5, 1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            fit_fd("piecewise_exp", samples, v_f=10.5, k1=4.0)

    def test_piecewise_requires_v_f(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError):
            fit_fd("piecewise_exp", samples_from(truth, K_GRID), k1=4.0)

    @pytest.mark.parametrize("v_f", [math.nan, math.inf])
    def test_non_finite_v_f_rejected(self, v_f):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError):
            fit_fd("piecewise_exp", samples_from(truth, K_GRID), v_f=v_f, k1=4.0)
        with pytest.raises(DomainError):
            fit_fd("piecewise_exp", samples_from(truth, K_GRID), v_f=v_f,
                   k1_candidates=[3.0, 4.0])


class TestEstimateBreakpoint:
    def test_recovers_generator_breakpoint(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        ks = [0.25 * i for i in range(1, 49)]  # 0.25 .. 12.0
        samples = samples_from(truth, ks)
        candidates = [2.0, 3.0, 4.0, 5.0, 6.0]
        assert estimate_breakpoint(samples, 10.5, candidates) == 4.0

    def test_matches_exhaustive_sse_oracle(self):
        rng = np.random.default_rng(3)
        ks = np.linspace(0.5, 12, 40)
        vs = np.clip(12.0 - 0.8 * ks + rng.normal(0, 0.2, ks.size), 0.5, None)
        samples = [FlowSample.from_density_speed(float(k), float(v))
                   for k, v in zip(ks, vs)]
        candidates = [1.0, 2.0]
        picked = estimate_breakpoint(samples, 10.5, candidates, form="piecewise_linear")

        def sse_for(cand):
            branch = [(s.density, s.mean_speed) for s in samples if s.density > cand]
            from fairway.regression import fit_curve
            rep = fit_curve("linear", branch)
            total = 0.0
            for s in samples:
                pred = 10.5 if s.density <= cand else rep.a * s.density + rep.b
                total += (s.mean_speed - pred) ** 2
            return total

        assert picked == min(candidates, key=sse_for)

    def test_single_candidate(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, K_GRID)
        assert estimate_breakpoint(samples, 10.5, [4.0]) == 4.0

    def test_no_usable_candidate(self):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, [1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            estimate_breakpoint(samples, 10.5, [5.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_candidate_rejected(self, bad):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError):
            estimate_breakpoint(samples_from(truth, K_GRID), 10.5, [3.0, bad, 4.0])

    @pytest.mark.parametrize("v_f", [math.nan, math.inf])
    def test_non_finite_v_f_rejected(self, v_f):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError):
            estimate_breakpoint(samples_from(truth, K_GRID), v_f, [3.0, 4.0])

    def test_one_prediction_call_per_candidate(self, monkeypatch):
        calls = []
        real = fundamental_diagram.speed_at_density

        def counting(model, k):
            calls.append(np.ndim(k))
            return real(model, k)

        monkeypatch.setattr(fundamental_diagram, "speed_at_density", counting)
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, [0.01 * i for i in range(1, 1201)])
        candidates = [float(c) for c in range(1, 11)]
        assert estimate_breakpoint(samples, 10.5, candidates) == 4.0
        assert calls == [1] * len(candidates)

    @given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(PIECEWISE),
           n_candidates=st.integers(1, 40))
    @example(seed=51753, form="piecewise_exp", n_candidates=4)  # an amplitude overflows
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sample_reference(self, seed, form, n_candidates):
        rng = np.random.default_rng(seed)
        c1, c2 = random_branch(rng, form)
        k1 = rng.uniform(1.0, 5.0)
        branch_at_k1 = reference_speed(form, c1, c2, 0.0, 0.0, k1)
        v_f = max(branch_at_k1, 1.0) * rng.uniform(1.0, 1.3)
        ks = np.sort(rng.uniform(0.2, 12.0, rng.integers(5, 80)))
        vs = reference_speed(form, c1, c2, v_f, k1, ks)
        vs = np.clip(vs + rng.normal(0.0, rng.uniform(0.05, 1.0), ks.size), 0.05, None)
        samples = [FlowSample.from_density_speed(float(k), float(v)) for k, v in zip(ks, vs)]
        # Half the candidates sit exactly on a sample density.
        candidates = [float(rng.choice(ks)) if rng.random() < 0.5 else rng.uniform(0.1, 12.0)
                      for _ in range(n_candidates)]
        expected = reference_breakpoint(samples, v_f, candidates, form)
        if expected is None:
            with pytest.raises(InsufficientDataError):
                estimate_breakpoint(samples, v_f, candidates, form=form)
        else:
            assert estimate_breakpoint(samples, v_f, candidates, form=form) == expected


class TestFlowSamplesBatch:
    @given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(ALL_FORMS))
    @settings(max_examples=100, deadline=None)
    def test_batch_and_list_give_equal_fits(self, seed, form):
        """One FlowSamples batch and the equivalent FlowSample list: the same models."""
        rng = np.random.default_rng(seed)
        c1, c2 = random_branch(rng, form)
        v_f, k1 = (rng.uniform(8.0, 15.0), rng.uniform(1.0, 5.0)) \
            if form in PIECEWISE else (None, None)
        ks = np.sort(rng.uniform(0.2, 12.0, rng.integers(3, 60)))
        vs = np.clip(reference_speed(form, c1, c2, v_f, k1, ks)
                     + rng.normal(0.0, rng.uniform(0.05, 1.0), ks.size), 0.05, None)
        batch = FlowSamples(density=ks, mean_speed=vs, flow=ks * vs)
        listed = [FlowSample.from_density_speed(k, v) for k, v in zip(ks.tolist(), vs.tolist())]
        candidates = sorted(rng.uniform(0.5, 8.0, 6).tolist())

        def outcome(samples):
            kwargs = {"v_f": v_f, "k1_candidates": candidates} if form in PIECEWISE else {}
            try:
                fit = fit_fd(form, samples, **kwargs)
            except (DomainError, DegenerateFitError, InsufficientDataError) as exc:
                fit = repr(exc)
            if form not in PIECEWISE:
                return fit
            try:
                return fit, estimate_breakpoint(samples, v_f, candidates, form=form)
            except InsufficientDataError as exc:
                return fit, repr(exc)

        assert outcome(batch) == outcome(listed)

    def test_batch_needs_no_timestamps(self):
        truth = FdModel("greenshields", 0.7634, 11.817)
        ks = np.array(K_GRID)
        vs = speed_at_density(truth, ks)
        batch = FlowSamples(density=ks, mean_speed=vs, flow=ks * vs)
        assert batch.t is None and len(batch) == len(K_GRID)
        assert fit_fd("greenshields", batch) == fit_fd("greenshields", samples_from(truth, K_GRID))


class TestEconomicSpeed:
    def test_combined_from_class_medians(self):
        result = economic_speed({"loaded": [9.0], "empty": [12.0]})
        assert result.combined_v_f == pytest.approx(10.5)

    def test_constant_classes(self):
        result = economic_speed({"loaded": [8, 8], "empty": [8, 8, 8]})
        assert (result.loaded_median, result.empty_median, result.combined_v_f) == (8, 8, 8)

    def test_hand_medians(self):
        result = economic_speed({"loaded": [8, 9, 10], "empty": [11, 12, 13]})
        assert result.loaded_median == pytest.approx(9.0)
        assert result.empty_median == pytest.approx(12.0)
        assert result.combined_v_f == pytest.approx(10.5)

    def test_empty_class_errors(self):
        with pytest.raises(DomainError):
            economic_speed({"loaded": [], "empty": [12.0]})

    def test_overflowing_mean_of_medians_errors(self):
        with pytest.raises(DomainError, match="must be finite"):
            economic_speed({"loaded": [1.5e308], "empty": [1.7e308]})


class TestRecommendMinimums:
    def test_constant_speeds(self):
        assert recommend_minimums([5.0] * 10, [10.0] * 10).v_min == pytest.approx(5.0)

    def test_interpolated_order_statistic(self):
        speeds = [float(v) for v in range(1, 1001)]
        result = recommend_minimums(speeds, [10.0] * 10, tail_fraction=0.001)
        assert result.v_min == pytest.approx(1.999, abs=1e-9)

    def test_uniform_gaps_monte_carlo(self):
        rng = np.random.default_rng(11)
        gaps = rng.uniform(10, 300, 10_000)
        result = recommend_minimums([5.0] * 10, gaps, tail_fraction=0.001)
        assert 10.0 <= result.g_min <= 11.0
        assert result.g_min == pytest.approx(float(np.quantile(gaps, 0.001)))

    def test_tail_fraction_bounds(self):
        with pytest.raises(DomainError):
            recommend_minimums([1.0], [1.0], tail_fraction=0.7)

    def test_overflowing_quantile_errors(self):
        with pytest.raises(DomainError, match="must be finite"):
            recommend_minimums([1e308, -1e308, 1.5e308], [10.0, 20.0])


class TestModelValidation:
    def test_coefficients_must_be_positive(self):
        with pytest.raises(DomainError):
            FdModel("greenshields", -0.5, 11.0)

    def test_piecewise_requires_breakpoint(self):
        with pytest.raises(DomainError):
            FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5)

    def test_classical_rejects_breakpoint(self):
        with pytest.raises(DomainError):
            FdModel("underwood", 12.999, 0.107, k1=4.0)

    @pytest.mark.parametrize("field", ["c1", "c2", "v_f", "k1"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_non_finite_fields_rejected(self, field, bad):
        values = {"c1": 13.62, "c2": 0.115, "v_f": 10.5, "k1": 4.0, field: bad}
        with pytest.raises(DomainError):
            FdModel("piecewise_exp", **values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_classical_v_f_if_given_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            FdModel("greenshields", 0.7634, 11.817, v_f=bad)


class TestClosedFormReference:
    """The shape table reproduces the per-shape closed forms bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(ALL_FORMS))
    @settings(max_examples=200, deadline=None)
    def test_speed_equals_closed_form(self, seed, form):
        rng = np.random.default_rng(seed)
        c1, c2 = random_branch(rng, form)
        v_f, k1 = (rng.uniform(5.0, 15.0), rng.uniform(0.5, 6.0)) \
            if form in PIECEWISE else (None, None)
        model = FdModel(form, c1, c2, v_f=v_f, k1=k1)
        ks = rng.uniform(1e-3, 30.0, 50)
        if k1 is not None:
            ks[0] = k1  # the breakpoint itself is still free-flow
        assert np.array_equal(speed_at_density(model, ks),
                              reference_speed(form, c1, c2, v_f, k1, ks))
        for k in ks[:5].tolist():
            assert speed_at_density(model, k) == reference_speed(form, c1, c2, v_f, k1, k)
            assert flow_at_density(model, k) == k * reference_speed(form, c1, c2, v_f, k1, k)
