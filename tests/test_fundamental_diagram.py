import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    CharacteristicParams,
    FdModel,
    derive_characteristics,
    economic_speed,
    estimate_breakpoint,
    fit_fd,
    flow_at_density,
    recommend_minimums,
    speed_at_density,
)
from fairway.regression import FAMILIES, fit_curve, predict, r_squared
from fairway.trajectory import FlowSample, FlowSamples

import reference_fd
from reference_data import (
    CLASSICAL_CHARACTERISTICS,
    K1,
    PIECEWISE_CHARACTERISTICS,
    SPEED_DENSITY_FITS,
    V_F_PIECEWISE,
    V_MIN,
)

K_GRID = [0.5 + 0.5 * i for i in range(20)]  # 0.5 .. 10.0
NOT_FINITE_POSITIVE = (math.nan, math.inf, -math.inf, 0.0, -1.0)


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


SCAN_CANDIDATES = [float(c) for c in range(1, 11)]


def count_curve_calls(monkeypatch):
    """1,200 piecewise_exp samples, with the family curve's argument sizes and any
    speed_at_density, predict or fit_curve call recorded instead of made."""
    truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
    samples = samples_from(truth, [0.01 * i for i in range(1, 1201)])
    sizes, calls = [], []
    real_family = fundamental_diagram._family

    def counting_family(name):
        spec = real_family(name)

        def curve(a, b, k):
            sizes.append(np.size(k))
            return spec.curve(a, b, k)

        return spec._replace(curve=curve)

    monkeypatch.setattr(fundamental_diagram, "_family", counting_family)
    for name in ("speed_at_density", "predict", "fit_curve"):
        monkeypatch.setattr(fundamental_diagram, name,
                            lambda *args, name=name: calls.append(name))
    return samples, sizes, calls


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

    @pytest.mark.parametrize("form,c1,c2", [("piecewise_exp", 6.0, 0.115),
                                            ("piecewise_linear", 0.3, 6.0)],
                             ids=["piecewise_exp", "piecewise_linear"])
    def test_v_min_above_branch_speed_at_zero(self, form, c1, c2):
        # The plateau v_f = 10.5 is above v_min, but the branch starts at 6 (c1 for
        # the exp shape, the intercept c2 for the linear shape).
        with pytest.raises(NoFeasibleDensityError,
                           match=r"puts k_max at -[0-9.]+, not above the breakpoint k1=4$"):
            derive_characteristics(FdModel(form, c1, c2, v_f=10.5, k1=4.0), 7.0)

    def test_log_branch_underflowing_to_zero_density_names_the_bound(self):
        # exp((c2 - v_min) / c1) = exp(-799) underflows to k_max = 0: no plateau to name.
        with pytest.raises(NoFeasibleDensityError, match=r"puts k_max at 0, not above 0$"):
            derive_characteristics(FdModel("greenberg", 1.0, 1.0), 800.0)

    @given(st.sampled_from(ALL_FORMS), *[st.floats(1e-6, 1e6)] * 5)
    @example("piecewise_exp", 5e-324, 1.0, 10.0, 1.0, 2.0)  # c1 / v_min underflows to 0
    @example("piecewise_linear", 1.0, 6.0, 10.0, 1.0, 6.0)  # v_min at the branch speed at 0
    @example("piecewise_exp", 6.0, 1.0, 10.0, 1.0, 6.0)
    @example("greenshields", 1.0, 6.0, 10.0, 1.0, 6.0)
    @settings(max_examples=500, deadline=None)
    def test_feasibility_matches_the_three_test_rule(self, form, c1, c2, v_f, k1, v_min):
        """Infeasible exactly when v_min reaches the free-flow speed, then the branch
        speed at k -> 0+, then puts k_max at or below k1 (0 for classical forms)."""
        piecewise = form in PIECEWISE
        model = FdModel(form, c1, c2, v_f=v_f, k1=k1) if piecewise else FdModel(form, c1, c2)
        linear = form in ("greenshields", "piecewise_linear")
        log = form in ("greenberg", "piecewise_log")
        branch_v0 = c2 if linear else None if log else c1
        sup_v = v_f if piecewise else branch_v0
        try:
            k_max = ((c2 - v_min) / c1 if linear else math.exp((c2 - v_min) / c1) if log
                     else math.log(c1 / v_min) / c2)
        except (OverflowError, ValueError):  # past the float range; c1 / v_min == 0
            k_max = math.nan
        infeasible = (sup_v is not None and v_min >= sup_v
                      or branch_v0 is not None and v_min >= branch_v0
                      or k_max <= (k1 if piecewise else 0.0))
        try:
            derive_characteristics(model, v_min)
        except NoFeasibleDensityError:
            assert infeasible
        except DomainError:  # a closed form or a result past the float range
            assert not infeasible
        else:
            assert not infeasible

    def test_log_form_reports_no_free_flow_speed(self):
        chars = derive_characteristics(FdModel("greenberg", 2.502, 11.227), V_MIN)
        assert chars.v_f is None


POSITIVE_FLOATS = st.floats(0.0, exclude_min=True, allow_infinity=False)


class TestOverflowIsQuiet:
    """Finite coefficients past what the float range can evaluate end in a value
    or a DomainError; numpy's overflow warning never reaches the caller."""

    def test_characteristics_past_the_float_range_raise(self):
        model = FdModel("greenshields", 4.791402715687035e+16, 1.7976931348623157e+308)
        with pytest.raises(DomainError, match="every field must be finite"):
            derive_characteristics(model, 1.0)

    def test_overflow_in_a_losing_candidate_is_dropped(self):
        model = FdModel("piecewise_log", 2.411586393831417e+305, 2.4115863938311856e+305,
                        v_f=2.0, k1=5e-324)
        chars = derive_characteristics(model, 1.0)
        assert all(math.isfinite(v) for v in (chars.v_m, chars.k_m, chars.q_m, chars.k_max))

    def test_predict_overflows_to_inf(self):
        assert predict("exponential", 1e308, 1e308, 1.0) == math.inf

    def test_flow_overflows_to_minus_inf(self):
        assert flow_at_density(FdModel("greenshields", 1e300, 1e300), 1e300) == -math.inf

    @given(st.sampled_from(ALL_FORMS), *[POSITIVE_FLOATS] * 5)
    @example("greenshields", 4.791402715687035e+16, 1.7976931348623157e+308, 1.0, 1.0, 1.0)
    @example("piecewise_log", 2.411586393831417e+305, 2.4115863938311856e+305, 2.0, 5e-324, 1.0)
    @settings(max_examples=500, deadline=None)
    def test_characteristics_over_the_full_float_range(self, form, c1, c2, v_f, k1, v_min):
        piecewise = form in PIECEWISE
        model = FdModel(form, c1, c2, v_f=v_f, k1=k1) if piecewise else FdModel(form, c1, c2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                chars = derive_characteristics(model, v_min)
            except DomainError:
                return
        assert isinstance(chars, CharacteristicParams)


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

    def test_keeps_the_scanned_fit(self, monkeypatch):
        """The winning split's fit is the model: one curve evaluation per candidate, no refit."""
        samples, sizes, calls = count_curve_calls(monkeypatch)
        model, report = fit_fd("piecewise_exp", samples, v_f=10.5, k1_candidates=SCAN_CANDIDATES)
        assert model.k1 == 4.0 and report.r_squared == pytest.approx(1.0, abs=1e-9)
        assert calls == []
        assert sizes == [len(samples)] * len(SCAN_CANDIDATES)

    @pytest.mark.parametrize("candidates", [[3.0, 4.0], [6.0, 2.0, 4.0, 3.0], SCAN_CANDIDATES])
    def test_candidates_as_an_array_fit_as_the_equal_list(self, candidates):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        samples = samples_from(truth, K_GRID)
        expected = fit_fd("piecewise_exp", samples, v_f=10.5, k1_candidates=list(candidates))
        got = fit_fd("piecewise_exp", samples, v_f=10.5, k1_candidates=np.array(candidates))
        assert repr(got) == repr(expected)
        assert repr(estimate_breakpoint(samples, 10.5, np.array(candidates))) \
            == repr(estimate_breakpoint(samples, 10.5, list(candidates))) == repr(expected[0].k1)

    @pytest.mark.parametrize("candidates", [np.array([]), np.array([3.0, np.nan])])
    def test_empty_or_non_finite_candidate_array_rejected(self, candidates):
        samples = samples_from(FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0), K_GRID)
        with pytest.raises(DomainError, match="non-empty, finite and positive candidates"):
            fit_fd("piecewise_exp", samples, v_f=10.5, k1_candidates=candidates)

    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("name", ["v_f", "k1"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_given_v_f_or_k1_checked_before_fitting(self, form, name, bad):
        """Samples all below k1 would fail the branch fit; the bad value is named first."""
        samples = samples_from(FdModel("greenshields", 0.7634, 11.817), [0.5, 1.0, 2.0, 3.0])
        kwargs = {"v_f": 10.5, "k1": 4.0, name: bad}
        with pytest.raises(DomainError, match=f"finite positive {name}, got {bad!r}"):
            fit_fd(form, samples, **kwargs)

    @pytest.mark.parametrize("form,c1,c2", SPEED_DENSITY_FITS)
    def test_classical_forms_ignore_a_valid_v_f_and_k1(self, form, c1, c2):
        samples = samples_from(make_model(form, c1, c2), K_GRID)
        assert fit_fd(form, samples, v_f=10.5, k1=4.0) == fit_fd(form, samples)


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

    @pytest.mark.parametrize("form", PIECEWISE)
    def test_overflowing_error_sum_skips_the_candidate(self, form):
        """With v_f = 1e308 each plateau residual squares past the float range."""
        samples = samples_from(FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0), K_GRID)
        with pytest.raises(InsufficientDataError, match="squared error is finite"):
            estimate_breakpoint(samples, 1e308, [2.0, 3.0, 4.0], form=form)
        with pytest.raises(InsufficientDataError, match="squared error is finite"):
            fit_fd(form, samples, v_f=1e308, k1_candidates=[2.0, 3.0, 4.0])
        # A candidate below every density leaves no plateau sample, so its error is finite.
        assert estimate_breakpoint(samples, 1e308, [0.1, 2.0, 3.0], form=form) == 0.1

    @pytest.mark.parametrize("form", PIECEWISE)
    def test_constant_branch_is_degenerate(self, form):
        """Speeds clipped to one value beyond k1 fit a slope of exactly 0: no positive c1."""
        samples = [FlowSample.from_density_speed(k, 10.5 if k <= 4.0 else 0.05) for k in K_GRID]
        with pytest.raises(InsufficientDataError):
            estimate_breakpoint(samples, 10.5, [5.0], form=form)
        assert estimate_breakpoint(samples, 10.5, [3.0, 5.0], form=form) == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_candidate_rejected(self, bad):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError):
            estimate_breakpoint(samples_from(truth, K_GRID), 10.5, [3.0, bad, 4.0])

    @pytest.mark.parametrize("v_f", [math.nan, math.inf])
    def test_non_finite_v_f_rejected(self, v_f):
        truth = FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)
        with pytest.raises(DomainError, match=f"finite positive v_f, got {v_f!r}"):
            estimate_breakpoint(samples_from(truth, K_GRID), v_f, [3.0, 4.0])

    @given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(PIECEWISE), batch=st.booleans(),
           n=st.integers(0, 40), n_candidates=st.integers(0, 12),
           bad=st.sampled_from((None,) + NOT_FINITE_POSITIVE),
           v_f=st.sampled_from(("generator", None, 1e308) + NOT_FINITE_POSITIVE))
    @example(seed=0, form="piecewise_exp", batch=True, n=2, n_candidates=3, bad=math.nan,
             v_f="generator")  # fewer than 3 samples and a bad candidate
    @settings(max_examples=200, deadline=None)
    def test_is_the_k1_fit_fd_picks(self, seed, form, batch, n, n_candidates, bad, v_f):
        """The breakpoint of a batch or a FlowSample list is fit_fd's k1, or the same error."""
        rng = np.random.default_rng(seed)
        c1, c2 = random_branch(rng, form)
        true_k1 = rng.uniform(1.0, 5.0)
        branch_at_k1 = reference_speed(form, c1, c2, 0.0, 0.0, true_k1)
        true_v_f = max(branch_at_k1, 1.0) * rng.uniform(1.0, 1.3)
        ks = np.sort(rng.uniform(0.2, 12.0, n))
        vs = np.clip(reference_speed(form, c1, c2, true_v_f, true_k1, ks)
                     + rng.normal(0.0, rng.uniform(0.05, 1.0), n), 0.05, None)
        if batch:
            samples = FlowSamples(density=ks, mean_speed=vs)
        else:
            samples = [FlowSample.from_density_speed(k, v) for k, v in zip(ks.tolist(), vs.tolist())]
        candidates = [float(rng.choice(ks)) if n and rng.random() < 0.5
                      else float(rng.uniform(0.1, 12.0)) for _ in range(n_candidates)]
        if bad is not None and candidates:
            candidates[rng.integers(len(candidates))] = bad
        v_f = float(true_v_f) if v_f == "generator" else v_f
        assert outcome(estimate_breakpoint, samples, v_f, candidates, form=form) == \
            outcome(lambda: fit_fd(form, samples, v_f=v_f, k1_candidates=candidates)[0].k1)

    def test_fewer_than_3_samples_are_refused_before_the_candidates(self):
        """fit_fd's sample count comes first: the frozen scan returned 0.5 and refused nan."""
        samples = [FlowSample.from_density_speed(1.0, 10.0), FlowSample.from_density_speed(2.0, 9.0)]
        for candidates, frozen in (([0.5], "0.5"), ([math.nan], "DomainError")):
            assert outcome(reference_fd.estimate_breakpoint, samples, 10.5, candidates,
                           form="piecewise_linear") == frozen
            with pytest.raises(InsufficientDataError, match="at least 3 samples"):
                estimate_breakpoint(samples, 10.5, candidates, form="piecewise_linear")

    @pytest.mark.parametrize("form, v_f, speeds, error", [
        # Plateau speeds of 1e200 on an exact branch: the error sum is finite, the variance sum not.
        ("piecewise_exp", 1e200, lambda k: np.where(k <= 1.5, 1e200, 13.62 * np.exp(-0.115 * k)),
         DomainError),
        # Speeds an ulp apart under a plateau of 1e150: SSE / SST passes the float range.
        ("piecewise_linear", 1e150, lambda k: 1.0 - 2.0 ** -52 * k, DegenerateFitError),
    ])
    def test_winning_split_without_an_r_squared_is_an_error(self, form, v_f, speeds, error):
        """The frozen scan returned the winner's k1 without computing its R^2."""
        ks = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        samples = [FlowSample.from_density_speed(k, v)
                   for k, v in zip(ks.tolist(), speeds(ks).tolist())]
        assert reference_fd.estimate_breakpoint(samples, v_f, [1.5], form=form) == 1.5
        with pytest.raises(error):
            estimate_breakpoint(samples, v_f, [1.5], form=form)
        with pytest.raises(error):
            fit_fd(form, samples, v_f=v_f, k1_candidates=[1.5])

    def test_never_evaluates_one_sample_at_a_time(self, monkeypatch):
        """Candidates are scored on whole columns, with no model fit or prediction call."""
        samples, sizes, calls = count_curve_calls(monkeypatch)
        assert estimate_breakpoint(samples, 10.5, SCAN_CANDIDATES) == 4.0
        assert calls == []
        assert sizes == [len(samples)] * len(SCAN_CANDIDATES)

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
        batch = FlowSamples(density=ks, mean_speed=vs)
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
        batch = FlowSamples(density=ks, mean_speed=vs)
        assert batch.t is None and len(batch) == len(K_GRID)
        assert fit_fd("greenshields", batch) == fit_fd("greenshields", samples_from(truth, K_GRID))


def outcome(fn, *args, **kwargs) -> str:
    """The exact result, floats to the last bit, or the class of the error raised."""
    try:
        return repr(fn(*args, **kwargs))
    except (DomainError, InsufficientDataError, DegenerateFitError) as exc:
        return type(exc).__name__


class TestOneScan:
    @given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(ALL_FORMS),
           split=st.sampled_from(("k1", "candidates", "neither")),
           n_candidates=st.integers(1, 40), batch=st.booleans(),
           branch=st.sampled_from(("noisy", "constant", "zero speed")),
           v_f=st.one_of(st.just("generator"), st.sampled_from((None, 1e308) + NOT_FINITE_POSITIVE)),
           k1=st.one_of(st.just("candidate"), st.sampled_from(NOT_FINITE_POSITIVE)))
    @example(seed=7, form="piecewise_exp", split="candidates", n_candidates=8, batch=False,
             branch="constant", v_f="generator", k1="candidate")  # degenerate splits skipped
    @example(seed=7, form="piecewise_linear", split="k1", n_candidates=1, batch=True,
             branch="constant", v_f="generator", k1="candidate")  # a given degenerate split
    @example(seed=0, form="piecewise_log", split="candidates", n_candidates=12, batch=True,
             branch="noisy", v_f=1e308, k1="candidate")  # every plateau error sum overflows
    @example(seed=3, form="piecewise_log", split="candidates", n_candidates=12, batch=True,
             branch="noisy", v_f=1e308, k1="candidate")  # but one split has no plateau sample
    @example(seed=3, form="piecewise_exp", split="candidates", n_candidates=6, batch=False,
             branch="zero speed", v_f="generator", k1="candidate")  # ln 0 splits skipped
    @example(seed=0, form="piecewise_exp", split="k1", n_candidates=1, batch=False,
             branch="zero speed", v_f="generator", k1="candidate")  # ln 0 in the given split
    @example(seed=3, form="underwood", split="neither", n_candidates=1, batch=False,
             branch="zero speed", v_f="generator", k1="candidate")
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_reference(self, seed, form, split, n_candidates, batch, branch,
                                      v_f, k1):
        """fit_fd and estimate_breakpoint give what the refitting code gave, bit for bit.

        The one allowed difference: a given v_f or k1 that is not finite and
        positive is now refused with DomainError for every form.
        """
        rng = np.random.default_rng(seed)
        c1, c2 = random_branch(rng, form)
        true_k1 = rng.uniform(1.0, 5.0)
        true_v_f = max(reference_speed(form, c1, c2, 0.0, 0.0, true_k1), 1.0) * rng.uniform(1.0, 1.3)
        ks = np.sort(rng.uniform(0.2, 12.0, rng.integers(3, 80)))
        vs = reference_speed(form, c1, c2, true_v_f, true_k1, ks)
        if branch == "constant":  # speeds beyond the breakpoint clipped to one floor
            vs = np.where(ks > true_k1, 0.05, true_v_f)
        else:
            vs = np.clip(vs + rng.normal(0.0, rng.uniform(0.05, 1.0), ks.size), 0.05, None)
        if branch == "zero speed":  # ln 0 in every exp-shape split below the median density
            vs[ks.size // 2] = 0.0
        if batch:
            samples = FlowSamples(density=ks, mean_speed=vs)
        else:
            samples = [FlowSample.from_density_speed(k, v) for k, v in zip(ks.tolist(), vs.tolist())]
        # Half the candidates sit exactly on a sample density.
        candidates = [float(rng.choice(ks)) if rng.random() < 0.5 else float(rng.uniform(0.1, 12.0))
                      for _ in range(n_candidates)]
        v_f = float(true_v_f) if v_f == "generator" else v_f
        kwargs = {} if v_f is None else {"v_f": v_f}
        if split == "k1":
            kwargs["k1"] = candidates[0] if k1 == "candidate" else k1
        elif split == "candidates":
            kwargs["k1_candidates"] = candidates

        got = outcome(fit_fd, form, samples, **kwargs)
        if any(kwargs.get(name) is not None and not 0 < kwargs[name] < math.inf
               for name in ("v_f", "k1")):
            assert got == "DomainError"
        else:
            assert got == outcome(reference_fd.fit_fd, form, samples, **kwargs)
        if split == "candidates" and form in PIECEWISE:
            assert outcome(estimate_breakpoint, samples, v_f, candidates, form=form) == \
                outcome(reference_fd.estimate_breakpoint, samples, v_f, candidates, form=form)


class TestEconomicSpeed:
    def test_combined_from_class_medians(self):
        result = economic_speed([9.0], [12.0])
        assert result.combined_v_f == pytest.approx(10.5)

    def test_constant_classes(self):
        result = economic_speed([8, 8], [8, 8, 8])
        assert (result.loaded_median, result.empty_median, result.combined_v_f) == (8, 8, 8)

    def test_hand_medians(self):
        result = economic_speed([8, 9, 10], [11, 12, 13])
        assert result.loaded_median == pytest.approx(9.0)
        assert result.empty_median == pytest.approx(12.0)
        assert result.combined_v_f == pytest.approx(10.5)

    def test_empty_class_errors(self):
        with pytest.raises(DomainError):
            economic_speed([], [12.0])

    def test_overflowing_mean_of_medians_errors(self):
        with pytest.raises(DomainError, match="must be finite"):
            economic_speed([1.5e308], [1.7e308])


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


def reference_r_squared(y, est):
    """1 - SSE/SST of y in its own units."""
    return 1.0 - float(np.sum((y - est) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def noisy_fit(rng, name, v_f=None, noise=(0.05, 3.0)):
    """(observed y, fitted y, report) of a family or form fitted to noisy samples of a curve.

    Families get gap-speed points around v = 2 ln(g) - 1.5; forms get
    samples of a random branch of their own shape with a plateau, fitted at
    the given v_f with k1 estimated from six candidates.
    """
    sd = rng.uniform(*noise)
    if name in FAMILIES:
        x = rng.uniform(0.5, 300.0, rng.integers(3, 60))
        y = np.clip(2.0 * np.log(x) - 1.5 + rng.normal(0.0, sd, x.size), 0.05, None)
        report = fit_curve(name, np.column_stack((x, y)))
        return y, predict(name, report.a, report.b, x), report
    c1, c2 = random_branch(rng, name)
    k1 = rng.uniform(1.0, 5.0)
    truth_v_f = max(reference_speed(name, c1, c2, 0.0, 0.0, k1), 1.0) * rng.uniform(1.0, 1.3)
    ks = rng.uniform(0.2, 14.0, rng.integers(3, 80))
    vs = np.clip(reference_speed(name, c1, c2, truth_v_f, k1, ks)
                 + rng.normal(0.0, sd, ks.size), 0.05, None)
    kwargs = {"v_f": v_f, "k1_candidates": sorted(rng.uniform(0.5, 8.0, 6).tolist())} \
        if name in PIECEWISE else {}
    model, report = fit_fd(name, FlowSamples(density=ks, mean_speed=vs), **kwargs)
    return vs, reference_speed(name, model.c1, model.c2, model.v_f, model.k1, ks), report


class TestOneRSquared:
    """Every family and form reports R^2 = 1 - SSE/SST of y in its own units."""

    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(FAMILIES + ALL_FORMS),
           v_f=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=400, deadline=None)
    def test_never_above_one(self, seed, name, v_f):
        try:
            y, est, report = noisy_fit(np.random.default_rng(seed), name, v_f)
        except (DomainError, DegenerateFitError, InsufficientDataError):
            return
        assert report.r_squared <= 1.0
        assert report.r_squared == pytest.approx(reference_r_squared(y, est),
                                                 rel=1e-12, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1),
           name=st.sampled_from(("linear", "logarithmic", "greenshields", "greenberg")))
    @settings(max_examples=200, deadline=None)
    def test_least_squares_fits_equal_explained_over_total(self, seed, name):
        """For a least-squares line with an intercept the two definitions agree."""
        try:
            y, est, report = noisy_fit(np.random.default_rng(seed), name, noise=(0.05, 1.0))
        except DegenerateFitError:  # a non-positive diagram coefficient
            assume(False)
        assert abs(report.r_squared - r_squared(y, est)) <= 1e-12

    def test_piecewise_fit_at_an_unsuited_v_f(self):
        """3,000 noisy Greenshields points as piecewise_exp at v_f 12: explained/total reads 1.54."""
        rng = np.random.default_rng(0)
        ks = rng.uniform(0.2, 14.0, 3000)
        vs = np.clip(11.8 - 0.76 * ks + rng.normal(0.0, 0.5, ks.size), 0.05, None)
        model, report = fit_fd("piecewise_exp", FlowSamples(density=ks, mean_speed=vs),
                               v_f=12.0, k1=4.0)
        est = speed_at_density(model, ks)
        assert r_squared(vs, est) > 1.5
        assert report.r_squared == pytest.approx(reference_r_squared(vs, est), rel=1e-12)
        assert 0.8 < report.r_squared < 0.85
