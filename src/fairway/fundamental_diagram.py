"""Fundamental-diagram model forms, fitting, and characteristic parameters.

Six forms: three classical speed-density curves (linear, logarithmic,
exponential decay) and their piecewise variants with a free-flow plateau
at v_f up to a breakpoint density k1.  Each form's non-free branch has
one of three shapes, and each shape is one row of ``_SHAPES``:

    shape   branch v(k)        regression family  (a, b)    v at k->0+
    linear  v = -c1*k + c2     linear             (-c1, c2)  c2
    log     v = -c1*ln(k) + c2 logarithmic        (-c1, c2)  unbounded
    exp     v = c1*e^(-c2*k)   exponential        (c1, -c2)  c1

plus the closed forms of k_max (where v falls to v_min) and of the
unconstrained argmax of k*v(k).  Branches are evaluated and fitted through
the regression family, with the signs mapping (c1, c2) to (a, b).
Characteristic parameters are derived under a minimum-speed constraint:
the maximum density k_max is where speed falls to v_min, and the
throughput optimum is taken over (0, k_max] (closed-form interior optimum
when feasible, else the best boundary candidate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NoFeasibleDensityError,
)
from .regression import FitReport, _columns, fit_curve, predict, r_squared
from .trajectory import FiniteFields, FlowSample, FlowSamples

CLASSICAL_FORMS = ("greenshields", "greenberg", "underwood")
PIECEWISE_FORMS = ("piecewise_linear", "piecewise_log", "piecewise_exp")
ALL_FORMS = CLASSICAL_FORMS + PIECEWISE_FORMS


def _exp(x: float) -> float:
    """math.exp, with overflow reported as a DomainError."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"logarithmic closed form overflows: exp({x:.6g})") from None


class _Shape(NamedTuple):
    family: str  # regression family the branch is evaluated and fitted as
    signs: tuple[int, int]  # (a, b) = (signs[0]*c1, signs[1]*c2), and back
    v_at_zero: Callable  # (c1, c2) -> v at k -> 0+, None when unbounded
    k_max: Callable  # (c1, c2, v_min) -> k where v falls to v_min
    argmax: Callable  # (c1, c2) -> unconstrained argmax of k * v(k)


_SHAPES = {
    "linear": _Shape("linear", (-1, 1), lambda c1, c2: c2,
                     lambda c1, c2, v: (c2 - v) / c1, lambda c1, c2: c2 / (2 * c1)),
    "log": _Shape("logarithmic", (-1, 1), lambda c1, c2: None,
                  lambda c1, c2, v: _exp((c2 - v) / c1), lambda c1, c2: _exp(c2 / c1 - 1)),
    "exp": _Shape("exponential", (1, -1), lambda c1, c2: c1,
                  lambda c1, c2, v: math.log(c1 / v) / c2, lambda c1, c2: 1 / c2),
}

# Non-free branch shape of each form; a piecewise form follows its classical one.
_FORM_SHAPE = {"greenshields": "linear", "greenberg": "log", "underwood": "exp",
               "piecewise_linear": "linear", "piecewise_log": "log", "piecewise_exp": "exp"}


def _finite_positive(value) -> bool:
    return value is not None and 0 < value < math.inf


@dataclass(frozen=True)
class FdModel:
    """One fundamental-diagram form with finite positive branch coefficients (c1, c2).

    linear shape:  v = -c1*k + c2
    log shape:     v = -c1*ln(k) + c2
    exp shape:     v = c1*e^(-c2*k)
    Piecewise forms additionally carry the free-flow speed v_f and the
    breakpoint density k1; v = v_f for k <= k1.
    """

    form: str
    c1: float
    c2: float
    v_f: Optional[float] = None  # km/h; required for piecewise forms
    k1: Optional[float] = None  # vessels/km; piecewise only

    def __post_init__(self):
        if self.form not in ALL_FORMS:
            raise DomainError(f"unknown model form {self.form!r}")
        if not self.is_piecewise and self.k1 is not None:
            raise DomainError("classical forms take no breakpoint")
        required = ("c1", "c2", "v_f", "k1") if self.is_piecewise else ("c1", "c2")
        for name in ("c1", "c2", "v_f", "k1"):
            value = getattr(self, name)
            if (name in required or value is not None) and not _finite_positive(value):
                raise DomainError(f"{self.form} needs a finite positive {name}, got {value!r}")

    @property
    def is_piecewise(self) -> bool:
        return self.form in PIECEWISE_FORMS

    @property
    def branch_shape(self) -> str:
        return _FORM_SHAPE[self.form]

    @property
    def free_flow_speed(self) -> Optional[float]:
        """v at k -> 0+: v_f (piecewise), c2 (linear), c1 (exp), unbounded (log -> None)."""
        if self.is_piecewise:
            return self.v_f
        return _SHAPES[self.branch_shape].v_at_zero(self.c1, self.c2)


@dataclass(frozen=True)
class CharacteristicParams(FiniteFields):
    v_f: Optional[float]  # km/h; None for the logarithmic classical form
    v_m: float  # km/h
    k_m: float  # vessels/km
    q_m: float  # vessels/h
    k_max: float  # vessels/km
    v_min: float  # km/h, the input constraint echoed

    def __post_init__(self):
        super().__post_init__()
        if abs(self.q_m - self.k_m * self.v_m) > 1e-9 * max(1.0, abs(self.q_m)):
            raise DomainError("q_m must equal k_m * v_m")


@dataclass(frozen=True)
class EconomicSpeed(FiniteFields):
    loaded_median: float
    empty_median: float
    combined_v_f: float


@dataclass(frozen=True)
class RecommendedMinimums(FiniteFields):
    v_min: float  # km/h
    g_min: float  # m


def speed_at_density(model: FdModel, k: float):
    """Evaluate v(k) in km/h; piecewise forms plateau at v_f for k <= k1.

    Accepts scalars or arrays.  k must be positive for logarithmic shapes
    (and for the log branch of the piecewise variant); other forms accept 0.
    """
    arr = np.asarray(k, dtype=float)
    if np.any(arr < 0):
        raise DomainError("density must be non-negative")
    if model.branch_shape == "log" and np.any(arr <= 0):
        raise DomainError("logarithmic form undefined at k <= 0")
    shape = _SHAPES[model.branch_shape]
    out = predict(shape.family, shape.signs[0] * model.c1, shape.signs[1] * model.c2, arr)
    if model.is_piecewise:
        out = np.where(arr <= model.k1, model.v_f, out)
    return out if np.ndim(k) else float(out)


def flow_at_density(model: FdModel, k: float):
    """q(k) = k * v(k) in vessels/h."""
    return k * speed_at_density(model, k)


def derive_characteristics(model: FdModel, v_min: float) -> CharacteristicParams:
    """Characteristic parameters under the minimum-speed constraint.

    k_max solves v(k_max) = v_min on the non-free branch; the throughput
    optimum (k_m, v_m, q_m) is the best of the interior closed-form optimum
    (when it lies in the feasible open interval) and the boundary candidates
    k1 (piecewise) and k_max.
    """
    if not _finite_positive(v_min):
        raise DomainError(f"v_min must be a finite positive number, got {v_min}")
    shape, c1, c2 = _SHAPES[model.branch_shape], model.c1, model.c2
    sup_v = model.free_flow_speed  # None means unbounded (log shape)
    if sup_v is not None and v_min >= sup_v:
        raise NoFeasibleDensityError(
            f"v_min {v_min} is not below the maximum attainable speed {sup_v}"
        )
    branch_v0 = shape.v_at_zero(c1, c2)
    if branch_v0 is not None and v_min >= branch_v0:
        raise NoFeasibleDensityError(
            f"v_min {v_min} is not below the branch speed {branch_v0} at k -> 0+"
        )
    k_max = shape.k_max(c1, c2, v_min)
    lower = model.k1 if model.is_piecewise else 0.0
    if k_max <= lower:
        raise NoFeasibleDensityError(
            f"speed falls to v_min at k={k_max:.4f}, inside the free-flow plateau"
        )

    candidates = [k_max]
    if model.is_piecewise:
        candidates.append(model.k1)
    k_star = shape.argmax(c1, c2)
    if lower < k_star <= k_max:
        candidates.append(k_star)

    k_m = max(candidates, key=lambda k: flow_at_density(model, k))
    v_m = speed_at_density(model, k_m)
    return CharacteristicParams(
        v_f=model.free_flow_speed,
        v_m=v_m,
        k_m=k_m,
        q_m=k_m * v_m,
        k_max=k_max,
        v_min=v_min,
    )


def _density_speed(samples) -> tuple[np.ndarray, np.ndarray]:
    """Density and mean-speed columns of a FlowSamples batch or a sequence of FlowSample."""
    if not isinstance(samples, FlowSamples):
        return _columns([(s.density, s.mean_speed) for s in samples])
    return np.asarray(samples.density, dtype=float), np.asarray(samples.mean_speed, dtype=float)


def _fit_branch(form: str, ks: np.ndarray, vs: np.ndarray, k1=None, v_f=None):
    """Fit the branch to the samples beyond k1 (all of them when k1 is None).

    Returns the model, with the fit mapped onto signed coefficients, and the
    regression report.  Raises InsufficientDataError below 2 branch samples
    and DegenerateFitError when a coefficient comes out non-positive.
    """
    shape = _SHAPES[_FORM_SHAPE[form]]
    beyond = slice(None) if k1 is None else ks > k1
    branch_points = np.column_stack((ks, vs))[beyond]
    if len(branch_points) < 2:
        raise InsufficientDataError(
            f"only {len(branch_points)} samples beyond k1={k1}; need at least 2"
        )
    report = fit_curve(shape.family, branch_points)
    c1, c2 = shape.signs[0] * report.a, shape.signs[1] * report.b
    if c1 <= 0 or c2 <= 0:
        raise DegenerateFitError(
            f"fitted {form} coefficients violate positivity: ({c1:.6g}, {c2:.6g})"
        )
    return FdModel(form=form, c1=c1, c2=c2, v_f=v_f, k1=k1), report


def fit_fd(
    form: str,
    samples: FlowSamples | Sequence[FlowSample],
    v_f: Optional[float] = None,
    k1: Optional[float] = None,
    k1_candidates: Optional[Sequence[float]] = None,
) -> tuple[FdModel, FitReport]:
    """Fit one model form to (density, mean_speed) samples.

    Classical forms reduce to a regression-module fit on (k, v).  Piecewise
    forms fix the free branch at v_f, fit the non-free branch to samples with
    k > k1 only, and report R^2 over all samples against the full piecewise
    prediction.  k1 may be given directly or estimated from candidates.
    """
    if form not in ALL_FORMS:
        raise DomainError(f"unknown model form {form!r}")
    if len(samples) < 3:
        raise InsufficientDataError("fitting needs at least 3 samples")
    ks, vs = _density_speed(samples)
    if form in CLASSICAL_FORMS:
        return _fit_branch(form, ks, vs)

    if not _finite_positive(v_f):
        raise DomainError(f"piecewise fitting requires a finite v_f > 0, got {v_f}")
    if k1 is None:
        if not k1_candidates:
            raise DomainError("piecewise fitting requires k1 or k1_candidates")
        k1 = estimate_breakpoint(samples, v_f, k1_candidates, form=form)
    model, _ = _fit_branch(form, ks, vs, k1, v_f)
    report = FitReport(
        family=form,
        a=model.c1,
        b=model.c2,
        r_squared=r_squared(vs, speed_at_density(model, ks)),
        n_points=len(ks),
        fit_space="original",
    )
    return model, report


def estimate_breakpoint(
    samples: FlowSamples | Sequence[FlowSample],
    v_f: float,
    candidates: Sequence[float],
    form: str = "piecewise_exp",
) -> float:
    """Pick the breakpoint minimizing total squared error of the piecewise fit.

    For each candidate: flat v_f for k <= candidate plus the best-fit branch
    beyond it, scored over all samples at once.  Ties go to the smaller
    candidate.  Candidates leaving fewer than 2 samples in the non-free
    branch, or whose branch fit is degenerate or out of domain, are skipped.
    """
    if not candidates or not all(_finite_positive(c) for c in candidates):
        raise DomainError("candidates must be non-empty, finite and positive")
    if not _finite_positive(v_f):
        raise DomainError(f"breakpoint search requires a finite v_f > 0, got {v_f}")
    if form not in PIECEWISE_FORMS:
        raise DomainError(f"estimate_breakpoint needs a piecewise form, got {form!r}")
    ks, vs = _density_speed(samples)
    best = None
    for cand in sorted(candidates):
        try:
            model, _ = _fit_branch(form, ks, vs, cand, v_f)
        except (InsufficientDataError, DomainError, DegenerateFitError):
            continue
        sse = float(np.sum((vs - speed_at_density(model, ks)) ** 2))
        if best is None or sse < best[0]:
            best = (sse, cand)
    if best is None:
        raise InsufficientDataError(
            "no candidate leaves at least 2 samples in the non-free branch"
        )
    return best[1]


@np.errstate(all="ignore")  # EconomicSpeed rejects a result that overflows
def economic_speed(speeds_by_load: dict[str, Sequence[float]]) -> EconomicSpeed:
    """Median speed per load class; combined free-flow speed = mean of medians."""
    for key in ("loaded", "empty"):
        if not len(speeds_by_load.get(key, ())):
            raise DomainError(f"economic_speed requires a non-empty {key!r} speed list")
    loaded = float(np.median(np.asarray(speeds_by_load["loaded"], dtype=float)))
    empty = float(np.median(np.asarray(speeds_by_load["empty"], dtype=float)))
    return EconomicSpeed(
        loaded_median=loaded,
        empty_median=empty,
        combined_v_f=(loaded + empty) / 2,
    )


@np.errstate(all="ignore")  # RecommendedMinimums rejects a result that overflows
def recommend_minimums(
    speeds: Sequence[float],
    gaps: Sequence[float],
    tail_fraction: float = 0.001,
) -> RecommendedMinimums:
    """Tail-quantile minimum speed and gap, computed independently per variable."""
    if not len(speeds) or not len(gaps):
        raise DomainError("recommend_minimums requires non-empty speed and gap lists")
    if not 0 < tail_fraction < 0.5:
        raise DomainError("tail_fraction must lie in (0, 0.5)")
    v_min = float(np.quantile(np.asarray(speeds, dtype=float), tail_fraction))
    g_min = float(np.quantile(np.asarray(gaps, dtype=float), tail_fraction))
    return RecommendedMinimums(v_min=v_min, g_min=g_min)
