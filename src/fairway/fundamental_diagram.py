"""Fundamental-diagram model forms, fitting, and characteristic parameters.

Six forms: three classical speed-density curves (linear, logarithmic,
exponential decay) and their piecewise variants with a free-flow plateau
at v_f up to a breakpoint density k1.  ``_FORM_SHAPE`` maps each form to
the shape of its non-free branch, one of three:

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
# fit_curve is unused here; perfbench/tracer.py wraps this module's attribute.
from .regression import FitReport, _columns, _family, _fit_r_squared, _line, fit_curve, predict
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


# k_max <= 0 exactly when v_min is at or above the branch speed at k -> 0+; the
# exp shape floors c1/v at the least subnormal, so an underflow gives ln < 0 too.
_LINEAR = _Shape("linear", (-1, 1), lambda c1, c2: c2,
                 lambda c1, c2, v: (c2 - v) / c1, lambda c1, c2: c2 / (2 * c1))
_LOG = _Shape("logarithmic", (-1, 1), lambda c1, c2: None,
              lambda c1, c2, v: _exp((c2 - v) / c1), lambda c1, c2: _exp(c2 / c1 - 1))
_EXP = _Shape("exponential", (1, -1), lambda c1, c2: c1,
              lambda c1, c2, v: math.log(max(c1 / v, math.ulp(0))) / c2, lambda c1, c2: 1 / c2)
_FORM_SHAPE = {"greenshields": _LINEAR, "greenberg": _LOG, "underwood": _EXP,
               "piecewise_linear": _LINEAR, "piecewise_log": _LOG, "piecewise_exp": _EXP}


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
    def free_flow_speed(self) -> Optional[float]:
        """v at k -> 0+: v_f (piecewise), c2 (linear), c1 (exp), unbounded (log -> None)."""
        if self.is_piecewise:
            return self.v_f
        return _FORM_SHAPE[self.form].v_at_zero(self.c1, self.c2)


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
    shape = _FORM_SHAPE[model.form]
    if _family(shape.family).log_x and np.any(arr <= 0):
        raise DomainError("logarithmic form undefined at k <= 0")
    out = predict(shape.family, shape.signs[0] * model.c1, shape.signs[1] * model.c2, arr)
    if model.is_piecewise:
        out = np.where(arr <= model.k1, model.v_f, out)
    return out if np.ndim(k) else float(out)


@np.errstate(all="ignore")  # a q past the float range is inf; CharacteristicParams rejects it
def flow_at_density(model: FdModel, k: float):
    """q(k) = k * v(k) in vessels/h."""
    return k * speed_at_density(model, k)


@np.errstate(all="ignore")  # CharacteristicParams rejects a result that is not finite
def derive_characteristics(model: FdModel, v_min: float) -> CharacteristicParams:
    """Characteristic parameters under the minimum-speed constraint.

    k_max solves v(k_max) = v_min on the non-free branch; the throughput
    optimum (k_m, v_m, q_m) is the best of the interior closed-form optimum
    (when it lies in the feasible open interval) and the boundary candidates
    k1 (piecewise) and k_max.
    """
    if not _finite_positive(v_min):
        raise DomainError(f"v_min must be a finite positive number, got {v_min}")
    shape, c1, c2 = _FORM_SHAPE[model.form], model.c1, model.c2
    sup_v = model.free_flow_speed  # None means unbounded (log shape)
    if sup_v is not None and v_min >= sup_v:
        raise NoFeasibleDensityError(
            f"v_min {v_min} is not below the maximum attainable speed {sup_v}"
        )
    k_max = shape.k_max(c1, c2, v_min)
    lower = model.k1 if model.is_piecewise else 0.0
    if k_max <= lower:
        bound = f"the breakpoint k1={lower:.6g}" if model.is_piecewise else "0"
        raise NoFeasibleDensityError(
            f"v_min {v_min} puts k_max at {k_max:.6g}, not above {bound}"
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


@np.errstate(all="ignore")  # a candidate whose fit or error sum is not finite is skipped
def _fit_splits(form: str, samples, v_f, k1, candidates) -> tuple:
    """(k1, c1, c2, v, speeds) of the best split, each split fitted once.

    The splits are none for a classical form, the given k1, or else each
    sorted candidate.  Each split's branch line gives v over all samples and
    the squared speed error in km/h.  A given split raises its own error; the
    candidate scan skips such splits and those whose error is not finite.
    """
    scan = form in PIECEWISE_FORMS and k1 is None
    if form in PIECEWISE_FORMS and not _finite_positive(v_f):
        raise DomainError(f"piecewise fitting requires a finite v_f > 0, got {v_f}")
    if scan and (candidates is None or not len(candidates)
                 or not all(map(_finite_positive, candidates))):
        raise DomainError("piecewise fitting needs k1 or non-empty, finite and positive candidates")
    if isinstance(samples, FlowSamples):
        ks, vs = np.asarray(samples.density, dtype=float), np.asarray(samples.mean_speed, dtype=float)
    else:
        ks, vs = _columns([(s.density, s.mean_speed) for s in samples])
    shape = _FORM_SHAPE[form]
    spec = _family(shape.family)
    fx, fy = spec.transform(ks, vs)
    best = None
    for split in sorted(map(float, candidates)) if scan else (k1,):
        beyond = slice(None) if split is None else ks > split
        bx, by = fx[beyond], fy[beyond]
        try:
            if len(bx) < 2:
                raise InsufficientDataError(
                    f"only {len(bx)} samples in the {form} branch; need at least 2")
            if not np.isfinite(by).all():  # densities are positive, so ln k is finite
                raise DomainError(f"{form} branch needs speeds > 0 under its logarithm")
            a, b = _line(shape.family, bx, by)
            c1, c2 = shape.signs[0] * a, shape.signs[1] * b
            if not (_finite_positive(c1) and _finite_positive(c2)):
                raise DegenerateFitError(
                    f"fitted {form} coefficients violate positivity: ({c1:.6g}, {c2:.6g})")
        except (InsufficientDataError, DomainError, DegenerateFitError):
            if not scan:
                raise
            continue
        v = spec.curve(a, b, ks)
        if split is not None:
            v = np.where(beyond, v, v_f)
        sse = float(np.sum((vs - v) ** 2))
        if not scan or (math.isfinite(sse) and (best is None or sse < best[0])):
            best = (sse, split, c1, c2, v)
    if best is None:
        raise InsufficientDataError(
            "no candidate leaves at least 2 samples in the non-free branch "
            "with a fit whose squared error is finite"
        )
    return (*best[1:], vs)


def fit_fd(
    form: str,
    samples: FlowSamples | Sequence[FlowSample],
    v_f: Optional[float] = None,
    k1: Optional[float] = None,
    k1_candidates: Optional[Sequence[float]] = None,
) -> tuple[FdModel, FitReport]:
    """Fit one model form to (density, mean_speed) samples.

    Classical forms fit one line to all samples.  Piecewise forms fix the
    free branch at v_f and fit the branch to the samples beyond k1: the given
    one, or the winner of one scan of k1_candidates, kept rather than
    refitted.  A given v_f or k1 that is not finite and positive is refused
    before any fit.  Every form reports family=form, a=c1, b=c2 and
    R^2 = 1 - SSE/SST of the speeds in km/h over all samples.
    """
    if form not in ALL_FORMS:
        raise DomainError(f"unknown model form {form!r}")
    for name, value in (("v_f", v_f), ("k1", k1)):
        if value is not None and not _finite_positive(value):
            raise DomainError(f"{form} needs a finite positive {name}, got {value!r}")
    if len(samples) < 3:
        raise InsufficientDataError("fitting needs at least 3 samples")
    if form in CLASSICAL_FORMS:
        v_f = k1 = None
    k1, c1, c2, v, vs = _fit_splits(form, samples, v_f, k1, k1_candidates)
    model = FdModel(form=form, c1=c1, c2=c2, v_f=v_f, k1=k1)
    r2 = _fit_r_squared(vs, v)
    return model, FitReport(family=form, a=c1, b=c2, r_squared=r2, n_points=len(vs))


def estimate_breakpoint(
    samples: FlowSamples | Sequence[FlowSample],
    v_f: float,
    candidates: Sequence[float],
    form: str = "piecewise_exp",
) -> float:
    """Pick the breakpoint minimizing total squared error of the piecewise fit.

    The scan ``fit_fd`` runs without a k1: each candidate is scored as a flat
    v_f up to it plus the branch fitted once beyond it, over all samples at
    once, in O(n) array work.  Ties go to the smaller candidate.  Candidates
    leaving fewer than 2 samples in the branch, whose branch fit is
    degenerate or out of domain, or whose squared error is not finite, are
    skipped; InsufficientDataError when none is left.
    """
    if form not in PIECEWISE_FORMS:
        raise DomainError(f"estimate_breakpoint needs a piecewise form, got {form!r}")
    return _fit_splits(form, samples, v_f, None, candidates)[0]


@np.errstate(all="ignore")  # EconomicSpeed rejects a result that overflows
def economic_speed(loaded: Sequence[float], empty: Sequence[float]) -> EconomicSpeed:
    """Median speed per load class; combined free-flow speed = mean of medians."""
    for key, speeds in (("loaded", loaded), ("empty", empty)):
        if not len(speeds):
            raise DomainError(f"economic_speed requires a non-empty {key!r} speed list")
    medians = [float(np.median(np.asarray(speeds, dtype=float))) for speeds in (loaded, empty)]
    return EconomicSpeed(*medians, combined_v_f=sum(medians) / 2)


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
