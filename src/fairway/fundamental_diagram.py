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
``fit_fd`` reads a FlowSample list, like a FlowSamples batch, as a density
and a speed column; its k1 scan scores every candidate from one
density-sorted pass and fits from the least score up, and
``estimate_breakpoint`` is the k1 it picks.
Characteristic parameters are derived under a minimum-speed constraint:
the maximum density k_max is where speed falls to v_min, and the
throughput optimum is taken over (0, k_max] (closed-form interior optimum
when feasible, else the best boundary candidate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .document import (ALL_FORMS, CLASSICAL_FORMS, PIECEWISE_FORMS, CharacteristicParams, FdModel,
                       FiniteFields, FitReport, _finite_positive)
from .errors import (
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NoFeasibleDensityError,
)
# fit_curve is unused here; perfbench/tracer.py wraps this module's attribute.
from .regression import _family, _fit_r_squared, _line, fit_curve, predict
from .trajectory import FlowSample, FlowSamples


@dataclass(frozen=True)
class EconomicSpeed(FiniteFields):
    loaded_median: float
    empty_median: float
    combined_v_f: float


@dataclass(frozen=True)
class RecommendedMinimums(FiniteFields):
    v_min: float  # km/h
    g_min: float  # m


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
    v_f = model.v_f if model.is_piecewise else shape.v_at_zero(c1, c2)  # None: unbounded (log)
    if v_f is not None and v_min >= v_f:
        raise NoFeasibleDensityError(
            f"v_min {v_min} is not below the maximum attainable speed {v_f}"
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
        v_f=v_f,
        v_m=v_m,
        k_m=k_m,
        q_m=k_m * v_m,
        k_max=k_max,
        v_min=v_min,
    )


def _scan_order(spec, ks: np.ndarray, vs: np.ndarray, v_f: float, splits: list) -> list:
    """The splits in ascending order of their squared speed error in km/h, ties by k1.

    One stable sort by density makes each split's plateau a prefix and its
    branch a suffix (Hudson 1966): the plateau error is a prefix sum of
    (v - v_f)^2, and the branch line comes from suffix sums of the columns
    centred on the densest sample, so a branch of equal values has Sxy = 0
    exactly.  A linear or log branch scores Syy - Sxy^2/Sxx in O(1); an exp
    branch, fitted as ln v, sums its residuals in km/h over its sorted slice.
    A NaN or infinite score sorts last, so its split is still tried.  Called
    by ``fit_fd`` only, under its errstate.
    """
    order = np.argsort(ks, kind="stable")
    k, v = ks[order], vs[order]
    x, y = spec.transform(k, v)
    p = np.searchsorted(k, splits, side="right")  # plateau sizes: samples at or below a split
    plateau = np.concatenate(([0.0], np.cumsum((v - v_f) ** 2)))[p]
    dx, dy = x - x[-1], y - y[-1]
    suffix = np.cumsum(np.stack((dx, dy, dx * dx, dx * dy, dy * dy))[:, ::-1], axis=1)[:, ::-1]
    sx, sy, sxx, sxy, syy = np.hstack((suffix, np.zeros((5, 1))))[:, p]
    n = len(k) - p  # branch sizes
    cxy = sxy - sx * sy / n
    slope = cxy / (sxx - sx * sx / n)
    if spec.log_y:  # ln v = ln a + slope * k, scored in km/h
        a = np.exp(y[-1] + (sy - slope * sx) / n - slope * x[-1])
        branch = [(r := v[i:] - spec.curve(ai, bi, k[i:])) @ r
                  for i, ai, bi in zip(p.tolist(), a.tolist(), slope.tolist())]
    else:
        branch = syy - sy * sy / n - slope * cxy
    return [splits[i] for i in np.argsort(plateau + branch, kind="stable").tolist()]


@np.errstate(all="ignore")  # a scanned split whose fit or error sum is not finite is skipped
def fit_fd(
    form: str,
    samples: FlowSamples | Sequence[FlowSample],
    v_f: Optional[float] = None,
    k1: Optional[float] = None,
    k1_candidates: Optional[Sequence[float]] = None,
) -> tuple[FdModel, FitReport]:
    """Fit one model form to (density, mean_speed) samples; a piecewise k1 may be scanned for.

    The split is none for a classical form, or the given k1; a piecewise
    split holds v_f up to it and fits the branch beyond it, and raises its
    own error.  A scan over k1_candidates scores every split from one sorted
    pass (``_scan_order``), then fits them from the least score up and keeps
    the first fit with a finite squared speed error; a split that fails is
    skipped.  The kept fit and its speeds are the model and its R^2, so they
    are those of a given k1.  A given v_f or k1 that is not finite and
    positive is refused before any fit.  Every form reports family=form,
    a=c1, b=c2 and R^2 = 1 - SSE/SST of the speeds in km/h over all samples.
    """
    if form not in ALL_FORMS:
        raise DomainError(f"unknown model form {form!r}")
    for name, value in (("v_f", v_f), ("k1", k1)):
        if value is not None and not _finite_positive(value):
            raise DomainError(f"{form} needs a finite positive {name}, got {value!r}")
    if len(samples) < 3:
        raise InsufficientDataError("fitting needs at least 3 samples")
    scan = form in PIECEWISE_FORMS and k1 is None
    if form in CLASSICAL_FORMS:
        v_f = k1 = None
    elif v_f is None:
        raise DomainError("piecewise fitting requires a finite v_f > 0, got None")
    elif scan and (k1_candidates is None or not len(k1_candidates)
                   or not all(map(_finite_positive, k1_candidates))):
        raise DomainError("piecewise fitting needs k1 or non-empty, finite and positive candidates")
    if isinstance(samples, FlowSamples):
        ks, vs = np.asarray(samples.density, dtype=float), np.asarray(samples.mean_speed, dtype=float)
    else:
        ks, vs = (np.fromiter(map(attrgetter(name), samples), float, len(samples))
                  for name in ("density", "mean_speed"))
    shape = _FORM_SHAPE[form]
    spec = _family(shape.family)
    fx, fy = spec.transform(ks, vs)
    splits = _scan_order(spec, ks, vs, v_f, sorted(map(float, k1_candidates))) if scan else (k1,)
    best = None
    for split in splits:
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
        if not scan or math.isfinite(float(np.sum((vs - v) ** 2))):
            best = (split, c1, c2, v)
            break
    if best is None:
        raise InsufficientDataError(
            "no candidate leaves at least 2 samples in the non-free branch "
            "with a fit whose squared error is finite"
        )
    k1, c1, c2, v = best
    r2 = _fit_r_squared(vs, v)
    return (FdModel(form=form, c1=c1, c2=c2, v_f=v_f, k1=k1),
            FitReport(family=form, a=c1, b=c2, r_squared=r2, n_points=len(vs)))


def estimate_breakpoint(
    samples: FlowSamples | Sequence[FlowSample],
    v_f: float,
    candidates: Sequence[float],
    form: str = "piecewise_exp",
) -> float:
    """The k1 ``fit_fd`` picks from the candidates, or its error (fewer than 3 samples, say)."""
    if form not in PIECEWISE_FORMS:
        raise DomainError(f"estimate_breakpoint needs a piecewise form, got {form!r}")
    return fit_fd(form, samples, v_f=v_f, k1_candidates=candidates)[0].k1


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
