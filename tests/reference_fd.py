"""The fundamental-diagram fit as it stood before the one split scan, frozen as a reference.

``fit_fd`` searched the breakpoint through ``estimate_breakpoint``, which
fitted and scored every candidate and kept only the winning k1; ``fit_fd``
then refitted that split and evaluated the model again for R^2.  Tests
require the single scan in ``fairway.fundamental_diagram`` to return the
same models, reports and breakpoints, bit for bit, or the same error class.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from fairway.errors import DegenerateFitError, DomainError, InsufficientDataError
from fairway.fundamental_diagram import (
    _FORM_SHAPE,
    ALL_FORMS,
    CLASSICAL_FORMS,
    PIECEWISE_FORMS,
    FdModel,
    _finite_positive,
    speed_at_density,
)
from fairway.regression import FitReport, _columns, _family, _fit_r_squared, _line
from fairway.trajectory import FlowSample, FlowSamples


def _density_speed(samples) -> tuple[np.ndarray, np.ndarray]:
    """Density and mean-speed columns of a FlowSamples batch or a sequence of FlowSample."""
    if not isinstance(samples, FlowSamples):
        return _columns([(s.density, s.mean_speed) for s in samples])
    return np.asarray(samples.density, dtype=float), np.asarray(samples.mean_speed, dtype=float)


def _fit_branch(form: str, fx: np.ndarray, fy: np.ndarray, beyond) -> tuple[float, float]:
    """(c1, c2) fitted to the samples ``beyond`` picks of the family-transformed columns."""
    shape = _FORM_SHAPE[form]
    bx, by = fx[beyond], fy[beyond]
    if len(bx) < 2:
        raise InsufficientDataError(f"only {len(bx)} samples in the {form} branch; need at least 2")
    if not np.isfinite(by).all():  # densities are positive, so ln k is finite
        raise DomainError(f"{form} branch needs speeds > 0 under its logarithm")
    a, b = _line(shape.family, bx, by)
    c1, c2 = shape.signs[0] * a, shape.signs[1] * b
    if not (_finite_positive(c1) and _finite_positive(c2)):
        raise DegenerateFitError(
            f"fitted {form} coefficients violate positivity: ({c1:.6g}, {c2:.6g})"
        )
    return c1, c2


def fit_fd(
    form: str,
    samples: FlowSamples | Sequence[FlowSample],
    v_f: Optional[float] = None,
    k1: Optional[float] = None,
    k1_candidates: Optional[Sequence[float]] = None,
) -> tuple[FdModel, FitReport]:
    if form not in ALL_FORMS:
        raise DomainError(f"unknown model form {form!r}")
    if len(samples) < 3:
        raise InsufficientDataError("fitting needs at least 3 samples")
    ks, vs = _density_speed(samples)
    if form in CLASSICAL_FORMS:
        v_f = k1 = None
    elif not _finite_positive(v_f):
        raise DomainError(f"piecewise fitting requires a finite v_f > 0, got {v_f}")
    elif k1 is None:
        if not k1_candidates:
            raise DomainError("piecewise fitting requires k1 or k1_candidates")
        batch = FlowSamples(density=ks, mean_speed=vs)  # converted once
        k1 = estimate_breakpoint(batch, v_f, k1_candidates, form=form)
    fx, fy = _family(_FORM_SHAPE[form].family).transform(ks, vs)
    c1, c2 = _fit_branch(form, fx, fy, slice(None) if k1 is None else ks > k1)
    model = FdModel(form=form, c1=c1, c2=c2, v_f=v_f, k1=k1)
    r2 = _fit_r_squared(vs, speed_at_density(model, ks))
    return model, FitReport(family=form, a=model.c1, b=model.c2, r_squared=r2, n_points=len(ks))


@np.errstate(all="ignore")  # a candidate whose fit or error sum is not finite is skipped
def estimate_breakpoint(
    samples: FlowSamples | Sequence[FlowSample],
    v_f: float,
    candidates: Sequence[float],
    form: str = "piecewise_exp",
) -> float:
    if not candidates or not all(_finite_positive(c) for c in candidates):
        raise DomainError("candidates must be non-empty, finite and positive")
    if not _finite_positive(v_f):
        raise DomainError(f"breakpoint search requires a finite v_f > 0, got {v_f}")
    if form not in PIECEWISE_FORMS:
        raise DomainError(f"estimate_breakpoint needs a piecewise form, got {form!r}")
    ks, vs = _density_speed(samples)
    shape = _FORM_SHAPE[form]
    spec = _family(shape.family)
    fx, fy = spec.transform(ks, vs)
    best = None
    for cand in sorted(candidates):
        beyond = ks > cand
        try:
            c1, c2 = _fit_branch(form, fx, fy, beyond)
        except (InsufficientDataError, DomainError, DegenerateFitError):
            continue
        branch = spec.curve(shape.signs[0] * c1, shape.signs[1] * c2, ks)
        sse = float(np.sum((vs - np.where(beyond, branch, v_f)) ** 2))
        if math.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, cand)
    if best is None:
        raise InsufficientDataError(
            "no candidate leaves at least 2 samples in the non-free branch "
            "with a fit whose squared error is finite"
        )
    return best[1]
