"""The model document and the traffic-state classification, on the standard library alone.

A model document bundles a fitted fundamental diagram, its characteristic
parameters, the state bands and a fit report.  ``fairway serve`` and
``states classify`` need nothing more, so neither loads numpy; the compute
modules import these names from here.
Model documents are strict JSON with full-precision numbers, so save/load
round-trips are bit-identical.  No value may be true or false and an integer
must fit in 64 bits: a document breaking that is refused when built and when loaded.
"""

from __future__ import annotations

import enum
import json
import math
import reprlib
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import DegenerateFitError, DomainError, ParseError, SchemaVersionError

SCHEMA_VERSION = 1


def brief(value) -> str:
    """``f"{value}"`` cut to 80 characters for an error text; ``reprlib`` walks only a few items."""
    text = value if isinstance(value, str) else reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class FiniteFields:
    """Dataclass base: every field must be None or a finite number, else DomainError."""

    def __post_init__(self):
        if not all((v := getattr(self, f.name)) is None or math.isfinite(v) for f in fields(self)):
            raise DomainError(f"every field must be finite, got {self}")


# Tie-break order when ranking by R^2.
FAMILIES = ("logarithmic", "power", "linear", "exponential")


@dataclass(frozen=True)
class FitReport:
    family: str  # a curve family, or the diagram form fit_fd fitted
    a: float
    b: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if not (isinstance(self.n_points, int) and self.n_points >= 2):
            raise DegenerateFitError(f"n_points must be an int >= 2, got {brief(self.n_points)}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.r_squared)):
            raise DegenerateFitError("non-finite fit result")


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
            raise DomainError(f"unknown model form {brief(self.form)!r}")
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


class TrafficState(enum.Enum):
    """Four congestion levels ordered from worst to best."""

    SEVERELY_CONGESTED = "severely_congested"
    CONGESTED = "congested"
    SLOW = "slow"
    SMOOTH = "smooth"

    @property
    def severity(self) -> int:
        """3 = severely congested ... 0 = smooth."""
        return 3 - _STATES.index(self)

    @property
    def color(self) -> str:
        return _STATE_COLORS[self]


_STATES = tuple(TrafficState)  # worst to best, in definition order

_STATE_COLORS = {
    TrafficState.SEVERELY_CONGESTED: "dark_red",
    TrafficState.CONGESTED: "red",
    TrafficState.SLOW: "yellow",
    TrafficState.SMOOTH: "green",
}


@dataclass(frozen=True)
class StateBands:
    """Three ascending speed thresholds in (0, inf) partitioning it into four states."""

    boundaries: tuple[float, float, float]  # km/h; any sequence is stored as a tuple

    def __post_init__(self):
        object.__setattr__(self, "boundaries", b := tuple(self.boundaries))
        if len(b) != 3 or not (0 < b[0] < b[1] < b[2] < math.inf):
            raise DomainError(f"boundaries must be 3 ascending values in (0, inf), got {brief(b)}")


def classify_speed(bands: StateBands, v: float) -> TrafficState:
    """Map a positive speed to its band; upper bounds inclusive except smooth."""
    if not 0 < v < math.inf:
        raise DomainError(f"speed must be positive and finite, got {v}")
    return _STATES[bisect_left(bands.boundaries, v)]


def classify_flow_density(
    bands: StateBands, flow: float, density: float
) -> tuple[float, TrafficState]:
    """Estimate speed as flow/density and classify it."""
    if not 0 < density < math.inf:
        raise DomainError(f"density must be positive and finite, got {density}")
    if not 0 <= flow < math.inf:
        raise DomainError(f"flow must be finite and non-negative, got {flow}")
    v = flow / density
    return v, classify_speed(bands, v)  # also rejects a quotient that overflows


@dataclass(frozen=True)
class ModelDocument:
    """Persisted bundle: fitted diagram, characteristics, state bands, metadata."""

    fd: Optional[FdModel] = None
    v_min: Optional[float] = None
    characteristics: Optional[CharacteristicParams] = None
    bands: Optional[StateBands] = None
    fit: Optional[FitReport] = None
    created_utc: Optional[str] = None

    def __post_init__(self):
        if self.fd is None and self.bands is None:
            raise DomainError("a model document needs a diagram model or state bands")
        if self.v_min is not None and not 0 < self.v_min < math.inf:
            raise DomainError(f"v_min must be a finite positive number, got {self.v_min!r}")
        if self.fit is not None and self.fit.family not in FAMILIES + ALL_FORMS:
            raise DomainError(f"unknown fit family {brief(self.fit.family)!r}")
        if fault := _json_fault(document_to_dict(self)):  # what load_model would refuse
            raise DomainError(fault)


# Each JSON section of a model document: its ModelDocument field, and the
# dataclass the section is read into (None for a plain value).
_SECTIONS = {"model": ("fd", FdModel), "v_min": ("v_min", None),
             "characteristics": ("characteristics", CharacteristicParams),
             "bands": ("bands", StateBands), "fit": ("fit", FitReport),
             "created_utc": ("created_utc", None)}


def document_to_dict(doc: ModelDocument) -> dict:
    out: dict = {"schema_version": SCHEMA_VERSION}
    for key, (name, kind) in _SECTIONS.items():
        if (part := getattr(doc, name)) is not None:
            out[key] = part if kind is None else {
                k: list(v) if isinstance(v, tuple) else v for k, v in asdict(part).items()}
    return out


def _json_fault(raw: dict) -> Optional[str]:
    """What breaks a JSON-level rule of a model document, or None.

    No value is true or false (no field is boolean), every integer fits in the
    64 bits a CSV integer cell must fit in, and created_utc, when present, is a string.
    """
    values = [raw]
    while values:
        value = values.pop()
        if isinstance(value, bool):
            return "no field of a model document takes true or false"
        if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63:
            return "no field of a model document takes an integer outside 64 bits"
        if isinstance(value, (dict, list)):
            values += value.values() if isinstance(value, dict) else value
    if not isinstance(raw.get("created_utc", ""), str):
        return f"created_utc must be a string, got {brief(raw['created_utc'])}"


def document_from_dict(raw: dict) -> ModelDocument:
    """The document's sections, each read as ``_SECTIONS`` says.

    TypeError on what ``_json_fault`` names, an unknown key at any level, or a
    section that is not an object or lacks a field.
    """
    if fault := _json_fault(raw):
        raise TypeError(fault)
    if (version := raw.get("schema_version")) != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    if unknown := sorted(raw.keys() - _SECTIONS.keys() - {"schema_version"}):
        raise TypeError(f"unknown top-level key(s) {unknown}")
    parts = {name: raw[key] if kind is None else kind(**raw[key])
             for key, (name, kind) in _SECTIONS.items() if key in raw}
    return ModelDocument(**parts)


def json_text(payload, **layout) -> str:
    """Strict JSON text with sorted keys; a NaN or an infinity raises DomainError."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **layout)
    except ValueError as exc:
        raise DomainError(f"not strict JSON: {exc}") from None


def serialize_document(doc: ModelDocument) -> str:
    """Deterministic JSON text: sorted keys, repr-precision floats."""
    return json_text(document_to_dict(doc), indent=2) + "\n"


def save_model(doc: ModelDocument, path) -> None:
    Path(path).write_text(serialize_document(doc), encoding="utf-8")


def load_model(path) -> ModelDocument:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, 4,300-digit integers, deep nesting
        raise ParseError(f"{path}: malformed model document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    try:
        return document_from_dict(raw)
    except (TypeError, RecursionError) as exc:  # RecursionError: a guard for a deep section
        raise ParseError(f"{path}: malformed model document: {exc}") from exc
