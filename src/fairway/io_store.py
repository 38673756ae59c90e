"""CSV ingestion, model-document persistence, and plot-ready curve export.

All inputs are UTF-8 comma-separated files with a mandatory header row.
Loaders never silently drop rows: every data row is either accepted or
recorded as a reject with its line number (strict mode raises on the
first reject); a float cell must hold a finite number.  Model documents
are JSON with full-precision numbers so save/load round-trips are
bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import DomainError, ParseError, SchemaVersionError
from .fundamental_diagram import CharacteristicParams, FdModel, speed_at_density
from .regression import FitReport
from .traffic_state import StateBands
from .trajectory import FleetRun, GnssFix, VesselMeta, VesselTrack

SCHEMA_VERSION = 1

TRACK_COLUMNS = ("run_id", "fleet_position", "t_seconds", "x_m", "y_m")
META_COLUMNS = ("run_id", "fleet_position", "length_m", "locator_offset_m", "load_state")
SURVEILLANCE_COLUMNS = (
    "interval_start", "direction", "flow_vph", "mean_speed_kmh",
    "loaded_count", "empty_count",
)

DIRECTIONS = ("upstream", "downstream")


@dataclass(frozen=True)
class SurveillanceRow:
    interval_start: str  # ISO-8601
    direction: str
    flow_vph: float
    mean_speed_kmh: float
    loaded_count: int
    empty_count: int


@dataclass(frozen=True)
class RejectedRow:
    line: int
    column: Optional[str]
    message: str


@dataclass(frozen=True)
class LoadResult:
    """Accepted items plus per-line rejects; counts always add up."""

    items: tuple
    rejects: tuple[RejectedRow, ...] = field(default=())


def _check_header(path, fieldnames: Sequence[str], required: Sequence[str]) -> None:
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise ParseError(f"{path}: missing required column(s) {missing}")


def _parse_rows(path, required, row_fn: Callable, strict: bool):
    """Shared scaffolding: header check, per-row parse, reject bookkeeping."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file, header row required")
        _check_header(path, reader.fieldnames, required)
        items, rejects = [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                items.append(row_fn(row, lineno))
            except _RowError as exc:
                if strict:
                    raise ParseError(
                        f"{path}:{exc.line}:{exc.column}: {exc.message}"
                    ) from None
                rejects.append(
                    RejectedRow(line=exc.line, column=exc.column, message=exc.message)
                )
    return items, rejects


class _RowError(Exception):
    def __init__(self, line, column, message):
        super().__init__(message)
        self.line, self.column, self.message = line, column, message


def _field(row, lineno, column, cast):
    raw = row.get(column)
    if raw is None or raw == "":
        raise _RowError(lineno, column, "missing value")
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        raise _RowError(lineno, column, f"cannot parse {raw!r}") from None
    if cast is float and not math.isfinite(value):
        raise _RowError(lineno, column, f"not a finite number: {raw!r}")
    return value


def read_columns(path, *columns: str) -> tuple[list[float], ...]:
    """Finite float columns of a CSV, one list per named column, read in one pass.

    Strict: the first bad cell raises ParseError naming path:line:column.
    """
    rows, _ = _parse_rows(
        path, columns,
        lambda row, lineno: [_field(row, lineno, c, float) for c in columns],
        strict=True,
    )
    return tuple([row[i] for row in rows] for i in range(len(columns)))


def load_vessel_meta(path, strict: bool = True) -> LoadResult:
    """Vessel metadata keyed by (run_id, fleet_position) via ``meta_map``."""
    seen = set()

    def parse(row, lineno):
        run_id = _field(row, lineno, "run_id", str)
        pos = _field(row, lineno, "fleet_position", int)
        key = (run_id, pos)
        if key in seen:
            raise _RowError(lineno, "fleet_position", f"duplicate key {key}")
        seen.add(key)
        try:
            meta = VesselMeta(
                fleet_position=pos,
                length=_field(row, lineno, "length_m", float),
                locator_offset=_field(row, lineno, "locator_offset_m", float),
                load_state=_field(row, lineno, "load_state", str),
            )
        except DomainError as exc:
            raise _RowError(lineno, None, str(exc)) from None
        return (run_id, meta)

    items, rejects = _parse_rows(path, META_COLUMNS, parse, strict)
    return LoadResult(items=tuple(items), rejects=tuple(rejects))


def meta_map(result: LoadResult) -> dict[tuple[str, int], VesselMeta]:
    return {(run_id, meta.fleet_position): meta for run_id, meta in result.items}


def load_tracks(
    path,
    meta: dict[tuple[str, int], VesselMeta],
    delta_t: float = 1.0,
    strict: bool = True,
) -> tuple[list[FleetRun], LoadResult]:
    """Fleet runs assembled from a track file plus a vessel-meta map."""
    seen = set()

    def parse(row, lineno):
        run_id = _field(row, lineno, "run_id", str)
        pos = _field(row, lineno, "fleet_position", int)
        t = _field(row, lineno, "t_seconds", int)
        key = (run_id, pos, t)
        if key in seen:
            raise _RowError(lineno, "t_seconds", f"duplicate key {key}")
        seen.add(key)
        try:
            fix = GnssFix(t=t, x=_field(row, lineno, "x_m", float),
                          y=_field(row, lineno, "y_m", float))
        except DomainError as exc:
            raise _RowError(lineno, None, str(exc)) from None
        return (run_id, pos, fix)

    items, rejects = _parse_rows(path, TRACK_COLUMNS, parse, strict)

    grouped: dict[str, dict[int, list[GnssFix]]] = {}
    for run_id, pos, fix in items:
        grouped.setdefault(run_id, {}).setdefault(pos, []).append(fix)

    runs = []
    for run_id in sorted(grouped):
        tracks = []
        for pos in sorted(grouped[run_id]):
            key = (run_id, pos)
            if key not in meta:
                raise ParseError(f"{path}: no vessel metadata for run {run_id!r} position {pos}")
            fixes = sorted(grouped[run_id][pos], key=lambda f: f.t)
            tracks.append(VesselTrack(meta=meta[key], fixes=tuple(fixes)))
        runs.append(FleetRun(run_id=run_id, tracks=tuple(tracks), delta_t=delta_t))
    return runs, LoadResult(items=tuple(items), rejects=tuple(rejects))


def load_surveillance(path, strict: bool = True) -> LoadResult:
    def parse(row, lineno):
        start = _field(row, lineno, "interval_start", str)
        try:
            datetime.fromisoformat(start)
        except ValueError:
            raise _RowError(lineno, "interval_start", f"not ISO-8601: {start!r}") from None
        direction = _field(row, lineno, "direction", str)
        if direction not in DIRECTIONS:
            raise _RowError(lineno, "direction", f"must be one of {DIRECTIONS}, got {direction!r}")
        flow = _field(row, lineno, "flow_vph", float)
        speed = _field(row, lineno, "mean_speed_kmh", float)
        if flow < 0:
            raise _RowError(lineno, "flow_vph", "flow must be >= 0")
        if flow > 0 and speed <= 0:
            raise _RowError(lineno, "mean_speed_kmh", "speed must be positive when flow > 0")
        return SurveillanceRow(
            interval_start=start,
            direction=direction,
            flow_vph=flow,
            mean_speed_kmh=speed,
            loaded_count=_field(row, lineno, "loaded_count", int),
            empty_count=_field(row, lineno, "empty_count", int),
        )

    items, rejects = _parse_rows(path, SURVEILLANCE_COLUMNS, parse, strict)
    return LoadResult(items=tuple(items), rejects=tuple(rejects))


@dataclass(frozen=True)
class ModelDocument:
    """Persisted bundle: fitted diagram, characteristics, state bands, metadata."""

    fd: Optional[FdModel] = None
    v_min: Optional[float] = None
    characteristics: Optional[CharacteristicParams] = None
    bands: Optional[StateBands] = None
    fit: Optional[FitReport] = None
    created_utc: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.fd is None and self.bands is None:
            raise DomainError("a model document needs a diagram model or state bands")


def document_to_dict(doc: ModelDocument) -> dict:
    out: dict = {"schema_version": doc.schema_version}
    if doc.fd is not None:
        out["model"] = {
            "form": doc.fd.form,
            "c1": doc.fd.c1,
            "c2": doc.fd.c2,
            "v_f": doc.fd.v_f,
            "k1": doc.fd.k1,
        }
    if doc.v_min is not None:
        out["v_min"] = doc.v_min
    if doc.characteristics is not None:
        c = doc.characteristics
        out["characteristics"] = {
            "v_f": c.v_f, "v_m": c.v_m, "k_m": c.k_m,
            "q_m": c.q_m, "k_max": c.k_max, "v_min": c.v_min,
        }
    if doc.bands is not None:
        out["bands"] = {"boundaries": list(doc.bands.boundaries)}
    if doc.fit is not None:
        out["fit"] = {
            "family": doc.fit.family, "a": doc.fit.a, "b": doc.fit.b,
            "r_squared": doc.fit.r_squared, "n_points": doc.fit.n_points,
            "fit_space": doc.fit.fit_space,
        }
    if doc.created_utc is not None:
        out["created_utc"] = doc.created_utc
    return out


def document_from_dict(raw: dict) -> ModelDocument:
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    fd = None
    if "model" in raw:
        m = raw["model"]
        fd = FdModel(form=m["form"], c1=m["c1"], c2=m["c2"],
                     v_f=m.get("v_f"), k1=m.get("k1"))
    characteristics = None
    if "characteristics" in raw:
        c = raw["characteristics"]
        characteristics = CharacteristicParams(
            v_f=c.get("v_f"), v_m=c["v_m"], k_m=c["k_m"],
            q_m=c["q_m"], k_max=c["k_max"], v_min=c["v_min"],
        )
    bands = None
    if "bands" in raw:
        bands = StateBands(boundaries=tuple(raw["bands"]["boundaries"]))
    fit = None
    if "fit" in raw:
        f = raw["fit"]
        fit = FitReport(family=f["family"], a=f["a"], b=f["b"],
                        r_squared=f["r_squared"], n_points=f["n_points"],
                        fit_space=f["fit_space"])
    return ModelDocument(
        fd=fd, v_min=raw.get("v_min"), characteristics=characteristics,
        bands=bands, fit=fit, created_utc=raw.get("created_utc"),
    )


def serialize_document(doc: ModelDocument) -> str:
    """Deterministic JSON text: sorted keys, repr-precision floats."""
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


def save_model(doc: ModelDocument, path) -> None:
    Path(path).write_text(serialize_document(doc), encoding="utf-8")


def load_model(path) -> ModelDocument:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed model document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    try:
        return document_from_dict(raw)
    except SchemaVersionError:
        raise
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed model document: {exc}") from exc


def emit_curve_samples(model: FdModel, k_range: tuple[float, float], step: float, path) -> int:
    """Write a k,v,q CSV over an inclusive density grid; returns the row count."""
    lo, hi = k_range
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise DomainError("k_range bounds and step must be finite")
    if step <= 0:
        raise DomainError("step must be positive")
    if hi < lo:
        raise DomainError("k_range upper bound below lower bound")
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "v", "q"])
        k = lo
        while k <= hi + 1e-12:
            v = speed_at_density(model, k)
            writer.writerow([repr(k), repr(v), repr(k * v)])
            rows += 1
            k = lo + (rows) * step
    return rows
