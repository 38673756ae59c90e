"""CSV ingestion, model-document persistence, and plot-ready curve export.

All inputs are UTF-8 comma-separated files with a mandatory header row.
Loaders parse a column at a time and never silently drop rows: every data
row is either accepted or recorded as a reject with its line number (strict
mode raises on the first reject).  A float cell must hold a finite number,
an integer cell must fit in 64 bits.  Files are read in blocks of rows.
numpy's C parser reads a block of printable-ASCII lines without '"' when it
yields the same values with no reject; any other block goes through
csv.reader and a per-cell cast that names each reject, and so does the rest
of the file after the first block holding a quote or another character.
Model documents are strict JSON with full-precision numbers, so save/load
round-trips are bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
from dataclasses import asdict, dataclass, field, is_dataclass
from datetime import datetime
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ParseError, SchemaVersionError
from .fundamental_diagram import CharacteristicParams, FdModel, speed_at_density
from .regression import FitReport
from .traffic_state import StateBands
from .trajectory import FleetRun, VesselMeta, VesselTrack

SCHEMA_VERSION = 1
_BLOCK_ROWS = 16384  # rows of a CSV file held as text at once
MAX_CURVE_ROWS = 1_000_000  # rows emit_curve_samples writes at most
_DTYPES = {float: np.float64, int: np.int64}
_PLAIN = re.compile(r"[ -!#-~\r\n]*").fullmatch  # printable ASCII without '"'
_BLANK = ("\n", "\r\n", "\r")  # lines csv.reader reads as no row

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


def _typed_column(cells: list, column: str, cast, first_row: int) -> tuple:
    """The cells cast one by one, and {row: RejectedRow}; float and int give arrays.

    A bad cell reads as cast("0"), and its reject says what is wrong with it.
    """
    values, errors = [], {}
    for row, raw in enumerate(cells, start=first_row):
        try:
            if raw == "":
                raise ValueError("missing value")
            try:
                value = cast(raw)
            except ValueError:
                raise ValueError(f"cannot parse {raw!r}") from None
            if cast is float and not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            if cast is int and not -2 ** 63 <= value < 2 ** 63:
                raise ValueError(f"outside the 64-bit integer range: {raw!r}")
            values.append(value)
        except ValueError as exc:
            values.append(cast("0"))
            errors[row] = RejectedRow(row + 2, column, str(exc))
    return (np.array(values, _DTYPES[cast]) if cast in _DTYPES else values), errors


def _fast_columns(lines: list, picks: list, casts: Sequence) -> Optional[list]:
    """Quote-free lines as ``_typed_column`` reads them, through numpy's C parser.

    None wherever the two could differ: a parse that fails or warns, a row
    count other than the lines', a non-finite float, or an empty string.
    """
    numeric = [j for j, cast in enumerate(casts) if cast in _DTYPES]
    read = partial(np.loadtxt, lines, delimiter=",", comments=None, ndmin=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.2x warns on "1.5" read as an int
        try:
            table = read(np.dtype([(str(j), _DTYPES[casts[j]]) for j in numeric]),
                         usecols=[picks[j] for j in numeric]) if numeric else {}
            columns = [table[str(j)] if cast in _DTYPES else read(str, usecols=[pick]).tolist()
                       for j, (pick, cast) in enumerate(zip(picks, casts))]
        except (ValueError, OverflowError, Warning):
            return None
    out = []
    for values, cast in zip(columns, casts):
        if len(values) != len(lines) or cast not in _DTYPES and "" in values:
            return None
        if cast is float and not np.isfinite(values).all():
            return None
        out.append((values if cast in _DTYPES else list(map(cast, values)), {}))
    return out


def _blocks(handle):
    """(lines or None, csv rows) for each block of the file's rows.

    Blocks of printable ASCII without '"' also come as their lines, blank ones
    left out.  From the first other block on, the rest of the file goes
    through csv.reader, so a quoted field holding a newline is never cut.
    """
    while block := list(islice(handle, _BLOCK_ROWS)):
        if not _PLAIN("".join(block)):
            break
        lines = [line for line in block if line not in _BLANK]
        yield lines, csv.reader(lines)
    reader = csv.reader(chain(block, handle))
    while rows := list(islice(reader, _BLOCK_ROWS)):
        yield None, rows


def _read_columns(path, required: Sequence[str], casts: Sequence) -> list[tuple]:
    """Each required column as ``_typed_column`` returns it, read in blocks of rows.

    Blank lines are skipped and not counted (data row i is line i + 2), a
    short row reads "" for the cells it lacks, and a repeated column name
    reads its last occurrence.  Only the csv path names rejects, so numpy
    reads a block only where that gives the same values and no rejects.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise ParseError(f"{path}: empty file, header row required")
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(f"{path}: missing required column(s) {missing}")
        picks = [max(i for i, name in enumerate(header) if name == c) for c in required]
        width = max(picks, default=-1) + 1
        # An empty first block gives each column its type, even in a file without rows.
        parts = [[_typed_column([], c, cast, 0)] for c, cast in zip(required, casts)]
        n = 0
        for lines, rows in _blocks(handle):
            typed = _fast_columns(lines, picks, casts) if lines else None
            if typed:
                rows = lines  # one row per line
            else:
                rows = [row if len(row) >= width else row + [""] * (width - len(row))
                        for row in rows if row]
                typed = [_typed_column([row[i] for row in rows], column, cast, n)
                         for i, column, cast in zip(picks, required, casts)]
            for part, column in zip(parts, typed):
                part.append(column)
            n += len(rows)
    return [(np.concatenate([v for v, _ in part]) if isinstance(part[0][0], np.ndarray)
             else list(chain.from_iterable(v for v, _ in part)),
             {row: reject for _, errors in part for row, reject in errors.items()})
            for part in parts]


def _rejects(path, strict: bool, *column_errors: dict) -> tuple[RejectedRow, ...]:
    """Each bad row's first error (checks in precedence order), in line order.

    Strict mode raises the first of them as a ParseError.
    """
    first: dict = {}
    for errors in column_errors:
        for row, reject in errors.items():
            first.setdefault(row, reject)
    found = tuple(first[row] for row in sorted(first))
    if strict and found:
        raise ParseError(f"{path}:{found[0].line}:{found[0].column}: {found[0].message}")
    return found


def read_columns(path, *columns: str) -> tuple[list[float], ...]:
    """Finite float columns of a CSV, one list per named column, read in one pass.

    Strict: the first bad cell raises ParseError naming path:line:column.
    """
    typed = _read_columns(path, columns, [float] * len(columns))
    _rejects(path, True, *(errors for _, errors in typed))
    return tuple(values.tolist() for values, _ in typed)


def load_vessel_meta(path, strict: bool = True) -> LoadResult:
    """Vessel metadata keyed by (run_id, fleet_position) via ``meta_map``.

    A row repeating the key of an earlier row is a duplicate even when that
    row is rejected for a later cell.
    """
    (run_ids, run_err), (pos, pos_err), (length, len_err), (offset, off_err), (load, load_err) = \
        _read_columns(path, META_COLUMNS, (str, int, float, float, str))
    rows = list(zip(run_ids, pos.tolist(), length.tolist(), offset.tolist(), load))
    seen, dup_err, items, domain_err = set(), {}, {}, {}
    for row, (run_id, p, *fields) in enumerate(rows):
        if row not in run_err and row not in pos_err:
            if (run_id, p) in seen:
                dup_err[row] = RejectedRow(row + 2, "fleet_position",
                                           f"duplicate key {(run_id, p)}")
            seen.add((run_id, p))
        try:
            items[row] = (run_id, VesselMeta(p, *fields))
        except DomainError as exc:
            domain_err[row] = RejectedRow(row + 2, None, str(exc))
    rejects = _rejects(path, strict, run_err, pos_err, dup_err, len_err, off_err, load_err,
                       domain_err)
    for r in rejects:
        items.pop(r.line - 2, None)
    return LoadResult(items=tuple(items.values()), rejects=rejects)


def meta_map(result: LoadResult) -> dict[tuple[str, int], VesselMeta]:
    return {(run_id, meta.fleet_position): meta for run_id, meta in result.items}


def load_tracks(
    path,
    meta: dict[tuple[str, int], VesselMeta],
    delta_t: float = 1.0,
    strict: bool = True,
) -> tuple[list[FleetRun], LoadResult]:
    """Fleet runs assembled from a track file plus a vessel-meta map.

    Cells are parsed a column at a time and rows grouped by one lexsort over
    (run, position, t), with no object per fix.  A row repeating the key of
    an earlier row is a duplicate even when that row has a bad coordinate.
    ``items`` holds the accepted rows' line numbers.
    """
    # run_id cells are interned: a few names repeat on every row.
    (run_ids, run_err), (p, p_err), (t, t_err), (x, x_err), (y, y_err) = _read_columns(
        path, TRACK_COLUMNS, (sys.intern, int, int, float, float))
    names = sorted(set(run_ids))  # str order, so runs come out sorted by run_id
    code = {name: i for i, name in enumerate(names)}
    run = np.array([code[r] for r in run_ids], dtype=np.int64)
    keyed = np.ones(len(run), dtype=bool)
    keyed[list({**run_err, **p_err, **t_err})] = False
    order = np.lexsort((t, p, run))  # stable: equal keys stay in line order
    order = order[keyed[order]]
    later, earlier = order[1:], order[:-1]
    dups = later[(run[later] == run[earlier]) & (p[later] == p[earlier]) & (t[later] == t[earlier])]
    dup_err = {r: RejectedRow(r + 2, "t_seconds",
                              f"duplicate key {(run_ids[r], int(p[r]), int(t[r]))}")
               for r in dups.tolist()}
    rejects = _rejects(path, strict, run_err, p_err, t_err, dup_err, x_err, y_err)
    accepted = np.ones(len(run), dtype=bool)
    accepted[[r.line - 2 for r in rejects]] = False
    order = order[accepted[order]]
    run, p, t, x, y = (column[order] for column in (run, p, t, x, y))
    first = np.ones(len(order), dtype=bool)  # rows that start a (run, position) track
    first[1:] = (run[1:] != run[:-1]) | (p[1:] != p[:-1])
    starts = np.flatnonzero(first).tolist()

    runs, tracks = [], []
    for a, b in zip(starts, starts[1:] + [len(order)]):
        key = (names[run[a]], int(p[a]))
        if key not in meta:
            raise ParseError(f"{path}: no vessel metadata for run {key[0]!r} position {key[1]}")
        tracks.append(VesselTrack(meta=meta[key], t=t[a:b], x=x[a:b], y=y[a:b]))
        if b == len(order) or run[b] != run[a]:
            runs.append(FleetRun(run_id=key[0], tracks=tuple(tracks), delta_t=delta_t))
            tracks = []
    return runs, LoadResult(items=tuple((np.flatnonzero(accepted) + 2).tolist()), rejects=rejects)


def load_surveillance(path, strict: bool = True) -> LoadResult:
    (start, start_err), (way, way_err), (flow, flow_err), (speed, speed_err), \
        (loaded, loaded_err), (empty, empty_err) = _read_columns(
            path, SURVEILLANCE_COLUMNS, (str, str, float, float, int, int))
    not_iso = {}
    for row, text in enumerate(start):
        try:
            datetime.fromisoformat(text)
        except ValueError:
            not_iso[row] = RejectedRow(row + 2, "interval_start", f"not ISO-8601: {text!r}")
    unknown_way = {r: RejectedRow(r + 2, "direction",
                                  f"must be one of {DIRECTIONS}, got {w!r}")
                   for r, w in enumerate(way) if w not in DIRECTIONS}
    negative = {r: RejectedRow(r + 2, "flow_vph", "flow must be >= 0")
                for r in np.flatnonzero(flow < 0).tolist()}
    still = {r: RejectedRow(r + 2, "mean_speed_kmh", "speed must be positive when flow > 0")
             for r in np.flatnonzero((flow > 0) & (speed <= 0)).tolist()}
    rejects = _rejects(path, strict, start_err, not_iso, way_err, unknown_way, flow_err,
                       speed_err, negative, still, loaded_err, empty_err)
    bad = {r.line - 2 for r in rejects}
    rows = zip(start, way, flow.tolist(), speed.tolist(), loaded.tolist(), empty.tolist())
    items = tuple(SurveillanceRow(*row) for i, row in enumerate(rows) if i not in bad)
    return LoadResult(items=items, rejects=rejects)


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
        if self.v_min is not None and not 0 < self.v_min < math.inf:
            raise DomainError(f"v_min must be a finite positive number, got {self.v_min!r}")


def document_to_dict(doc: ModelDocument) -> dict:
    out: dict = {"schema_version": doc.schema_version}
    for key, part in (("model", doc.fd), ("v_min", doc.v_min),
                      ("characteristics", doc.characteristics), ("bands", doc.bands),
                      ("fit", doc.fit), ("created_utc", doc.created_utc)):
        if part is not None:
            out[key] = asdict(part) if is_dataclass(part) else part
    if doc.bands is not None:
        out["bands"]["boundaries"] = list(doc.bands.boundaries)
    return out


def document_from_dict(raw: dict) -> ModelDocument:
    """The document's sections; a section holding an unknown key is malformed."""
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    return ModelDocument(
        fd=FdModel(**raw["model"]) if "model" in raw else None,
        v_min=raw.get("v_min"),
        characteristics=(CharacteristicParams(**{"v_f": None, **raw["characteristics"]})
                         if "characteristics" in raw else None),
        bands=StateBands(boundaries=tuple(raw["bands"]["boundaries"])) if "bands" in raw else None,
        fit=FitReport(**raw["fit"]) if "fit" in raw else None,
        created_utc=raw.get("created_utc"),
    )


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
    """Write a k,v,q CSV over an inclusive density grid; returns the row count.

    The grid is lo + i*step up to hi plus 1e-12.  A grid that could exceed
    MAX_CURVE_ROWS rows, or on which v or q overflows, is refused before the
    file is opened.
    """
    lo, hi = k_range
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise DomainError("k_range bounds and step must be finite")
    if step <= 0:
        raise DomainError("step must be positive")
    if hi < lo:
        raise DomainError("k_range upper bound below lower bound")
    # At most n rows: rounding moves each k by less than a float spacing.
    n = (hi + 1e-12 - lo + 2 * math.ulp(max(abs(lo), abs(hi)))) / step + 2
    if n > MAX_CURVE_ROWS:
        raise DomainError(f"a step of {step!r} could give more than {MAX_CURVE_ROWS} rows")
    with np.errstate(over="ignore"):  # a grid past the float range is refused below
        k = lo + np.arange(n) * step
        k = k[k <= hi + 1e-12]
        v = speed_at_density(model, k)
        q = k * v
    if not np.isfinite(q).all():  # v past the float range takes q with it
        raise DomainError(f"v or q overflows on the grid up to k={k[-1]!r}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "v", "q"])
        writer.writerows(zip(*(map(repr, c.tolist()) for c in (k, v, q))))
    return len(k)
