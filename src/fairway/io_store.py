"""CSV reading and writing, and plot-ready curve export.

All inputs are UTF-8 comma-separated files (a leading byte-order mark is skipped)
with a mandatory header row, and every row is one line.  Loaders never silently
drop rows: every data row is accepted or recorded as a reject naming its physical
line, blank lines counted (strict mode raises on the first reject).  A float cell
must hold a finite number, an integer cell must fit in 64 bits, and a quoted field
must close on its own line.  Each block of lines is read on its own: by one
np.loadtxt call when its lines are printable ASCII without '"' and that yields the
same values with no reject, else by csv.reader line by line and a per-cell cast
that names each reject.  ``write_rows`` is the one CSV writer: csv quotes the key
cells, and each value is written as its repr.  Model documents are read and written
by ``document``; ``load_model`` and the other document functions import from here too.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
import warnings
from collections import ChainMap
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, compress, islice
from typing import Optional, Sequence

import numpy as np

from .document import (FdModel, ModelDocument, brief, document_from_dict, document_to_dict,
                       json_text, load_model, save_model, serialize_document)
from .errors import DomainError, ParseError
from .fundamental_diagram import speed_at_density
from .trajectory import FleetRun, VesselMeta, VesselTrack

_BLOCK_ROWS = 16384  # lines of a CSV file held as text at once
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
    """Accepted items plus per-line rejects; counts always add up.

    ``load_tracks``' items are one int64 array: its results are not compared with ``==``.
    """

    items: tuple | np.ndarray
    rejects: tuple[RejectedRow, ...] = field(default=())


def _typed_column(cells: list, column: str, cast, first_row: int) -> tuple:
    """The cells cast one by one, and {row: (column, message)}; float and int give arrays.

    A bad cell reads as cast("0"), and its error says what is wrong with it.
    """
    values, errors = [], {}
    for row, raw in enumerate(cells, start=first_row):
        try:
            if raw == "":
                raise ValueError("missing value")
            try:
                value = cast(raw)
            except ValueError:
                raise ValueError(f"cannot parse {brief(repr(raw))}") from None
            if cast is float and not math.isfinite(value):
                raise ValueError(f"not a finite number: {brief(repr(raw))}")
            if cast is int and not -2 ** 63 <= value < 2 ** 63:
                raise ValueError(f"outside the 64-bit integer range: {brief(repr(raw))}")
            values.append(value)
        except ValueError as exc:
            values.append(cast("0"))
            errors[row] = (column, str(exc))
    return (np.array(values, _DTYPES[cast]) if cast in _DTYPES else values), errors


def _fast_columns(lines: list, picks: list, casts: Sequence) -> Optional[list]:
    """Quote-free lines as ``_typed_column`` reads them, from one np.loadtxt call.

    Text cells come as Python str and numeric columns as copies: a view would keep
    the block's table alive.  None wherever the two could differ: a parse that fails
    or warns, a row count other than the lines', a non-finite float, or an empty string.
    """
    dtype = np.dtype([(str(j), _DTYPES.get(cast, object)) for j, cast in enumerate(casts)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.2x warns on "1.5" read as an int
        try:
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1, usecols=picks)
        except (ValueError, OverflowError, Warning):
            return None
    out = []
    for j, cast in enumerate(casts):
        values = table[str(j)].copy() if cast in _DTYPES else table[str(j)].tolist()
        if len(values) != len(lines) or cast not in _DTYPES and "" in values:
            return None
        if cast is float and not np.isfinite(values).all():
            return None
        out.append((values if cast in _DTYPES else list(map(cast, values)), {}))
    return out


def _read_columns(path, required: Sequence[str], casts: Sequence) -> tuple:
    """The physical line of each data row, {row: (None, message)} of the rows left
    unread (a quoted field open at the end of the line, or any line csv refuses: its
    cells read as ""), then each required column as ``_typed_column`` returns it.

    A short row reads "" for the cells it lacks; a repeated column name, its last one.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            if not (first := handle.readline()):
                raise ParseError(f"{path}: empty file, header row required")
            try:
                header = next(csv.reader([first]))
            except csv.Error as exc:  # such as a name past csv's field size limit
                raise ParseError(f"{path}:1: {brief(str(exc))}") from None
            if missing := [c for c in required if c not in header]:
                raise ParseError(f"{path}: missing required column(s) {brief(repr(missing))}")
            picks = [max(i for i, name in enumerate(header) if name == c) for c in required]
            # An empty first block gives each column its type, even in a file without rows.
            blocks = [[_typed_column([], c, cast, 0) for c, cast in zip(required, casts)]]
            flags, unread, n = [b"\0\0"], {}, 0  # byte i: line i holds a data row; 0, 1 do not
            while block := list(islice(handle, _BLOCK_ROWS)):
                keep = bytes([text not in _BLANK for text in block])
                lines = list(compress(block, keep))
                flags.append(keep)
                typed = _PLAIN("".join(lines)) and _fast_columns(lines, picks, casts)
                if not typed:
                    rows = []
                    for row, text in enumerate(lines, n):
                        try:
                            cells = next(csv.reader([text.rstrip("\r\n") + "\n"]))
                        except csv.Error as exc:  # a field past csv's size limit; NUL on 3.10
                            cells, unread[row] = [], (None, brief(str(exc)))
                        else:
                            if cells[-1].endswith("\n"):  # only a quoted field keeps the newline
                                cells, unread[row] = [], (None, "quoted field open at end of line")
                        rows.append(cells)
                    typed = [_typed_column([row[i] if i < len(row) else "" for row in rows],
                                           column, cast, n)
                             for i, column, cast in zip(picks, required, casts)]
                blocks.append(typed)
                n += len(lines)
    except UnicodeDecodeError as exc:  # raised as the file is read, block by block
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                         f"({exc.reason})") from None
    return np.flatnonzero(np.frombuffer(b"".join(flags), bool)), unread, *(
        (np.concatenate(values) if isinstance(values[0], np.ndarray)
         else list(chain.from_iterable(values)), dict(ChainMap(*errors)))
        for values, errors in (zip(*column) for column in zip(*blocks)))


def _rejects(path, strict: bool, lines: np.ndarray, *errors: dict) -> tuple:
    """Each bad row's first error (checks in precedence order) as a RejectedRow naming
    its line, in line order, and the mask of the rows kept; strict raises the first."""
    first = ChainMap(*errors)  # a row's error from the first check that names it
    rejects = tuple(RejectedRow(int(lines[row]), *first[row]) for row in sorted(first))
    if strict and rejects:
        first_reject = rejects[0]
        column = "" if first_reject.column is None else f":{first_reject.column}"
        raise ParseError(f"{path}:{first_reject.line}{column}: {first_reject.message}")
    kept = np.ones(len(lines), dtype=bool)
    kept[list(first)] = False
    return rejects, kept


def _read_floats(path, columns: Sequence[str]) -> tuple:
    """The line of each data row, then the named columns as ``read_columns`` reads them."""
    lines, unread, *typed = _read_columns(path, columns, [float] * len(columns))
    _rejects(path, True, lines, unread, *(errors for _, errors in typed))
    return lines, *(values for values, _ in typed)


def read_columns(path, *columns: str) -> tuple[np.ndarray, ...]:
    """Finite float64 columns of a CSV, one array per named column, read in one pass.

    Strict: the first bad cell raises ParseError naming path:line:column.
    """
    return _read_floats(path, columns)[1:]


def read_gaps(path, *others: str) -> tuple[np.ndarray, ...]:
    """gap_m and the ``others`` as ``read_columns`` reads them; DomainError on a gap <= 0."""
    lines, gaps, *rest = _read_floats(path, ("gap_m", *others))
    if (bad := np.flatnonzero(gaps <= 0)).size:
        raise DomainError(f"{path}: {bad.size} gap(s) <= 0, the first on line {lines[bad[0]]}; "
                          "drop the rows tracks derive flags with overlap_flagged 1")
    return gaps, *rest


def load_vessel_meta(path, strict: bool = True) -> LoadResult:
    """Vessel metadata keyed by (run_id, fleet_position) via ``meta_map``.

    A row repeating the key of an earlier row is a duplicate even when that
    row is rejected for a later cell.
    """
    lines, unread, (run_ids, run_err), (pos, pos_err), (length, len_err), (offset, off_err), \
        (load, load_err) = _read_columns(path, META_COLUMNS, (str, int, float, float, str))
    rows = zip(run_ids, pos.tolist(), length.tolist(), offset.tolist(), load)
    seen, dup_err, items, domain_err = set(), {}, {}, {}
    for row, (run_id, p, *fields) in enumerate(rows):
        if row not in run_err and row not in pos_err:
            if (run_id, p) in seen:
                dup_err[row] = ("fleet_position", f"duplicate key {brief(repr((run_id, p)))}")
            seen.add((run_id, p))
        try:
            items[row] = (run_id, VesselMeta(p, *fields))
        except DomainError as exc:
            domain_err[row] = (None, str(exc))
    rejects, kept = _rejects(path, strict, lines, unread, run_err, pos_err, dup_err, len_err,
                             off_err, load_err, domain_err)
    return LoadResult(items=tuple(item for row, item in items.items() if kept[row]),
                      rejects=rejects)


def meta_map(result: LoadResult) -> dict[tuple[str, int], VesselMeta]:
    return {(run_id, meta.fleet_position): meta for run_id, meta in result.items}


def load_tracks(
    path,
    meta: dict[tuple[str, int], VesselMeta],
    strict: bool = True,
) -> tuple[list[FleetRun], LoadResult]:
    """Fleet runs assembled from a track file plus a vessel-meta map.

    Rows are grouped by one lexsort over (run, position, t), with no object
    per fix.  A row repeating the key of an earlier row is a duplicate even
    when that row has a bad coordinate.
    ``items`` holds the accepted rows' line numbers; each track keeps its own fix spacing.
    """
    # run_id cells are interned: a few names repeat on every row.
    lines, unread, (run_ids, run_err), (p, p_err), (t, t_err), (x, x_err), (y, y_err) = \
        _read_columns(path, TRACK_COLUMNS, (sys.intern, int, int, float, float))
    names = sorted(set(run_ids))  # str order, so runs come out sorted by run_id
    code = {name: i for i, name in enumerate(names)}
    run = np.array([code[r] for r in run_ids], dtype=np.int64)
    keyed = np.ones(len(run), dtype=bool)
    keyed[list({**run_err, **p_err, **t_err})] = False
    order = np.lexsort((t, p, run))  # stable: equal keys stay in line order
    order = order[keyed[order]]
    later, earlier = order[1:], order[:-1]
    dups = later[(run[later] == run[earlier]) & (p[later] == p[earlier]) & (t[later] == t[earlier])]
    dup_err = {r: ("t_seconds", f"duplicate key {brief(repr((run_ids[r], int(p[r]), int(t[r]))))}")
               for r in dups.tolist()}
    rejects, accepted = _rejects(path, strict, lines, unread, run_err, p_err, t_err, dup_err,
                                 x_err, y_err)
    order = order[accepted[order]]
    run, p, t, x, y = (column[order] for column in (run, p, t, x, y))
    first = np.ones(len(order), dtype=bool)  # rows that start a (run, position) track
    first[1:] = (run[1:] != run[:-1]) | (p[1:] != p[:-1])
    starts = np.flatnonzero(first).tolist()

    runs, tracks = [], []
    for a, b in zip(starts, starts[1:] + [len(order)]):
        key = (names[run[a]], int(p[a]))
        if key not in meta:
            raise ParseError(
                f"{path}: no vessel metadata for run {brief(repr(key[0]))} position {key[1]}")
        tracks.append(VesselTrack(meta=meta[key], t=t[a:b], x=x[a:b], y=y[a:b]))
        if b == len(order) or run[b] != run[a]:
            runs.append(FleetRun(run_id=key[0], tracks=tuple(tracks)))
            tracks = []
    return runs, LoadResult(items=lines[accepted], rejects=rejects)


def load_surveillance(path, strict: bool = True) -> LoadResult:
    lines, unread, (start, start_err), (way, way_err), (flow, flow_err), (speed, speed_err), \
        (loaded, loaded_err), (empty, empty_err) = _read_columns(
            path, SURVEILLANCE_COLUMNS, (str, str, float, float, int, int))
    not_iso = {}
    for row, text in enumerate(start):
        try:
            datetime.fromisoformat(text)
        except ValueError:
            not_iso[row] = ("interval_start", f"not ISO-8601: {brief(repr(text))}")
    unknown_way = {r: ("direction", f"must be one of {DIRECTIONS}, got {brief(repr(w))}")
                   for r, w in enumerate(way) if w not in DIRECTIONS}
    negative = {r: ("flow_vph", "flow must be >= 0") for r in np.flatnonzero(flow < 0).tolist()}
    still = {r: ("mean_speed_kmh", "speed must be positive when flow > 0")
             for r in np.flatnonzero((flow > 0) & (speed <= 0)).tolist()}
    rejects, kept = _rejects(path, strict, lines, unread, start_err, not_iso, way_err,
                             unknown_way, flow_err, speed_err, negative, still, loaded_err,
                             empty_err)
    rows = zip(start, way, flow.tolist(), speed.tolist(), loaded.tolist(), empty.tolist())
    return LoadResult(items=tuple(SurveillanceRow(*row) for row in compress(rows, kept)),
                      rejects=rejects)


def write_rows(handle, key: Sequence, *columns) -> int:
    """Write rows as csv.writer would, the ``key`` cells then one repr per column; the count."""
    head = io.StringIO()  # only the key can need quoting, so csv writes the row template
    csv.writer(head).writerow([str(x).replace("%", "%%") for x in key] + ["%r"] * len(columns))
    handle.write("".join(map(head.getvalue().__mod__, zip(*(c.tolist() for c in columns)))))
    return len(columns[0])


def emit_curve_samples(model: FdModel, k_range: tuple[float, float], step: float, path) -> int:
    """Write a k,v,q CSV over an inclusive density grid; returns the row count.

    The grid is lo + i*step up to hi plus 1e-12.  A grid that could exceed
    MAX_CURVE_ROWS rows, or on which v or q overflows, is refused before the
    file is opened.
    """
    lo, hi = k_range
    if not (math.isfinite(lo) and lo <= hi < math.inf and 0 < step < math.inf):
        raise DomainError(f"need finite lo <= hi and 0 < step < inf, got {k_range} and {step!r}")
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
        handle.write("k,v,q\r\n")
        return write_rows(handle, (), k, v, q)
