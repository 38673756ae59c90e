"""Row-at-a-time reference for the columnar loaders and the track derivation.

This is the implementation the columnar code replaced: a loop over the
file's physical lines, each parsed on its own and building one object per row
or fix, and speeds, gaps and flow samples joined through dicts keyed by
timestamp.  Tests compare the columnar path against it.  Two rules differ from
the code it was taken from: every row is one line, so a quoted field open at
the end of its line is a reject and blank lines count towards line numbers;
and a timestamp where a vessel stood still is left out of the flow samples
(its space-mean speed is undefined) instead of failing the run.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime

from fairway.errors import DomainError, MalformedTrackError, ParseError
from fairway.trajectory import FlowSample, VesselMeta

TRACK_COLUMNS = ("run_id", "fleet_position", "t_seconds", "x_m", "y_m")
META_COLUMNS = ("run_id", "fleet_position", "length_m", "locator_offset_m", "load_state")
SURVEILLANCE_COLUMNS = ("interval_start", "direction", "flow_vph", "mean_speed_kmh",
                        "loaded_count", "empty_count")
MS_TO_KMH = 3.6
M_PER_KM = 1000.0


def _cut(text):
    """Text as error messages echo it: cut to 77 characters and "..." past 80."""
    return text if len(text) <= 80 else text[:77] + "..."


def _echo(raw):
    """A cell as error messages quote it: its repr, cut as ``_cut`` cuts it."""
    return _cut(repr(raw))


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
        raise _RowError(lineno, column, f"cannot parse {_echo(raw)}") from None
    if cast is float and not math.isfinite(value):
        raise _RowError(lineno, column, f"not a finite number: {_echo(raw)}")
    if cast is int and not -2 ** 63 <= value < 2 ** 63:
        raise _RowError(lineno, column, f"outside the 64-bit integer range: {_echo(raw)}")
    return value


def _ends_in_open_quote(text) -> bool:
    """Whether the line ends inside a quoted field, by csv's rules: a field starting
    with '"' is quoted, '""' inside it is one quote and a lone '"' closes it;
    anywhere else a '"' is a literal."""
    state = "start"
    for c in text.rstrip("\r\n"):
        if state == "quoted":
            state = "closing" if c == '"' else "quoted"
        elif state == "closing" and c == '"':
            state = "quoted"
        elif c == ",":
            state = "start"
        else:
            state = "quoted" if state == "start" and c == '"' else "plain"
    return state == "quoted"


def _parse_rows(path, required, row_fn, strict):
    """Items and rejects as (line, column, message), one physical line at a time.

    Blank lines are skipped but counted; a line ending inside a quoted field is rejected.
    """
    items, rejects = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise ParseError(f"{path}: empty file, header row required")
        try:
            header = next(csv.reader([first]))
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {_cut(str(exc))}") from None
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(f"{path}: missing required column(s) {_echo(missing)}")
        for lineno, text in enumerate(handle, start=2):
            if text in ("\n", "\r\n", "\r"):
                continue
            try:
                try:
                    cells = next(csv.reader([text]))
                except csv.Error as exc:  # such as a field past csv's size limit
                    raise _RowError(lineno, None, _cut(str(exc))) from None
                if _ends_in_open_quote(text):
                    raise _RowError(lineno, None, "quoted field open at end of line")
                items.append(row_fn(dict(zip(header, cells)), lineno))
            except _RowError as exc:
                if strict:
                    column = "" if exc.column is None else f":{exc.column}"
                    raise ParseError(f"{path}:{exc.line}{column}: {exc.message}") from None
                rejects.append((exc.line, exc.column, exc.message))
    return items, rejects


def reference_load_vessel_meta(path, strict=True):
    seen = set()

    def parse(row, lineno):
        run_id = _field(row, lineno, "run_id", str)
        pos = _field(row, lineno, "fleet_position", int)
        if (run_id, pos) in seen:
            raise _RowError(lineno, "fleet_position", f"duplicate key {_echo((run_id, pos))}")
        seen.add((run_id, pos))
        try:
            return run_id, VesselMeta(pos, _field(row, lineno, "length_m", float),
                                      _field(row, lineno, "locator_offset_m", float),
                                      _field(row, lineno, "load_state", str))
        except DomainError as exc:
            raise _RowError(lineno, None, str(exc)) from None

    return _parse_rows(path, META_COLUMNS, parse, strict)


def reference_load_surveillance(path, strict=True):
    def parse(row, lineno):
        start = _field(row, lineno, "interval_start", str)
        try:
            datetime.fromisoformat(start)
        except ValueError:
            raise _RowError(lineno, "interval_start", f"not ISO-8601: {_echo(start)}") from None
        direction = _field(row, lineno, "direction", str)
        if direction not in ("upstream", "downstream"):
            raise _RowError(lineno, "direction",
                            f"must be one of ('upstream', 'downstream'), got {_echo(direction)}")
        flow = _field(row, lineno, "flow_vph", float)
        speed = _field(row, lineno, "mean_speed_kmh", float)
        if flow < 0:
            raise _RowError(lineno, "flow_vph", "flow must be >= 0")
        if flow > 0 and speed <= 0:
            raise _RowError(lineno, "mean_speed_kmh", "speed must be positive when flow > 0")
        return (start, direction, flow, speed, _field(row, lineno, "loaded_count", int),
                _field(row, lineno, "empty_count", int))

    return _parse_rows(path, SURVEILLANCE_COLUMNS, parse, strict)


def reference_load_tracks(path, meta, strict=True):
    """Returns (runs, accepted row count, rejects as (line, column, message)).

    A run is (run_id, [(meta, [(t, x, y), ...]), ...]) per vessel.
    """
    seen = set()

    def parse(row, lineno):
        run_id = _field(row, lineno, "run_id", str)
        pos = _field(row, lineno, "fleet_position", int)
        t = _field(row, lineno, "t_seconds", int)
        if (run_id, pos, t) in seen:
            raise _RowError(lineno, "t_seconds", f"duplicate key {_echo((run_id, pos, t))}")
        seen.add((run_id, pos, t))
        return run_id, pos, (t, _field(row, lineno, "x_m", float), _field(row, lineno, "y_m", float))

    items, rejects = _parse_rows(path, TRACK_COLUMNS, parse, strict)
    grouped: dict = {}
    for run_id, pos, fix in items:
        grouped.setdefault(run_id, {}).setdefault(pos, []).append(fix)
    runs = []
    for run_id in sorted(grouped):
        tracks = []
        for pos in sorted(grouped[run_id]):
            if (run_id, pos) not in meta:
                raise ParseError(
                    f"{path}: no vessel metadata for run {_echo(run_id)} position {pos}")
            fixes = sorted(grouped[run_id][pos])
            if len(fixes) < 2:
                raise MalformedTrackError("a track needs at least 2 fixes")
            tracks.append((meta[(run_id, pos)], fixes))
        positions = [m.fleet_position for m, _ in tracks]
        if positions != list(range(1, len(positions) + 1)):
            raise MalformedTrackError(f"fleet positions must be consecutive 1..n, got {positions}")
        runs.append((run_id, tracks))
    return runs, len(items), rejects


def reference_speed_series(fixes) -> dict:
    """Speeds over the track's spacing: its smallest fix interval, which every one must equal."""
    step = min(b[0] - a[0] for a, b in zip(fixes, fixes[1:]))
    bad = [(a[0], b[0]) for a, b in zip(fixes, fixes[1:]) if b[0] - a[0] != step]
    if bad:
        raise MalformedTrackError(f"non-uniform time spacing at fix pairs: {bad}")
    return {a[0]: math.hypot(b[1] - a[1], b[2] - a[2]) / step * MS_TO_KMH
            for a, b in zip(fixes, fixes[1:])}


def reference_derive_gap(leader, follower) -> list:
    """[(t, gap_m, overlap_flagged)] on the shared timestamps."""
    (lead_meta, lead_fixes), (foll_meta, foll_fixes) = leader, follower
    lead = {f[0]: f for f in lead_fixes}
    foll = {f[0]: f for f in foll_fixes}
    common = sorted(lead.keys() & foll.keys())
    if not common:
        raise DomainError("tracks share no common timestamp")
    offset = lead_meta.locator_offset - foll_meta.locator_offset - lead_meta.length
    out = []
    for t in common:
        a, b = lead[t], foll[t]
        gap = math.hypot(a[1] - b[1], a[2] - b[2]) + offset
        out.append((t, gap, gap <= 0))
    return out


def reference_flow_samples(run) -> tuple[list, int]:
    """([(t, density, mean_speed, flow)], timestamps skipped for a stationary vessel)."""
    _, tracks = run
    speeds = [reference_speed_series(fixes) for _, fixes in tracks]
    gaps = [{t: g for t, g, _ in reference_derive_gap(a, b)} for a, b in zip(tracks, tracks[1:])]
    lengths = [m.length for m, _ in tracks[1:]]
    common = set(speeds[0])
    for series in speeds[1:] + gaps:
        common &= set(series)
    out, stationary = [], 0
    for t in sorted(common):
        if not gaps:
            raise DomainError("gaps and follower_lengths must be equal-length and non-empty")
        v = [series[t] for series in speeds]
        if min(v) <= 0:
            stationary += 1
            continue
        v_bar = len(v) / sum(1.0 / s for s in v)
        k = len(gaps) / (sum(series[t] + L for series, L in zip(gaps, lengths)) / M_PER_KM)
        s = FlowSample.from_density_speed(k, v_bar, t=t)
        out.append((t, s.density, s.mean_speed, s.flow))
    return out, stationary


def reference_tracks_derive(tracks_path, meta, out_dir) -> None:
    """The three `tracks derive` CSVs, written row by row with csv.writer."""
    runs, _, _ = reference_load_tracks(tracks_path, meta)
    with open(out_dir / "speeds.csv", "w", newline="", encoding="utf-8") as sh, \
         open(out_dir / "gaps.csv", "w", newline="", encoding="utf-8") as gh, \
         open(out_dir / "flow_samples.csv", "w", newline="", encoding="utf-8") as fh:
        sw, gw, fw = csv.writer(sh), csv.writer(gh), csv.writer(fh)
        sw.writerow(["run_id", "fleet_position", "t_seconds", "speed_kmh"])
        gw.writerow(["run_id", "follower_position", "t_seconds", "gap_m", "overlap_flagged"])
        fw.writerow(["run_id", "t_seconds", "density_vpkm", "speed_kmh", "flow_vph"])
        for run in runs:
            run_id, tracks = run
            for m, fixes in tracks:
                for t, v in sorted(reference_speed_series(fixes).items()):
                    sw.writerow([run_id, m.fleet_position, t, repr(v)])
            for leader, follower in zip(tracks, tracks[1:]):
                for t, gap, flagged in reference_derive_gap(leader, follower):
                    gw.writerow([run_id, follower[0].fleet_position, t, repr(gap), int(flagged)])
            for t, k, v, q in reference_flow_samples(run)[0]:
                fw.writerow([run_id, t, repr(k), repr(v), repr(q)])


def reference_meta(rows) -> dict:
    """{(run_id, position): VesselMeta} from (run_id, position, length, offset, load)."""
    return {(r, p): VesselMeta(p, length, offset, load) for r, p, length, offset, load in rows}
