"""Command-line driver for the waterway traffic-flow toolkit.

Subcommands cover the full pipeline: track-derived microscopic series,
speed-gap curve ranking, fundamental-diagram fitting with characteristic
parameters, distribution summaries, economic speed, minimum
recommendations, state-band training/classification, curve export, and
the classification HTTP service.

Exit codes: 0 success, 1 usage error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import fundamental_diagram as fd
from . import io_store, regression, trajectory, traffic_state
from .config import Config, load_config
from .errors import FairwayError, InsufficientDataError

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.3f}"


def build_parser() -> _Parser:
    parser = _Parser(prog="fairway", description=__doc__)
    parser.add_argument("--config", help="JSON config file (else FAIRWAY_CONFIG, else defaults)")
    sub = parser.add_subparsers(dest="command")

    tracks = sub.add_parser("tracks", help="trajectory-derived series").add_subparsers(dest="sub")
    p = tracks.add_parser("derive", help="tracks -> speed/gap/flow-sample CSVs")
    p.add_argument("--tracks", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delta-t", type=float, default=1.0)

    fit = sub.add_parser("fit", help="curve and diagram fitting").add_subparsers(dest="sub")
    p = fit.add_parser("speed-gap", help="rank the four speed-gap curve families")
    p.add_argument("--input", required=True, help="CSV with gap_m,speed_kmh")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--raw", action="store_true", help="fit raw points, skip binning")
    p.add_argument("--out")
    p = fit.add_parser("fd", help="fit a fundamental-diagram form")
    p.add_argument("--form", required=True, choices=fd.ALL_FORMS)
    p.add_argument("--input", required=True, help="CSV with density_vpkm,speed_kmh")
    p.add_argument("--v-f", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--v-min", type=float)
    p.add_argument("--raw", action="store_true", help="fit raw points, skip binning")
    p.add_argument("--out", help="write a model document JSON")

    stats = sub.add_parser("stats", help="distribution summaries").add_subparsers(dest="sub")
    p = stats.add_parser("summary", help="p15/median/p85/mean of one column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--out")

    p = sub.add_parser("economic-speed", help="median speed per load class")
    p.add_argument("--loaded", required=True, help="CSV with speed_kmh")
    p.add_argument("--empty", required=True, help="CSV with speed_kmh")
    p.add_argument("--out")

    p = sub.add_parser("minimums", help="tail-quantile minimum speed and gap")
    p.add_argument("--speeds", required=True, help="CSV with speed_kmh")
    p.add_argument("--gaps", required=True, help="CSV with gap_m")
    p.add_argument("--tail", type=float)
    p.add_argument("--out")

    states = sub.add_parser("states", help="traffic-state training/classification").add_subparsers(dest="sub")
    p = states.add_parser("train", help="select K by silhouette and build bands")
    p.add_argument("--speeds", required=True, help="CSV with speed_kmh")
    p.add_argument("--out", help="write a model document with state bands")
    p = states.add_parser("classify", help="classify one (flow, density) observation")
    p.add_argument("--flow", type=float, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    emit = sub.add_parser("emit", help="plot-ready exports").add_subparsers(dest="sub")
    p = emit.add_parser("curve", help="sample k,v,q over a density grid")
    p.add_argument("--model", required=True)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True, dest="csv_out", help="k,v,q CSV to write")

    p = sub.add_parser("serve", help="run the classification HTTP service")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="0.0.0.0")

    return parser


def _write_rows(handle, key: list, *columns) -> int:
    """Rows of ``key`` and one value per column, as csv.writer writes them; returns the count.

    Only the key can need quoting, so it alone goes through csv.
    """
    head = io.StringIO()
    csv.writer(head).writerow(key)
    row = head.getvalue()[:-2].replace("%", "%%") + ",%r" * len(columns) + "\r\n"
    handle.write("".join(map(row.__mod__, zip(*(c.tolist() for c in columns)))))
    return len(columns[0])


def _cmd_tracks_derive(args, cfg: Config) -> dict:
    meta = io_store.meta_map(io_store.load_vessel_meta(args.meta))
    runs, _ = io_store.load_tracks(args.tracks, meta, delta_t=args.delta_t)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    counts = {"runs": len(runs), "speeds": 0, "gaps": 0, "flow_samples": 0, "stationary": 0}
    with open(out_dir / "speeds.csv", "w", newline="", encoding="utf-8") as sh, \
         open(out_dir / "gaps.csv", "w", newline="", encoding="utf-8") as gh, \
         open(out_dir / "flow_samples.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(sh).writerow(["run_id", "fleet_position", "t_seconds", "speed_kmh"])
        csv.writer(gh).writerow(
            ["run_id", "follower_position", "t_seconds", "gap_m", "overlap_flagged"])
        csv.writer(fh).writerow(["run_id", "t_seconds", "density_vpkm", "speed_kmh", "flow_vph"])
        for run in runs:
            # Each series is derived once, written, and reused for the flow samples.
            speeds = [trajectory.speed_series(track, run.delta_t) for track in run.tracks]
            for track, (t, v) in zip(run.tracks, speeds):
                counts["speeds"] += _write_rows(sh, [run.run_id, track.meta.fleet_position], t, v)
            gaps = [trajectory.derive_gap(leader, follower)
                    for leader, follower in zip(run.tracks, run.tracks[1:])]
            for follower, g in zip(run.tracks[1:], gaps):
                counts["gaps"] += _write_rows(gh, [run.run_id, follower.meta.fleet_position],
                                              g.t, g.gap_m, g.overlap_flagged.astype(int))
            s = trajectory.fleet_flow_samples(run, speeds, gaps)
            counts["flow_samples"] += _write_rows(fh, [run.run_id], s.t, s.density,
                                                  s.mean_speed, s.flow)
            counts["stationary"] += s.stationary

    print(f"runs {counts['runs']}  speeds {counts['speeds']}  "
          f"gaps {counts['gaps']}  flow samples {counts['flow_samples']}  "
          f"stationary timestamps skipped {counts['stationary']}")
    return counts


def _cmd_fit_speed_gap(args, cfg: Config) -> dict:
    points = np.column_stack(io_store.read_columns(args.input, "gap_m", "speed_kmh"))
    if not args.raw:
        binned = regression.bin_points(points, cfg.gap_bin_width, min_count=args.min_count)
        points = [(b.bin_center, b.mean_y) for b in binned]
    reports = regression.rank_families(points)
    if not reports:
        raise InsufficientDataError("every curve family was excluded from ranking")
    print(f"{'family':<12} {'a':>10} {'b':>10} {'R^2':>8} {'n':>5}  space")
    for r in reports:
        print(f"{r.family:<12} {_fmt(r.a):>10} {_fmt(r.b):>10} "
              f"{_fmt(r.r_squared):>8} {r.n_points:>5}  {r.fit_space}")
    return {"families": [asdict(r) for r in reports]}


def _cmd_fit_fd(args, cfg: Config) -> dict:
    points = np.column_stack(io_store.read_columns(args.input, "density_vpkm", "speed_kmh"))
    if not args.raw:
        binned = regression.bin_points(points, cfg.density_bin_width)
        points = np.array([(b.bin_center, b.mean_y) for b in binned]).reshape(-1, 2)
    k, v = points.T
    with np.errstate(over="ignore"):  # the batch rejects a flow that overflows
        samples = trajectory.FlowSamples(density=k, mean_speed=v, flow=k * v)
    v_f = args.v_f if args.v_f is not None else cfg.v_f
    k1 = args.k1 if args.k1 is not None else (cfg.k1 if args.form in fd.PIECEWISE_FORMS else None)
    v_min = args.v_min if args.v_min is not None else cfg.v_min
    model, report = fd.fit_fd(args.form, samples, v_f=v_f, k1=k1)
    chars = fd.derive_characteristics(model, v_min)

    print(f"form {model.form}  c1 {_fmt(model.c1)}  c2 {_fmt(model.c2)}"
          + (f"  v_f {_fmt(model.v_f)}  k1 {_fmt(model.k1)}" if model.is_piecewise else ""))
    print(f"R^2 {_fmt(report.r_squared)} ({report.fit_space} space, n={report.n_points})")
    print(f"v_f {_fmt(chars.v_f)}  v_m {_fmt(chars.v_m)}  k_m {_fmt(chars.k_m)}  "
          f"q_m {_fmt(chars.q_m)}  k_max {_fmt(chars.k_max)}  v_min {_fmt(chars.v_min)}")

    doc = io_store.ModelDocument(
        fd=model, v_min=v_min, characteristics=chars, fit=report,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    return io_store.document_to_dict(doc)


def _cmd_stats_summary(args, cfg: Config) -> dict:
    (values,) = io_store.read_columns(args.input, args.column)
    stats = trajectory.summary_stats(values)
    print(f"{'p15':>8} {'median':>8} {'p85':>8} {'mean':>8}")
    print(f"{_fmt(stats.p15):>8} {_fmt(stats.median):>8} {_fmt(stats.p85):>8} {_fmt(stats.mean):>8}")
    return asdict(stats)


def _cmd_economic_speed(args, cfg: Config) -> dict:
    result = fd.economic_speed({
        "loaded": io_store.read_columns(args.loaded, "speed_kmh")[0],
        "empty": io_store.read_columns(args.empty, "speed_kmh")[0],
    })
    print(f"loaded median {_fmt(result.loaded_median)} km/h  "
          f"empty median {_fmt(result.empty_median)} km/h  "
          f"combined v_f {_fmt(result.combined_v_f)} km/h")
    return asdict(result)


def _cmd_minimums(args, cfg: Config) -> dict:
    tail = args.tail if args.tail is not None else cfg.tail_fraction
    result = fd.recommend_minimums(
        io_store.read_columns(args.speeds, "speed_kmh")[0],
        io_store.read_columns(args.gaps, "gap_m")[0],
        tail_fraction=tail,
    )
    print(f"v_min {_fmt(result.v_min)} km/h  g_min {_fmt(result.g_min)} m  (tail {tail})")
    return {**asdict(result), "tail_fraction": tail}


def _cmd_states_train(args, cfg: Config) -> dict:
    (speeds,) = io_store.read_columns(args.speeds, "speed_kmh")
    selection = traffic_state.select_k(speeds, cfg.k_range)
    print("K  silhouette")
    for k in sorted(selection.silhouette_by_k):
        marker = " *" if k == selection.best_k else ""
        print(f"{k}  {_fmt(selection.silhouette_by_k[k])}{marker}")
    if selection.best_k != 4:
        raise FairwayError(
            f"silhouette selected K={selection.best_k}; state bands need K=4 "
            "(four-level classification)"
        )
    model = traffic_state.kmeans(speeds, 4)
    bands = traffic_state.bands_from_clusters(model)
    print("boundaries " + "  ".join(_fmt(b) for b in bands.boundaries))
    doc = io_store.ModelDocument(
        bands=bands, created_utc=datetime.now(timezone.utc).isoformat(),
    )
    return io_store.document_to_dict(doc)


def _cmd_states_classify(args, cfg: Config) -> dict:
    doc = io_store.load_model(args.model)
    if doc.bands is None:
        raise FairwayError(f"{args.model}: document carries no state bands")
    speed, state = traffic_state.classify_flow_density(doc.bands, args.flow, args.density)
    print(f"{state.value} / {state.color}  (speed {_fmt(speed)} km/h)")
    return {"speed_kmh": speed, "state": state.value, "color": state.color}


def _cmd_emit_curve(args, cfg: Config) -> dict:
    doc = io_store.load_model(args.model)
    if doc.fd is None:
        raise FairwayError(f"{args.model}: document carries no diagram model")
    rows = io_store.emit_curve_samples(doc.fd, (args.k_min, args.k_max), args.step, args.csv_out)
    print(f"wrote {rows} rows to {args.csv_out}")
    return {"rows": rows, "path": args.csv_out}


def _cmd_serve(args, cfg: Config) -> dict:
    from . import service  # http.server is imported only by the command that serves

    doc = io_store.load_model(args.model)
    print(f"serving on {args.host}:{args.port}")
    service.serve(doc, args.port, host=args.host)
    return {}


_DISPATCH = {
    ("tracks", "derive"): _cmd_tracks_derive,
    ("fit", "speed-gap"): _cmd_fit_speed_gap,
    ("fit", "fd"): _cmd_fit_fd,
    ("stats", "summary"): _cmd_stats_summary,
    ("economic-speed", None): _cmd_economic_speed,
    ("minimums", None): _cmd_minimums,
    ("states", "train"): _cmd_states_train,
    ("states", "classify"): _cmd_states_classify,
    ("emit", "curve"): _cmd_emit_curve,
    ("serve", None): _cmd_serve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_USAGE
    handler = _DISPATCH.get((args.command, getattr(args, "sub", None)))
    if handler is None:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
        payload = handler(args, cfg)
        out = getattr(args, "out", None)
        if out:
            Path(out).write_text(io_store.json_text(payload, indent=2) + "\n", encoding="utf-8")
    except FairwayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
