"""Command-line driver for the waterway traffic-flow toolkit.

Subcommands cover the full pipeline: track-derived microscopic series,
speed-gap curve ranking, fundamental-diagram fitting with characteristic
parameters, distribution summaries, economic speed, minimum
recommendations, state-band training/classification, curve export, and
the classification HTTP service.

Analysis parameters come from the flags ``--v-f``, ``--k1``, ``--v-min`` and
``--tail`` (published defaults) and from the bin widths and K range below.

Only the batch commands load numpy, each importing its compute modules in its own
body: ``serve``, ``states classify``, ``--help`` and usage errors start without it.

Exit codes: 0 success, 1 usage error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path

from .document import (ALL_FORMS, ModelDocument, classify_flow_density, document_to_dict,
                       json_text, load_model)
from .errors import FairwayError, InsufficientDataError

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2
GAP_BIN_M = 5.0  # speed-gap bin width
DENSITY_BIN_VPKM = 0.2  # speed-density bin width
K_RANGE = range(2, 10)  # cluster counts the silhouette sweep tries


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.3f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairway", description=__doc__)
    command = {"dest": "command", "required": True}  # a bare command or group is a usage error
    sub = parser.add_subparsers(**command)

    tracks = sub.add_parser("tracks", help="trajectory-derived series").add_subparsers(**command)
    p = tracks.add_parser("derive", help="tracks -> speed/gap/flow-sample CSVs")
    p.add_argument("--tracks", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=_cmd_tracks_derive)

    fit = sub.add_parser("fit", help="curve and diagram fitting").add_subparsers(**command)
    p = fit.add_parser("speed-gap", help="rank the four speed-gap curve families")
    p.add_argument("--input", required=True, help="CSV with gap_m,speed_kmh")
    p.add_argument("--raw", action="store_true", help="fit raw points, skip binning")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_fit_speed_gap)
    p = fit.add_parser("fd", help="fit a fundamental-diagram form")
    p.add_argument("--form", required=True, choices=ALL_FORMS)
    p.add_argument("--input", required=True, help="CSV with density_vpkm,speed_kmh")
    p.add_argument("--v-f", type=float, help="free-flow speed, km/h (default: %(default)s)")
    p.add_argument("--k1", type=float, default=4.0, help="breakpoint, vessels/km (default: %(default)s)")
    p.add_argument("--v-min", type=float, default=2.65, help="minimum speed, km/h (default: %(default)s)")
    p.add_argument("--raw", action="store_true", help="fit raw points, skip binning")
    p.add_argument("--out", help="write a model document JSON")
    p.set_defaults(run=_cmd_fit_fd)

    stats = sub.add_parser("stats", help="distribution summaries").add_subparsers(**command)
    p = stats.add_parser("summary", help="p15/median/p85/mean of one column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_stats_summary)

    p = sub.add_parser("economic-speed", help="median speed per load class")
    p.add_argument("--loaded", required=True, help="CSV with speed_kmh")
    p.add_argument("--empty", required=True, help="CSV with speed_kmh")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_economic_speed)

    p = sub.add_parser("minimums", help="tail-quantile minimum speed and gap")
    p.add_argument("--speeds", required=True, help="CSV with speed_kmh")
    p.add_argument("--gaps", required=True, help="CSV with gap_m")
    p.add_argument("--tail", type=float, default=0.001, help="tail quantile (default: %(default)s)")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_minimums)

    states = sub.add_parser("states", help="traffic-state training/classification")
    states = states.add_subparsers(**command)
    p = states.add_parser("train", help="select K by silhouette and build bands")
    p.add_argument("--speeds", required=True, help="CSV with speed_kmh")
    p.add_argument("--out", help="write a model document with state bands")
    p.set_defaults(run=_cmd_states_train)
    p = states.add_parser("classify", help="classify one (flow, density) observation")
    p.add_argument("--flow", type=float, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_states_classify)

    emit = sub.add_parser("emit", help="plot-ready exports").add_subparsers(**command)
    p = emit.add_parser("curve", help="sample k,v,q over a density grid")
    p.add_argument("--model", required=True)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True, dest="csv_out", help="k,v,q CSV to write")
    p.set_defaults(run=_cmd_emit_curve)

    p = sub.add_parser("serve", help="run the classification HTTP service")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="0.0.0.0")
    p.set_defaults(run=_cmd_serve)

    return parser


def _derive_runs(runs, sh, gh, fh) -> dict:
    """Derive each run's speeds, gaps and flow samples, write them, and count them."""
    from . import io_store, trajectory
    counts = dict.fromkeys(("speeds", "gaps", "flow_samples", "stationary"), 0)
    for run in runs:
        # Each series is derived once, written, and reused for the flow samples.
        speeds = [trajectory.speed_series(track) for track in run.tracks]
        for track, (t, v) in zip(run.tracks, speeds):
            counts["speeds"] += io_store.write_rows(
                sh, [run.run_id, track.meta.fleet_position], t, v)
        gaps = [trajectory.derive_gap(leader, follower)
                for leader, follower in zip(run.tracks, run.tracks[1:])]
        for follower, g in zip(run.tracks[1:], gaps):
            counts["gaps"] += io_store.write_rows(
                gh, [run.run_id, follower.meta.fleet_position],
                g.t, g.gap_m, g.overlap_flagged.astype(int))
        s = trajectory.fleet_flow_samples(run, speeds, gaps)
        counts["flow_samples"] += io_store.write_rows(
            fh, [run.run_id], s.t, s.density, s.mean_speed, s.flow)
        counts["stationary"] += s.stationary
    return counts


def _chunks(runs) -> list:
    """Contiguous chunks of runs, at most one per usable CPU, split at middle fixes."""
    n = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(runs))
    fixes = [sum(len(track.t) for track in run.tracks) for run in runs]
    total = 2 * sum(fixes)  # in half fixes, so that a run's middle is a whole number
    share = [(2 * end - f) * n // total for end, f in zip(accumulate(fixes), fixes)]
    return [[run for i, run in zip(share, runs) if i == c] for c in sorted(set(share))] or [runs]


def _derive_child(runs, parts, pipe: int):
    """A forked child: derive into ``parts``, pickle the counts or error into ``pipe``, exit."""
    import pickle
    try:
        try:
            result = _derive_runs(runs, *parts)
        except BaseException as exc:  # the parent raises it after this chunk's rows so far
            result = exc
        for part in parts:
            part.flush()
        os.write(pipe, pickle.dumps(result))
    finally:
        os._exit(0)


def _cmd_tracks_derive(args) -> dict:
    import pickle
    import shutil
    import signal
    import tempfile
    from . import io_store
    meta = io_store.meta_map(io_store.load_vessel_meta(args.meta))
    runs, _ = io_store.load_tracks(args.tracks, meta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Chunk 0 is written here, into the final files; each other chunk by a forked child
    # into unnamed parts, appended in chunk order: one process's bytes, also on an error.
    chunks, children = _chunks(runs), []  # (pid, pipe, parts) per forked chunk
    with open(out_dir / "speeds.csv", "w", newline="", encoding="utf-8") as sh, \
         open(out_dir / "gaps.csv", "w", newline="", encoding="utf-8") as gh, \
         open(out_dir / "flow_samples.csv", "w", newline="", encoding="utf-8") as fh, \
         ExitStack() as stack:
        sh.write("run_id,fleet_position,t_seconds,speed_kmh\r\n")
        gh.write("run_id,follower_position,t_seconds,gap_m,overlap_flagged\r\n")
        fh.write("run_id,t_seconds,density_vpkm,speed_kmh,flow_vph\r\n")
        try:
            for chunk in chunks[1:]:
                parts = [stack.enter_context(tempfile.TemporaryFile(
                    "w+", newline="", encoding="utf-8", dir=out_dir)) for _ in range(3)]
                read, write = os.pipe()
                if not (pid := os.fork()):
                    _derive_child(chunk, parts, write)
                os.close(write)
                children.append((pid, stack.enter_context(open(read, "rb")), parts))
            counts = _derive_runs(chunks[0], sh, gh, fh)
            for _, pipe, parts in children:
                report = pipe.read()
                result = pickle.loads(report) if report else ChildProcessError(
                    "a worker ended unreported")
                for final, part in zip((sh, gh, fh), parts):
                    final.flush()
                    part.seek(0)
                    shutil.copyfileobj(part.buffer, final.buffer)
                if isinstance(result, BaseException):
                    raise result
                counts = {key: n + result[key] for key, n in counts.items()}
        finally:  # a child that has reported is past its last write; the kill ends any other
            for pid, *_ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    print(f"runs {len(runs)}  speeds {counts['speeds']}  "
          f"gaps {counts['gaps']}  flow samples {counts['flow_samples']}  "
          f"stationary timestamps skipped {counts['stationary']}")
    return {"runs": len(runs), **counts}


def _document(**sections) -> dict:
    """A model document of these sections, stamped with the UTC time now, as JSON values."""
    return document_to_dict(ModelDocument(
        **sections, created_utc=datetime.now(timezone.utc).isoformat()))


def _points(args, x, y, width: float):
    """Arrays x and y as (n, 2) points, binned at ``width`` unless --raw."""
    import numpy as np
    from . import regression
    points = np.column_stack((x, y))
    return points if args.raw else np.array(regression.bin_points(points, width)).reshape(-1, 2)


def _cmd_fit_speed_gap(args) -> dict:
    from . import io_store, regression
    gaps, speeds = io_store.read_gaps(args.input, "speed_kmh")
    reports = regression.rank_families(_points(args, gaps, speeds, GAP_BIN_M))
    if not reports:
        raise InsufficientDataError("every curve family was excluded from ranking")
    print(f"{'family':<12} {'a':>10} {'b':>10} {'R^2':>8} {'n':>5}")
    for r in reports:
        print(f"{r.family:<12} {_fmt(r.a):>10} {_fmt(r.b):>10} "
              f"{_fmt(r.r_squared):>8} {r.n_points:>5}")
    return {"families": [asdict(r) for r in reports]}


def _cmd_fit_fd(args) -> dict:
    import numpy as np
    from . import fundamental_diagram as fd, io_store, trajectory
    columns = io_store.read_columns(args.input, "density_vpkm", "speed_kmh")
    k, v = _points(args, *columns, DENSITY_BIN_VPKM).T
    with np.errstate(over="ignore"):  # the batch rejects a flow that overflows
        samples = trajectory.FlowSamples(density=k, mean_speed=v, flow=k * v)
    model, report = fd.fit_fd(args.form, samples, v_f=args.v_f, k1=args.k1)
    chars = fd.derive_characteristics(model, args.v_min)

    print(f"form {model.form}  c1 {_fmt(model.c1)}  c2 {_fmt(model.c2)}"
          + (f"  v_f {_fmt(model.v_f)}  k1 {_fmt(model.k1)}" if model.is_piecewise else ""))
    print(f"R^2 {_fmt(report.r_squared)} (n={report.n_points})")
    print(f"v_f {_fmt(chars.v_f)}  v_m {_fmt(chars.v_m)}  k_m {_fmt(chars.k_m)}  "
          f"q_m {_fmt(chars.q_m)}  k_max {_fmt(chars.k_max)}  v_min {_fmt(chars.v_min)}")

    return _document(fd=model, v_min=args.v_min, characteristics=chars, fit=report)


def _cmd_stats_summary(args) -> dict:
    from . import io_store, trajectory
    (values,) = io_store.read_columns(args.input, args.column)
    stats = trajectory.summary_stats(values)
    print(f"{'p15':>8} {'median':>8} {'p85':>8} {'mean':>8}")
    print(f"{_fmt(stats.p15):>8} {_fmt(stats.median):>8} {_fmt(stats.p85):>8} {_fmt(stats.mean):>8}")
    return asdict(stats)


def _cmd_economic_speed(args) -> dict:
    from . import fundamental_diagram as fd, io_store
    (loaded,), (empty,) = (io_store.read_columns(path, "speed_kmh")
                           for path in (args.loaded, args.empty))
    result = fd.economic_speed(loaded, empty)
    print(f"loaded median {_fmt(result.loaded_median)} km/h  "
          f"empty median {_fmt(result.empty_median)} km/h  "
          f"combined v_f {_fmt(result.combined_v_f)} km/h")
    return asdict(result)


def _cmd_minimums(args) -> dict:
    from . import fundamental_diagram as fd, io_store
    (speeds,) = io_store.read_columns(args.speeds, "speed_kmh")
    (gaps,) = io_store.read_gaps(args.gaps)
    result = fd.recommend_minimums(speeds, gaps, tail_fraction=args.tail)
    print(f"v_min {_fmt(result.v_min)} km/h  g_min {_fmt(result.g_min)} m  (tail {args.tail})")
    return {**asdict(result), "tail_fraction": args.tail}


def _cmd_states_train(args) -> dict:
    from . import io_store, traffic_state
    (speeds,) = io_store.read_columns(args.speeds, "speed_kmh")
    selection = traffic_state.select_k(speeds, K_RANGE)
    print("K  silhouette")
    for k in sorted(selection.silhouette_by_k):
        marker = " *" if k == selection.best_k else ""
        print(f"{k}  {_fmt(selection.silhouette_by_k[k])}{marker}")
    bands = traffic_state.bands_from_clusters(selection.model)
    print("boundaries " + "  ".join(_fmt(b) for b in bands.boundaries))
    return _document(bands=bands)


def _cmd_states_classify(args) -> dict:
    doc = load_model(args.model)
    if doc.bands is None:
        raise FairwayError(f"{args.model}: document carries no state bands")
    speed, state = classify_flow_density(doc.bands, args.flow, args.density)
    print(f"{state.value} / {state.color}  (speed {_fmt(speed)} km/h)")
    return {"speed_kmh": speed, "state": state.value, "color": state.color}


def _cmd_emit_curve(args) -> dict:
    from . import io_store
    doc = load_model(args.model)
    if doc.fd is None:
        raise FairwayError(f"{args.model}: document carries no diagram model")
    rows = io_store.emit_curve_samples(doc.fd, (args.k_min, args.k_max), args.step, args.csv_out)
    print(f"wrote {rows} rows to {args.csv_out}")
    return {"rows": rows, "path": args.csv_out}


def _cmd_serve(args) -> dict:
    from . import service  # the socket server is imported only by the command that serves

    server = service.make_server(load_model(args.model), args.port, host=args.host)
    with server:  # bound before "serving on": a bad port or host exits 2 with nothing printed
        print(f"serving on {args.host}:{args.port}")
        server.serve_forever()
    return {}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage and error lines, or --help
        if exc.code == 0:
            raise
        return EXIT_USAGE
    try:
        payload = args.run(args)
        out = getattr(args, "out", None)
        if out:
            Path(out).write_text(json_text(payload, indent=2) + "\n", encoding="utf-8")
    except (FairwayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
