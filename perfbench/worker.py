"""Child process for one unit of benchmark work.

    worker.py setup                          import fairway.cli, report ready, exit
    worker.py tracks WORKDIR OUTDIR [SPANS]  one `fairway tracks derive` job
    worker.py calibrate WORKDIR [SPANS]      one analyst calibration job
    worker.py server MODEL PORT SPANS        traced `fairway serve`, stops on stdin EOF
    worker.py probe N SEED                   state training on N speeds (needs RLIMIT_AS)

Given a SPANS path, a job runs traced and writes its spans there.

The first line a worker prints is ``ready`` once ``fairway.cli`` is
imported; the last line is a JSON result.  The parent puts the
checkout's ``src`` on PYTHONPATH.
"""

import sys

import fairway.cli  # noqa: E402  (first, so set-up time is the import alone)

print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from fairway import cli, io_store, regression, service, trajectory, traffic_state  # noqa: E402
from fairway import fundamental_diagram as fd  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = {
    "cli": cli, "io_store": io_store, "regression": regression, "service": service,
    "trajectory": trajectory, "traffic_state": traffic_state, "fundamental_diagram": fd,
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(job, spans_path: str | None):
    """Run job(); with a spans path, trace every layer and write the spans there."""
    tracer = None
    span = contextlib.nullcontext()
    if spans_path:
        tracer = Tracer()
        tracer.install(MODULES)
        span = tracer.span("job")
    start = perf_counter()
    with span:
        output = job()
    job_s = perf_counter() - start
    if tracer:
        tracer.dump(spans_path)
    return job_s, output


def run_tracks(workdir: Path, out_dir: Path, spans_path: str | None) -> dict:
    argv = ["tracks", "derive", "--tracks", str(workdir / "tracks.csv"),
            "--meta", str(workdir / "meta.csv"), "--out-dir", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        # cli.main is looked up when called, so a traced wrapper is used.
        job_s, rc = timed(lambda: cli.main(argv), spans_path)
    return {"job_s": job_s, "exit": rc}


def calibrate_job(pts: list, samples: list, speeds: list) -> dict:
    """The four library steps an analyst runs; returns their outputs."""
    binned = regression.bin_points(pts, 5.0)
    reports = regression.rank_families([(b.bin_center, b.mean_y) for b in binned])
    forms = {}
    for form in fd.ALL_FORMS:
        piecewise = form in fd.PIECEWISE_FORMS
        model, report = fd.fit_fd(
            form, samples,
            v_f=inputs.FD_TRUTH["v_f"] if piecewise else None,
            k1_candidates=inputs.K1_CANDIDATES if piecewise else None,
        )
        forms[form] = (model, report)
    chars = {form: fd.derive_characteristics(model, inputs.V_MIN)
             for form, (model, _) in forms.items()}
    selection = traffic_state.select_k(speeds, range(2, 10), seed=0)
    clusters = traffic_state.kmeans(speeds, 4, seed=0)
    bands = traffic_state.bands_from_clusters(clusters)
    return {
        "families": [[r.family, r.r_squared] for r in reports],
        "forms": {
            form: {"c1": m.c1, "c2": m.c2, "v_f": m.v_f, "k1": m.k1,
                   "chars": {n: getattr(chars[form], n)
                             for n in ("v_f", "v_m", "k_m", "q_m", "k_max", "v_min")}}
            for form, (m, _) in forms.items()
        },
        "best_k": selection.best_k,
        "silhouette": {str(k): v for k, v in selection.silhouette_by_k.items()},
        "bands": list(bands.boundaries),
    }


def run_calibrate(workdir: Path, spans_path: str | None) -> dict:
    a = np.load(workdir / "calibrate.npz")
    pts = list(zip(a["gaps"].tolist(), a["gap_speeds"].tolist()))
    samples = [trajectory.FlowSample.from_density_speed(k, v)
               for k, v in zip(a["density"].tolist(), a["fd_speeds"].tolist())]
    speeds = a["state_speeds"].tolist()
    job_s, output = timed(lambda: calibrate_job(pts, samples, speeds), spans_path)
    return {"job_s": job_s, "exit": 0, "output": output}


def run_server(model: str, port: int, spans_path: str) -> dict:
    tracer = Tracer()
    tracer.install(MODULES)
    doc = io_store.load_model(model)
    server = service.make_server(doc, port, host="127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sys.stdin.read()  # the parent closes stdin to stop the server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    tracer.dump(spans_path)
    return {"exit": 0}


def run_probe(n: int, seed: int) -> dict:
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > inputs.PROBE_LIMIT_BYTES:
        raise SystemExit("probe refuses to run without an address-space limit of at most 2 GiB")
    speeds = inputs.state_speeds(seed, n).tolist()
    start = perf_counter()
    try:
        selection = traffic_state.select_k(speeds, range(2, 10), seed=0)
        traffic_state.bands_from_clusters(traffic_state.kmeans(speeds, 4, seed=0))
    except MemoryError:
        return {"ok": False, "error": "MemoryError", "s": perf_counter() - start}
    return {"ok": True, "s": perf_counter() - start, "best_k": selection.best_k}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = {}
    elif mode == "tracks":
        result = run_tracks(Path(argv[1]), Path(argv[2]), argv[3] if len(argv) > 3 else None)
    elif mode == "calibrate":
        result = run_calibrate(Path(argv[1]), argv[2] if len(argv) > 2 else None)
    elif mode == "server":
        result = run_server(argv[1], int(argv[2]), argv[3])
    elif mode == "probe":
        result = run_probe(int(argv[1]), int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
