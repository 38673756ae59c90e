#!/usr/bin/env python3
"""The fairway benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ./src.
Workloads (see perfbench/README.md for why each was chosen):

    tracks     `fairway tracks derive` jobs on 8 runs x 6 vessels x 3,600 s of fixes
    calibrate  the analyst's library path: rank curve families, fit all six
               diagram forms, derive characteristics, train state bands
    serve      `fairway serve` with two clients at once: a gateway on one
               keep-alive connection in a closed loop, and vessels in an open
               loop at 100 req/s, a new connection each

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, which wraps the
program's public functions from outside (tracer.py).  Inputs depend only on
--seed; every output is checked by oracles.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import client
import inputs
import oracles
import tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tracks", "calibrate", "serve")
SETUP_SAMPLES = 5  # server starts per serve run; a job run has one set-up per job
JOB_TIMEOUT_S = 150
VESSEL_RATE = 100.0  # requests per second
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], **kwargs) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it imported fairway.cli."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT, **kwargs)
    first = proc.stdout.readline()
    setup_s = perf_counter() - start
    if first.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {argv[0]} did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> dict | None:
    """The worker's JSON result, or None if it failed or timed out."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def warm_up() -> None:
    """Start one worker unmeasured: the first start in a checkout compiles bytecode."""
    proc, _ = spawn(["setup"])
    if finish(proc, JOB_TIMEOUT_S) is None:
        raise BenchError(f"set-up worker failed (exit {proc.returncode})")


@dataclass
class Job:
    setup_s: float
    job_s: float | None
    peak_rss_mb: float | None
    errors: list[str]
    traced: bool
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


class JobWorkload:
    """tracks or calibrate: one job per worker process."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        if name == "tracks":
            self.expected = oracles.expected_tracks(*inputs.write_tracks(seed, workdir))
        else:
            inputs.write_calibrate(seed, workdir)

    def run_one(self, traced: bool) -> Job:
        out_dir = self.workdir / "out"
        spans_path = self.workdir / "spans.json"
        argv = [self.name, str(self.workdir)]
        if self.name == "tracks":
            argv.append(str(out_dir))
        if traced:
            argv.append(str(spans_path))
        proc, setup_s = spawn(argv)
        result = finish(proc, JOB_TIMEOUT_S)
        if result is None or result["exit"] != 0:
            errors = [f"{self.name} job failed"]
        elif self.name == "tracks":
            errors = oracles.check_tracks(out_dir, self.expected)
        else:
            errors = oracles.check_calibrate(result["output"])
        job = Job(setup_s, result and result["job_s"], result and result["peak_rss_mb"],
                  errors, traced)
        if traced and result is not None:
            job.spans, job.counts = tracer.load(spans_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return job

    def run(self, seconds: float, traced: bool) -> list[Job]:
        """Jobs back to back until `seconds` have passed; traced runs alternate."""
        jobs = []
        start = perf_counter()
        while not jobs or perf_counter() - start < seconds:
            jobs.append(self.run_one(False))
            if traced:
                jobs.append(self.run_one(True))
        return jobs


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((client.HOST, 0))
        return sock.getsockname()[1]


class Server:
    """`fairway serve` (or the traced launcher) in a child process on loopback."""

    def __init__(self, model: Path, spans_path: Path | None = None):
        self.traced = spans_path is not None
        for _ in range(3):  # a port taken between free_port() and bind: try another
            self.port = free_port()
            if self.traced:
                cmd = [sys.executable, str(WORKER), "server", str(model), str(self.port),
                       str(spans_path)]
            else:
                cmd = [sys.executable, "-m", "fairway.cli", "serve", "--model", str(model),
                       "--port", str(self.port), "--host", client.HOST]
            start = perf_counter()
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                                         env=child_env(), cwd=ROOT)
            while self.proc.poll() is None and perf_counter() - start < 60:
                try:
                    if client.get(self.port, "/health")[0] == 200:
                        self.setup_s = perf_counter() - start
                        return
                except OSError:
                    pass
                time.sleep(0.002)
            self.stop()
        raise BenchError("the service did not answer /health")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            if self.traced:
                self.proc.stdin.close()  # the launcher shuts down and writes its spans
            else:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()


def drive(seed: int, port: int, seconds: float) -> dict[str, list[client.Sample]]:
    """The gateway and the vessel clients against one server, at the same time."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        vessels = pool.submit(client.vessel, port,
                              inputs.vessel_queries(seed, int(seconds * VESSEL_RATE)),
                              VESSEL_RATE)
        gateway = client.gateway(port, inputs.gateway_queries(seed, int(seconds * 120) + 10),
                                 seconds)
        return {"gateway": gateway, "vessel": vessels.result()}


def percentile(values, q: float) -> float:
    """A sample value (no interpolation), so failed requests at +inf stay comparable."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def median(values) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, errors: list[str], kind: str = "") -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for reason in errors:
                key = f"{kind + ': ' if kind else ''}{reason}"[:160]
                self.reasons[key] = self.reasons.get(key, 0) + 1


def check_samples(samples: list[client.Sample], tally: Tally) -> list[float]:
    """Tally each response; return latencies with failed requests at +inf."""
    latencies = []
    for s in samples:
        error = oracles.check_response(s.kind, s.path, s.status, s.body)
        tally.add([error] if error else [], s.kind)
        latencies.append(s.latency_s if error is None else float("inf"))
    return latencies


def job_end_to_end(workload: JobWorkload, seconds: float, tally: Tally, report: dict) -> dict:
    jobs = workload.run(seconds, traced=False)
    for job in jobs:
        tally.add(job.errors)
    setups = [j.setup_s for j in jobs]
    times = [j.job_s for j in jobs if j.job_s is not None]
    if not times:
        raise BenchError("no job completed")
    report.update(jobs=len(jobs), job_times_s=[round(t, 3) for t in times],
                  job_s=median(times), setup_samples=len(setups))
    return {
        "setup_s": median(setups),
        "peak_rss_mb": median([j.peak_rss_mb for j in jobs if j.peak_rss_mb is not None]),
        "p50_ms": median(times) * 1e3,
    }


def warm_up_server(model: Path) -> str:
    """Start the service once unmeasured, and send it one non-finite query.

    The query is outside the counted operations, since the service answers
    it with 200 and a NaN body (an open defect); the answer is printed.
    """
    server = Server(model)
    try:
        status, body = client.get(server.port, inputs.NONFINITE_PROBE)
    except (OSError, ValueError, IndexError):
        status, body = 0, b""
    finally:
        server.stop()
    error = oracles.check_response("nonfinite", inputs.NONFINITE_PROBE, status, body)
    return f"{inputs.NONFINITE_PROBE} -> {error or 'rejected, as it should be'}"


def serve_end_to_end(seed: int, model: Path, seconds: float, tally: Tally,
                     report: dict) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        server = Server(model)
        setups.append(server.setup_s)
        server.stop()
    server = Server(model)
    try:
        samples = drive(seed, server.port, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    report["setup_samples"] = len(setups)
    latencies = {}
    for name, group in samples.items():
        latencies[name] = check_samples(group, tally)
        report[f"{name}_requests"] = len(group)
        for q in (50, 90, 99):
            report[f"{name}_p{q}_ms"] = percentile(latencies[name], q) * 1e3
    # The gateway waits on every reply, so its latency is the one users feel;
    # the vessel figures are printed and traced.
    return {"setup_s": median(setups), "peak_rss_mb": rss,
            "p50_ms": report["gateway_p50_ms"]}


def layer_metrics(summary: dict, counts: dict, runs: int) -> dict:
    """Per-layer values (per traced job or server run) from spans and counters."""
    out = {}
    for name, row in summary.items():
        out[f"{name}.self_s"] = row["self_s"] / runs
        out[f"{name}.calls"] = row["calls"] / runs
    for name, value in counts.items():
        out[name] = value / runs
    candidates = counts.get("breakpoint.candidates", 0)
    out["fundamental_diagram.breakpoint_fits_per_candidate"] = (
        counts.get("breakpoint.fits", 0) / candidates if candidates else 0.0)
    return out


def job_traced(workload: JobWorkload, seconds: float, tally: Tally, report: dict) -> dict:
    jobs = workload.run(seconds, traced=True)
    for job in jobs:
        tally.add(job.errors)
    traced = [j for j in jobs if j.traced and j.job_s is not None]
    plain = [j.job_s for j in jobs if not j.traced and j.job_s is not None]
    if not traced or not plain:
        raise BenchError("no traced job completed")
    counts = sum((j.counts for j in traced), Counter())
    summary = tracer.summarize([j.spans for j in traced])
    job_total = summary.pop("job")
    out = layer_metrics(summary, counts, len(traced))
    traced_s, plain_s = median([j.job_s for j in traced]), median(plain)
    layer_self = sum(row["self_s"] for row in summary.values())
    out.update({
        "trace.traced_s": traced_s,
        "trace.untraced_s": plain_s,
        "trace.overhead": traced_s / plain_s - 1.0,
        "trace.layer_share": layer_self / job_total["total_s"],
    })
    report.update(jobs=len(jobs), traced_jobs=len(traced),
                  layer_self_s={k: round(v["self_s"] / len(traced), 4)
                                for k, v in sorted(summary.items())})
    if workload.name == "calibrate":
        out.update(scale_probe(workload.seed, report))
    return out


def _limit_address_space() -> None:
    limit = inputs.PROBE_LIMIT_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def scale_probe(seed: int, report: dict) -> dict:
    """State training at growing sizes, each in a child capped at 2 GiB of address space."""
    largest, largest_s, outcomes = 0, 0.0, {}
    for n in inputs.PROBE_SIZES:
        proc, _ = spawn(["probe", str(n), str(seed)], preexec_fn=_limit_address_space)
        result = finish(proc, PROBE_TIMEOUT_S)
        if result is None:
            outcomes[n] = "failed or timed out"
        elif not result["ok"]:
            outcomes[n] = f"{result['error']} after {result['s']:.2f} s"
        else:
            outcomes[n] = f"completed in {result['s']:.2f} s"
            largest, largest_s = n, result["s"]
    report["scale_probe"] = outcomes
    return {"scale.max_speeds": largest, "scale.max_speeds_s": largest_s}


def serve_traced(seed: int, model: Path, seconds: float, workdir: Path, tally: Tally,
                 report: dict) -> dict:
    """Half the time against `fairway serve`, half against the traced launcher."""
    half = seconds / 2
    server = Server(model)
    try:
        plain = drive(seed, server.port, half)
    finally:
        server.stop()
    spans_path = workdir / "server-spans.json"
    server = Server(model, spans_path)
    try:
        traced = drive(seed + 1, server.port, half)
    finally:
        server.stop()
    spans, counts = tracer.load(spans_path)
    out = layer_metrics(tracer.summarize([spans]), counts, 1)
    lat = {f"{side}.{name}": check_samples(group, tally)
           for side, run in (("plain", plain), ("traced", traced))
           for name, group in run.items()}
    ms = 1e3
    for name in ("gateway", "vessel"):
        ok = [s for s, t in zip(plain[name], lat[f"plain.{name}"]) if t != float("inf")]
        out[f"service.{name}.headers_ms"] = median([s.headers_s for s in ok]) * ms
        out[f"service.{name}.body_ms"] = median([s.body_s for s in ok]) * ms
        if name == "vessel":
            out["service.vessel.connect_ms"] = median([s.connect_s for s in ok]) * ms
    out.update({
        "loadgen.late_p90_ms": percentile([s.late_s for s in plain["vessel"]], 90) * ms,
        "loadgen.sent": sum(len(g) for run in (plain, traced) for g in run.values()),
        "loadgen.gateway_p90_ms": percentile(lat["plain.gateway"], 90) * ms,
        "loadgen.vessel_p50_ms": percentile(lat["plain.vessel"], 50) * ms,
        "loadgen.vessel_p90_ms": percentile(lat["plain.vessel"], 90) * ms,
        "trace.traced_s": percentile(lat["traced.gateway"], 50),
        "trace.untraced_s": percentile(lat["plain.gateway"], 50),
    })
    out["trace.overhead"] = out["trace.traced_s"] / out["trace.untraced_s"] - 1.0
    report["requests"] = out["loadgen.sent"]
    return out


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, workdir: Path) -> dict:
    tally, report = Tally(), {}
    if args.workload in ("tracks", "calibrate"):
        workload = JobWorkload(args.workload, args.seed, workdir)
        warm_up()
        if args.trace:
            values = job_traced(workload, args.seconds, tally, report)
        else:
            values = job_end_to_end(workload, args.seconds, tally, report)
    else:
        model = inputs.write_model(workdir)
        report["nonfinite_probe"] = warm_up_server(model)
        if args.trace:
            values = serve_traced(args.seed, model, args.seconds, workdir, tally, report)
        else:
            values = serve_end_to_end(args.seed, model, args.seconds, tally, report)

    units = declared_metrics(args.trace)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(f"fairway benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {int(args.trace)}")
    for key, value in report.items():
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<52} {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for reason, n in sorted(tally.reasons.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  failure x{n}: {reason}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairway" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/fairway; run from the root of a fairway checkout",
              file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        result = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
