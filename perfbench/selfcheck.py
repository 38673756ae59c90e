#!/usr/bin/env python3
"""Self-check of the benchmark's oracles.

    python3 perfbench/selfcheck.py        (from the root of a checkout)

For each kind of output it runs the program once, asserts that the oracle
accepts the real output, then feeds the oracle one corrupted copy and
asserts that the benchmark counts it as a failed operation.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import client
import inputs
import oracles
import run


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {message}")


def _expect(tally: run.Tally, label: str, errors: list[str], kind: str = "") -> None:
    before = tally.failed
    tally.add(errors, kind)
    _require(tally.failed == before + 1, f"{label}: corrupted output not counted as a failure")
    print(f"ok  {label}: {errors[0]}")


def check_tracks(workdir: Path, tally: run.Tally) -> None:
    expected = oracles.expected_tracks(*inputs.write_tracks(0, workdir))
    out = workdir / "out"
    proc, _ = run.spawn(["tracks", str(workdir), str(out)])
    result = run.finish(proc, run.JOB_TIMEOUT_S)
    _require(result is not None and result["exit"] == 0, "tracks job failed")
    _require(oracles.check_tracks(out, expected) == [], "oracle rejects the real tracks output")

    def corrupted(name: str, edit) -> list[str]:
        path = out / name
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        errors = oracles.check_tracks(out, expected)
        path.write_text(original, encoding="utf-8")
        return errors

    def nudge_speed(lines):
        fields = lines[1000].split(",")
        fields[3] = repr(float(fields[3]) * (1 + 1e-6))
        lines[1000] = ",".join(fields)

    _expect(tally, "tracks: one speed off by 1e-6", corrupted("speeds.csv", nudge_speed))
    _expect(tally, "tracks: one gap row missing", corrupted("gaps.csv", list.pop))


def check_calibrate(workdir: Path, tally: run.Tally) -> None:
    inputs.write_calibrate(0, workdir)
    proc, _ = run.spawn(["calibrate", str(workdir)])
    result = run.finish(proc, run.JOB_TIMEOUT_S)
    _require(result is not None, "calibrate job failed")
    output = result["output"]
    _require(oracles.check_calibrate(output) == [], "oracle rejects the real calibrate output")
    corrupt = copy.deepcopy(output)
    corrupt["forms"]["piecewise_exp"]["chars"]["q_m"] *= 1.001
    _expect(tally, "calibrate: q_m off by 0.1%", oracles.check_calibrate(corrupt))
    corrupt = copy.deepcopy(output)
    corrupt["best_k"] = 3
    _expect(tally, "calibrate: best_k 3", oracles.check_calibrate(corrupt))


def check_serve(workdir: Path, tally: run.Tally) -> None:
    server = run.Server(inputs.write_model(workdir))
    try:
        path = "/state?flow=42.0&density=7.0"  # 6 km/h: congested
        status, body = client.get(server.port, path)
    finally:
        server.stop()
    _require(oracles.check_response("state", path, status, body) is None,
             "oracle rejects a real /state response")
    wrong = body.replace(b'"congested"', b'"slow"')
    _expect(tally, "serve: wrong state", [oracles.check_response("state", path, status, wrong)],
            "state")
    nan = b'{"speed_kmh":NaN,"state":"congested","color":"red"}'
    _expect(tally, "serve: NaN body",
            [oracles.check_response("nonfinite", "/state?flow=nan&density=4", 200, nan)],
            "nonfinite")
    _expect(tally, "serve: 200 instead of 422",
            [oracles.check_response("zero_density", "/state?flow=3&density=0", 200,
                                    b'{"error":"x"}')], "zero_density")


def main() -> int:
    if not (run.ROOT / "src" / "fairway" / "cli.py").is_file():
        print("error: run from the root of a fairway checkout", file=sys.stderr)
        return 2
    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=tmp_root))
    tally = run.Tally()
    try:
        check_tracks(workdir, tally)
        check_calibrate(workdir, tally)
        check_serve(workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(f"self-check passed: {tally.failed} corrupted outputs, all counted as failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
