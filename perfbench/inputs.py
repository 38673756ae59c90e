"""Seeded synthetic inputs for every workload.

Everything here is a pure function of the seed; the program under test
only ever sees the files and arrays these functions produce.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# tracks: 8 runs x 6 vessels x 3,600 one-second fixes = 172,800 CSV rows.
RUNS, VESSELS, SECONDS = 8, 6, 3600
RUN_IDS = tuple(str(101 + r) for r in range(RUNS))  # numeric text keeps the oracle's CSV parse in numpy

# calibrate: the published piecewise-exponential diagram and the four speed modes.
GAP_POINTS = 20_000
FD_SAMPLES = 2_000
FD_TRUTH = {"c1": 13.62, "c2": 0.115, "v_f": 10.5, "k1": 4.0}
K1_CANDIDATES = tuple(np.round(np.linspace(2.0, 6.0, 41), 10).tolist())
V_MIN = 2.65
STATE_MODES = (4.5, 6.5, 8.3, 10.5)
STATE_SPEEDS = 4_000
GAP_LOG_TRUTH = (2.0, -1.5)  # speed = a*ln(gap) + b, km/h over m

# serve: bands the server is started with.
BANDS = (5.67, 7.28, 9.38)

# scale probe: state training at these sizes, each in a child process whose
# address space is capped, never in the benchmark's own process.
PROBE_SIZES = (4_000, 12_000, 50_000)
PROBE_LIMIT_BYTES = 2 * 1024 ** 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def track_arrays(seed: int):
    """Fixes and vessel metadata as arrays.

    Returns ``(x, y, meta)`` where x and y have shape (RUNS, VESSELS,
    SECONDS) and are already rounded to the millimetre precision written to
    the CSV, and meta is a list per run of (length_m, locator_offset_m,
    load_state) per vessel.
    """
    rng = _rng(seed, 1)
    t = np.arange(SECONDS, dtype=float)
    x = np.empty((RUNS, VESSELS, SECONDS))
    y = np.empty_like(x)
    meta = []
    for r in range(RUNS):
        lengths = rng.uniform(80.0, 110.0, VESSELS)
        offsets = rng.uniform(0.0, 1.0, VESSELS) * lengths
        loads = rng.choice(["loaded", "empty"], VESSELS).tolist()
        meta.append(list(zip(lengths.round(2).tolist(), offsets.round(2).tolist(), loads)))
        # Leader speed in m/s: a slow swell plus jitter, always well above 0.
        v0 = rng.uniform(2.0, 2.8)
        v = v0 + 0.4 * np.sin(2 * np.pi * t / rng.uniform(500, 900) + rng.uniform(0, 6.3))
        v += rng.normal(0.0, 0.05, SECONDS)
        s = np.cumsum(v)
        heading = rng.uniform(0.0, 2 * np.pi)
        x0, y0 = rng.uniform(2e5, 6e5), rng.uniform(3.0e6, 3.5e6)
        for j in range(VESSELS):
            if j:
                lead_len, lead_off = meta[r][j - 1][0], meta[r][j - 1][1]
                foll_off = meta[r][j][1]
                gap = rng.uniform(40.0, 160.0) + 20.0 * np.sin(
                    2 * np.pi * t / rng.uniform(400, 800) + rng.uniform(0, 6.3))
                # Locator-to-locator spacing that yields ``gap`` bow to stern.
                s = s - (gap + lead_len - lead_off + foll_off)
            x[r, j] = np.round(x0 + s * np.cos(heading) + rng.normal(0, 0.3, SECONDS), 3)
            y[r, j] = np.round(y0 + s * np.sin(heading) + rng.normal(0, 0.3, SECONDS), 3)
    return x, y, meta


def write_tracks(seed: int, out_dir: Path):
    """Write tracks.csv and meta.csv; return the arrays the oracle needs."""
    x, y, meta = track_arrays(seed)
    lines = ["run_id,fleet_position,t_seconds,x_m,y_m"]
    for r, run_id in enumerate(RUN_IDS):
        xr, yr = x[r].tolist(), y[r].tolist()
        for t in range(SECONDS):  # interleaved by time, as a live feed arrives
            for j in range(VESSELS):
                lines.append(f"{run_id},{j + 1},{t},{xr[j][t]:.3f},{yr[j][t]:.3f}")
    (out_dir / "tracks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta_lines = ["run_id,fleet_position,length_m,locator_offset_m,load_state"]
    for r, run_id in enumerate(RUN_IDS):
        for j, (length, offset, load) in enumerate(meta[r]):
            meta_lines.append(f"{run_id},{j + 1},{length:.2f},{offset:.2f},{load}")
    (out_dir / "meta.csv").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
    return x, y, meta


def piecewise_exp_speed(k):
    k = np.asarray(k, dtype=float)
    c1, c2, v_f, k1 = (FD_TRUTH[n] for n in ("c1", "c2", "v_f", "k1"))
    return np.where(k <= k1, v_f, c1 * np.exp(-c2 * k))


def state_speeds(seed: int, n: int) -> np.ndarray:
    """n speeds drawn evenly from the four congestion modes (sd 0.3 km/h)."""
    rng = _rng(seed, 3)
    per = n // len(STATE_MODES)
    return np.concatenate([rng.normal(m, 0.3, per) for m in STATE_MODES])


def calibrate_arrays(seed: int) -> dict[str, np.ndarray]:
    rng = _rng(seed, 2)
    a, b = GAP_LOG_TRUTH
    gaps = rng.uniform(10.0, 400.0, GAP_POINTS)
    gap_speeds = a * np.log(gaps) + b + rng.normal(0.0, 0.6, GAP_POINTS)
    density = rng.uniform(0.3, 12.0, FD_SAMPLES)
    fd_speeds = piecewise_exp_speed(density) + rng.normal(0.0, 0.3, FD_SAMPLES)
    return {
        "gaps": gaps, "gap_speeds": gap_speeds,
        "density": density, "fd_speeds": fd_speeds,
        "state_speeds": state_speeds(seed, STATE_SPEEDS),
    }


def write_calibrate(seed: int, out_dir: Path) -> None:
    np.savez(out_dir / "calibrate.npz", **calibrate_arrays(seed))


def write_model(out_dir: Path) -> Path:
    """A served model document holding only the state bands."""
    path = out_dir / "model.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "bands": {"boundaries": list(BANDS)}}), encoding="utf-8")
    return path


def _state_query(rng: np.random.Generator) -> str:
    density = round(float(rng.uniform(0.5, 12.0)), 3)
    speed = float(rng.uniform(1.0, 14.0))
    return f"/state?flow={density * speed:.4f}&density={density}"


def gateway_queries(seed: int, n: int) -> list[str]:
    """Valid /state queries with varied flow and density."""
    rng = _rng(seed, 4)
    return [_state_query(rng) for _ in range(n)]


# Per block of 50 vessel requests: 41 /state, 5 /health, 2 /model,
# 1 missing parameter, 1 zero density.  Non-finite queries are not in the
# timed mix: the service answers them wrongly (NONFINITE_PROBE).
_VESSEL_BLOCK = (["state"] * 41 + ["health"] * 5 + ["model"] * 2
                 + ["missing", "zero_density"])
NONFINITE_PROBE = "/state?flow=nan&density=4.0"


def vessel_queries(seed: int, n: int) -> list[tuple[str, str]]:
    """(kind, path) pairs in the open-loop vessel mix."""
    rng = _rng(seed, 5)
    out = []
    while len(out) < n:
        for kind in rng.permutation(_VESSEL_BLOCK).tolist():
            if kind == "state":
                path = _state_query(rng)
            elif kind == "health":
                path = "/health"
            elif kind == "model":
                path = "/model"
            elif kind == "missing":
                path = (f"/state?flow={rng.uniform(1, 60):.3f}" if rng.random() < 0.5
                        else f"/state?density={rng.uniform(0.5, 12):.3f}")
            else:
                path = f"/state?flow={rng.uniform(1, 60):.3f}&density=0"
            out.append((kind, path))
    return out[:n]
