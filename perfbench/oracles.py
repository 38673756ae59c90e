"""Output checks that never call the code under test.

Each check returns a list of mismatch descriptions; an empty list means
the output is correct.  The expected values come from the generating
parameters (inputs.py) and from numpy recomputations of the published
formulas.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np

import inputs

REL_TOL = 1e-9
STATE_LEVELS = (("severely_congested", "dark_red"), ("congested", "red"),
                ("slow", "yellow"), ("smooth", "green"))
BAND_TARGETS = (5.5, 7.4, 9.4)  # midpoints of the four speed modes, km/h


def _close(actual, expected, rel=REL_TOL) -> np.ndarray:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return np.abs(actual - expected) <= rel * np.maximum(1.0, np.abs(expected))




def expected_tracks(x, y, meta) -> dict[str, np.ndarray]:
    """Speeds, gaps and flow samples recomputed from the generated fixes."""
    runs = np.array(inputs.RUN_IDS, dtype=float)
    nr, nv, nt = x.shape
    t = np.arange(nt, dtype=float)
    speed = np.hypot(np.diff(x, axis=2), np.diff(y, axis=2)) * 3.6  # (run, vessel, t)
    length = np.array([[m[0] for m in run] for run in meta])
    offset = np.array([[m[1] for m in run] for run in meta])
    gap = (np.hypot(x[:, :-1] - x[:, 1:], y[:, :-1] - y[:, 1:])
           + (offset[:, :-1] - offset[:, 1:] - length[:, :-1])[:, :, None])
    v_bar = nv / np.sum(1.0 / speed, axis=1)  # (run, t) over the nt-1 speed times
    occupied_km = np.sum(gap[:, :, :-1] + length[:, 1:, None], axis=1) / 1000.0
    density = (nv - 1) / occupied_km

    grid = np.broadcast_arrays
    r3, p3, t3 = grid(runs[:, None, None], np.arange(1, nv + 1)[None, :, None], t[None, None, :-1])
    rg, pg, tg = grid(runs[:, None, None], np.arange(2, nv + 1)[None, :, None], t[None, None, :])
    rf, tf = grid(runs[:, None], t[None, :-1])
    return {
        "speeds": np.column_stack([r3.ravel(), p3.ravel(), t3.ravel(), speed.ravel()]),
        "gaps": np.column_stack([rg.ravel(), pg.ravel(), tg.ravel(), gap.ravel(),
                                 (gap <= 0).ravel()]),
        "flow_samples": np.column_stack([rf.ravel(), tf.ravel(), density.ravel(),
                                         v_bar.ravel(), (density * v_bar).ravel()]),
    }


def check_tracks(out_dir: Path, expected: dict[str, np.ndarray]) -> list[str]:
    errors = []
    for name, want in expected.items():
        path = out_dir / f"{name}.csv"
        if not path.is_file():
            errors.append(f"{name}.csv missing")
            continue
        got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if got.shape != want.shape:
            errors.append(f"{name}.csv: shape {got.shape}, expected {want.shape}")
            continue
        for col in range(want.shape[1]):
            bad = int(np.sum(~_close(got[:, col], want[:, col])))
            if bad:
                errors.append(f"{name}.csv column {col}: {bad} values differ")
    return errors


def _branch(form: str, c1: float, c2: float, k):
    k = np.asarray(k, dtype=float)
    if form in ("greenshields", "piecewise_linear"):
        return -c1 * k + c2
    if form in ("greenberg", "piecewise_log"):
        return -c1 * np.log(k) + c2
    return c1 * np.exp(-c2 * k)


def check_calibrate(out: dict) -> list[str]:
    errors = []
    if not out["families"] or out["families"][0][0] != "logarithmic":
        errors.append(f"top speed-gap family {out['families'][:1]}, expected logarithmic")
    if out["best_k"] != 4:
        errors.append(f"best_k {out['best_k']}, expected 4")
    bands = out["bands"]
    if len(bands) != 3 or any(abs(b - t) > 0.3 for b, t in zip(bands, BAND_TARGETS)):
        errors.append(f"bands {bands} not within 0.3 km/h of {BAND_TARGETS}")
    if set(out["forms"]) != {"greenshields", "greenberg", "underwood",
                             "piecewise_linear", "piecewise_log", "piecewise_exp"}:
        errors.append(f"fitted forms {sorted(out['forms'])}")
        return errors
    truth = inputs.FD_TRUTH
    pe = out["forms"]["piecewise_exp"]
    if abs(pe["c1"] / truth["c1"] - 1) > 0.05 or abs(pe["c2"] / truth["c2"] - 1) > 0.05:
        errors.append(f"piecewise_exp coefficients ({pe['c1']}, {pe['c2']}) far from the truth")
    for form, m in out["forms"].items():
        piecewise = form.startswith("piecewise_")
        c1, c2, ch = m["c1"], m["c2"], m["chars"]
        if piecewise and abs(m["k1"] - truth["k1"]) > 0.5:
            errors.append(f"{form}: k1 {m['k1']} not within 0.5 of {truth['k1']}")

        def speed(k, form=form, m=m, c1=c1, c2=c2, piecewise=piecewise):
            v = _branch(form, c1, c2, k)
            return np.where(np.asarray(k) <= m["k1"], m["v_f"], v) if piecewise else v

        k_m, v_m, q_m, k_max = ch["k_m"], ch["v_m"], ch["q_m"], ch["k_max"]
        if not math.isclose(q_m, k_m * v_m, rel_tol=REL_TOL):
            errors.append(f"{form}: q_m {q_m} != k_m*v_m {k_m * v_m}")
        if not _close(v_m, speed(k_m)):
            errors.append(f"{form}: v_m {v_m} is not the speed at k_m {k_m}")
        if not _close(_branch(form, c1, c2, k_max), inputs.V_MIN):
            errors.append(f"{form}: speed at k_max {k_max} is not v_min")
        lower = m["k1"] if piecewise else 0.0
        grid = np.linspace(lower, k_max, 2001)[1:]
        if np.max(grid * speed(grid)) > q_m * (1 + 1e-9):
            errors.append(f"{form}: q_m {q_m} is not the throughput optimum on (lower, k_max]")
    return errors


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def expected_state(flow: float, density: float) -> dict:
    """Threshold lookup: each band's upper boundary belongs to it."""
    v = flow / density
    level = sum(v > b for b in inputs.BANDS)
    state, color = STATE_LEVELS[level]
    return {"speed_kmh": v, "state": state, "color": color}


def check_response(kind: str, path: str, status: int, body: bytes) -> str | None:
    """None if the response is right for a request of this kind, else why not."""
    if status == 0:
        return "exchange failed (connection, timeout or malformed response)"
    try:
        doc = json.loads(body, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"status {status}, body is not strict JSON: {exc}"
    if not isinstance(doc, dict):
        return "body is not a JSON object"
    if kind == "state":
        query = parse_qs(urlparse(path).query)
        want = expected_state(float(query["flow"][0]), float(query["density"][0]))
        if status != 200:
            return f"status {status}, expected 200"
        if (doc.get("state"), doc.get("color")) != (want["state"], want["color"]):
            return f"state {doc.get('state')}/{doc.get('color')}, expected {want}"
        if type(doc.get("speed_kmh")) not in (int, float) or not math.isclose(
                doc["speed_kmh"], want["speed_kmh"], rel_tol=REL_TOL):
            return f"speed {doc.get('speed_kmh')}, expected {want['speed_kmh']}"
        return None
    expected_status = {"health": (200,), "model": (200,), "missing": (400,),
                       "zero_density": (422,), "nonfinite": (400, 422)}[kind]
    if status not in expected_status:
        return f"status {status}, expected {expected_status}"
    if kind == "health" and doc.get("status") != "ok":
        return f"health body {doc}"
    if kind == "model" and (doc.get("schema_version") != 1
                            or doc.get("bands", {}).get("boundaries") != list(inputs.BANDS)):
        return f"model body {doc}"
    if kind in ("missing", "zero_density", "nonfinite") and "error" not in doc:
        return f"error body without an error message: {doc}"
    return None
