"""Peak memory of each layer at n and 8n inputs, measured under tracemalloc.

A layer whose peak grows by more than 8 log2(8n) / log2(n) from n to 8n
inputs needs more than O(n log n) memory.  tracemalloc counts numpy's buffers
and its peaks do not depend on the machine, so the bound holds exactly; time
exponents are left to the benchmark's scale probe.  Loaders read CSV files
that their layer writes into the test's own working directory.
"""

import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fairway.fundamental_diagram import estimate_breakpoint, fit_fd
from fairway.io_store import (SURVEILLANCE_COLUMNS, TRACK_COLUMNS, load_surveillance, load_tracks,
                              read_columns)
from fairway.regression import bin_points, rank_families
from fairway.traffic_state import kmeans, select_k, silhouette
from fairway.trajectory import (FleetRun, FlowSample, FlowSamples, VesselMeta, VesselTrack,
                                derive_gap, fleet_flow_samples, speed_series)

N = 500  # and 8N: a layer holding an m x m matrix would need 128 MB there
V_F = 10.5  # km/h, the plateau of the piecewise_exp truth below, whose k1 is 4
CANDIDATES = np.linspace(2.0, 6.0, 41).tolist()  # breakpoints, vessels/km


def peak_bytes(run) -> int:
    """The tracemalloc peak of one call of ``run``, after a first untraced call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def distinct_speeds(n: int) -> np.ndarray:
    """n distinct speeds around four congestion modes, km/h."""
    rng = np.random.default_rng(n)
    speeds = rng.choice([4.5, 6.5, 8.3, 10.5], n) + rng.normal(0, 0.3, n)
    assert np.unique(speeds).size == n
    return speeds


def speed_gap_points(n: int) -> list[tuple[float, float]]:
    """n (gap m, speed km/h) pairs around speed = 2 ln(gap) - 1.5."""
    rng = np.random.default_rng(n)
    gaps = rng.uniform(50.0, 2000.0, n)
    speeds = 2.0 * np.log(gaps) - 1.5 + rng.normal(0, 0.3, n)
    return list(zip(gaps.tolist(), speeds.tolist()))


def flow_batch(n: int) -> FlowSamples:
    """n noisy samples of v_f = 10.5 up to k1 = 4, then 13.62 e^(-0.115 k)."""
    rng = np.random.default_rng(n)
    ks = rng.uniform(0.2, 12.0, n)
    vs = np.where(ks <= 4.0, V_F, 13.62 * np.exp(-0.115 * ks)) + rng.normal(0, 0.2, n)
    return FlowSamples(density=ks, mean_speed=vs)


def flow_list(n: int) -> list[FlowSample]:
    batch = flow_batch(n)
    return [FlowSample.from_density_speed(k, v)
            for k, v in zip(batch.density.tolist(), batch.mean_speed.tolist())]


def csv_file(name: str, header, rows) -> Path:
    """A CSV of these rows in the working directory; a float cell is its repr."""
    path = Path(name)
    path.write_text(",".join(header) + "\n" + "".join(",".join(map(str, row)) + "\n"
                                                      for row in rows), encoding="utf-8")
    return path


def speeds_csv(n: int) -> Path:
    return csv_file(f"speeds_{n}.csv", ["speed_kmh"], ([v] for v in distinct_speeds(n).tolist()))


def convoy(n: int) -> FleetRun:
    """Two vessels 100 m apart, each with n fixes 1 s apart at about 3 m/s."""
    rng = np.random.default_rng(n)
    return FleetRun("r", tuple(
        VesselTrack(meta=VesselMeta(position, 40.0, 5.0, "loaded"), t=np.arange(n),
                    x=3.0 * np.arange(n) - 140.0 * position + rng.normal(0, 0.1, n),
                    y=rng.normal(0, 0.1, n))
        for position in (1, 2)))


def tracks_csv(n: int) -> Path:
    """The two vessels of ``convoy(n // 2)`` as n track rows."""
    run = convoy(n // 2)
    rows = ([run.run_id, tr.meta.fleet_position, *fix] for tr in run.tracks
            for fix in zip(tr.t.tolist(), tr.x.tolist(), tr.y.tolist()))
    return csv_file(f"tracks_{n}.csv", TRACK_COLUMNS, rows)


def surveillance_csv(n: int) -> Path:
    rows = ([f"2021-06-01T{i // 60 % 24:02d}:{i % 60:02d}:00", ("upstream", "downstream")[i % 2],
             30.0 + i % 17, 4.0 + i % 7, i % 5, i % 3] for i in range(n))
    return csv_file(f"surveillance_{n}.csv", SURVEILLANCE_COLUMNS, rows)


def run_series(n: int) -> tuple:
    """``convoy(n)``, its speed series and its gaps, derived once."""
    run = convoy(n)
    return run, [speed_series(tr) for tr in run.tracks], [derive_gap(*run.tracks)]


@pytest.mark.parametrize("layer", [
    pytest.param(lambda n: partial(select_k, distinct_speeds(n), range(2, 10)), id="select_k"),
    pytest.param(lambda n: partial(kmeans, distinct_speeds(n), 4), id="kmeans"),
    pytest.param(lambda n: partial(bin_points, speed_gap_points(n), 5.0), id="bin_points"),
    pytest.param(lambda n: partial(rank_families, speed_gap_points(n)), id="rank_families"),
    pytest.param(lambda n: partial(estimate_breakpoint, flow_batch(n), V_F, CANDIDATES),
                 id="estimate_breakpoint"),
    pytest.param(lambda n: partial(fit_fd, "piecewise_exp", flow_batch(n), v_f=V_F, k1=4.0),
                 id="fit_fd_given_k1"),
    pytest.param(lambda n: partial(fit_fd, "piecewise_exp", flow_batch(n), v_f=V_F,
                                   k1_candidates=CANDIDATES), id="fit_fd_scan"),
    pytest.param(lambda n: partial(fit_fd, "piecewise_exp", flow_list(n), v_f=V_F, k1=4.0),
                 id="fit_fd_flow_sample_list"),
    pytest.param(lambda n: partial(read_columns, speeds_csv(n), "speed_kmh"), id="read_columns"),
    pytest.param(lambda n: partial(load_tracks, tracks_csv(n), {
        ("r", p): VesselMeta(p, 40.0, 5.0, "loaded") for p in (1, 2)}), id="load_tracks"),
    pytest.param(lambda n: partial(speed_series, convoy(n).tracks[0]), id="speed_series"),
    pytest.param(lambda n: partial(derive_gap, *convoy(n).tracks), id="derive_gap"),
    pytest.param(lambda n: partial(fleet_flow_samples, *run_series(n)), id="fleet_flow_samples"),
    pytest.param(lambda n: partial(silhouette, distinct_speeds(n),
                                   np.searchsorted([5.5, 7.4, 9.4], distinct_speeds(n))),
                 id="silhouette"),
    pytest.param(lambda n: partial(load_surveillance, surveillance_csv(n)),
                 id="load_surveillance"),
])
def test_peak_memory_grows_no_faster_than_n_log_n(layer, tmp_path, monkeypatch):
    """``layer(n)`` builds its input of size n and returns the call to measure."""
    monkeypatch.chdir(tmp_path)
    small, large = (peak_bytes(layer(n)) for n in (N, 8 * N))
    assert large / small <= 8 * math.log2(8 * N) / math.log2(N)
