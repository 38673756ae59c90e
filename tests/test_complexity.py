"""Peak memory of each layer at n and 8n inputs, measured under tracemalloc.

A layer whose peak grows by more than 8 log2(8n) / log2(n) from n to 8n
inputs needs more than O(n log n) memory.  tracemalloc counts numpy's buffers
and its peaks do not depend on the machine, so the bound holds exactly; time
exponents are left to the benchmark's scale probe.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fairway.fundamental_diagram import estimate_breakpoint, fit_fd
from fairway.regression import bin_points, rank_families
from fairway.traffic_state import kmeans, select_k
from fairway.trajectory import FlowSample, FlowSamples

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
    return FlowSamples(density=ks, mean_speed=vs, flow=ks * vs)


def flow_list(n: int) -> list[FlowSample]:
    batch = flow_batch(n)
    return [FlowSample.from_density_speed(k, v)
            for k, v in zip(batch.density.tolist(), batch.mean_speed.tolist())]


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
])
def test_peak_memory_grows_no_faster_than_n_log_n(layer):
    """``layer(n)`` builds its input of size n and returns the call to measure."""
    small, large = (peak_bytes(layer(n)) for n in (N, 8 * N))
    assert large / small <= 8 * math.log2(8 * N) / math.log2(N)
