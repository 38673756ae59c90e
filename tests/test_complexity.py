"""Peak memory of each layer at n and 8n inputs, measured under tracemalloc.

A layer whose peak grows by more than 8 log2(8n) / log2(n) from n to 8n
inputs needs more than O(n log n) memory.  tracemalloc counts numpy's buffers
and its peaks do not depend on the machine, so the bound holds exactly; time
exponents are left to the benchmark's scale probe.
"""

import math
import tracemalloc

import numpy as np
import pytest

from fairway.traffic_state import kmeans, select_k

N = 500  # and 8N: a layer holding an m x m matrix would need 128 MB there


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


@pytest.mark.parametrize("layer", [
    pytest.param(lambda pts: select_k(pts, range(2, 10)), id="select_k"),
    pytest.param(lambda pts: kmeans(pts, 4), id="kmeans"),
])
def test_peak_memory_grows_no_faster_than_n_log_n(layer):
    small, large = (peak_bytes(lambda: layer(pts))
                    for pts in (distinct_speeds(N), distinct_speeds(8 * N)))
    assert large / small <= 8 * math.log2(8 * N) / math.log2(N)
