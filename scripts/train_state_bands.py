#!/usr/bin/env python3
"""Train four-way traffic-state bands on synthetic speed observations.

Draws speeds from four Gaussian modes, sweeps the cluster count by mean
silhouette, builds midpoint boundaries from the K=4 centers, and shows a
few (flow, density) classifications against the trained bands.  With
--out the bands are saved as a model document usable by
``fairway states classify`` and ``fairway serve``.

Usage:
    python3 scripts/train_state_bands.py [--seed N] [--out MODEL.json]
"""

import argparse
from datetime import datetime, timezone

import numpy as np

from fairway.cli import K_RANGE
from fairway.io_store import ModelDocument, save_model
from fairway.traffic_state import bands_from_clusters, classify_flow_density, select_k

MODES = (4.5, 6.5, 8.3, 10.5)  # km/h, one per congestion level
DEMO_QUERIES = [(30.0, 3.0), (42.0, 7.0), (20.0, 4.0), (33.0, 4.0)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed of the synthetic speeds")
    parser.add_argument("--samples-per-mode", type=int, default=200)
    parser.add_argument("--out", help="write the trained bands as a model document")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    speeds = np.concatenate(
        [rng.normal(c, 0.3, args.samples_per_mode) for c in MODES]
    )
    print(f"{speeds.size} synthetic speed observations, modes at {MODES} km/h\n")

    selection = select_k(speeds, K_RANGE)
    print("K   mean silhouette")
    for k in sorted(selection.silhouette_by_k):
        marker = "  <- selected" if k == selection.best_k else ""
        print(f"{k}   {selection.silhouette_by_k[k]:.4f}{marker}")
    if selection.best_k != 4:
        raise SystemExit(f"expected K=4 for four-level bands, got {selection.best_k}")

    bands = bands_from_clusters(selection.model)
    print(f"\ncluster centers: {', '.join(f'{c:.3f}' for c in selection.model.centers)} km/h")
    print(f"band boundaries: {', '.join(f'{b:.3f}' for b in bands.boundaries)} km/h\n")

    print(f"{'flow':>6} {'density':>8} {'speed':>7}  state / color")
    for flow, density in DEMO_QUERIES:
        speed, state = classify_flow_density(bands, flow, density)
        print(f"{flow:6.1f} {density:8.1f} {speed:7.3f}  {state.value} / {state.color}")

    if args.out:
        doc = ModelDocument(
            bands=bands, created_utc=datetime.now(timezone.utc).isoformat()
        )
        save_model(doc, args.out)
        print(f"\nsaved bands to {args.out}")


if __name__ == "__main__":
    main()
