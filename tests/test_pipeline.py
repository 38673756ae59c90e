"""The chain from GNSS tracks to a served traffic state, on a generated fleet.

Each run's leader holds four speed plateaus; every follower moves each second
at v = 2 ln(gap) - 1.5 (km/h over m), so the speed-gap law, the fundamental
diagram, the four speed clusters and the served bands all come from tracks.
"""

import csv
import http.client
import json
import math
import threading

import pytest

from fairway import cli
from fairway.io_store import load_model
from fairway.service import make_server

PLATEAUS_KMH = (4.5, 6.5, 8.3, 10.5)
# Seconds each plateau lasts.  A follower's speed relaxes towards its leader's
# with time constant 1.8 * gap s (~36 s at 4.5 km/h, ~730 s at 10.5 km/h), so
# the faster plateaus last longer for the fleet to settle on them.
PLATEAU_S = (300, 400, 800, 2400)
LENGTH_M, LOCATOR_OFFSET_M = 85.0, 10.0
HEADING = math.radians(30.0)  # the one course every vessel keeps
A, B = 2.0, -1.5  # the followers' speed-gap law v = A ln(gap) + B


def fleet_rows(runs: int, vessels: int) -> tuple[list, list]:
    """(track rows, meta rows) of ``runs`` fleets of ``vessels``, one fix a second.

    Each vessel's distance along the course, s, starts at the first plateau's
    equilibrium gap behind its leader.  The leader then steps through the
    plateaus; each follower moves at A ln(gap) + B of its bow-to-stern gap,
    which with equal locator offsets is s_leader - s_follower - LENGTH_M.
    Positions are written to the millimetre.
    """
    leader_kmh = [v for v, seconds in zip(PLATEAUS_KMH, PLATEAU_S) for _ in range(seconds)]
    gap0 = math.exp((PLATEAUS_KMH[0] - B) / A)
    tracks, meta = [], []
    for run in range(runs):
        run_id = f"run{run + 1}"
        s = [-p * (gap0 + LENGTH_M) for p in range(vessels)]
        for t, v_lead in enumerate(leader_kmh + [leader_kmh[-1]]):
            for p, distance in enumerate(s, start=1):
                tracks.append((run_id, p, t, round(distance * math.cos(HEADING), 3),
                               round(distance * math.sin(HEADING), 3)))
            speeds = [v_lead] + [A * math.log(ahead - behind - LENGTH_M) + B
                                 for ahead, behind in zip(s, s[1:])]
            s = [distance + v / 3.6 for distance, v in zip(s, speeds)]
        meta += [(run_id, p, LENGTH_M, LOCATOR_OFFSET_M, "loaded") for p in range(1, vessels + 1)]
    return tracks, meta


def write_csv(path, header, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def gap_speed_join(derived) -> list[tuple[float, float]]:
    """(gap_m, speed_kmh) pairs: gaps.csv without its overlap_flagged 1 rows, each
    matched with its follower's speeds.csv row on run, position and t_seconds."""
    speeds = {(r["run_id"], r["fleet_position"], r["t_seconds"]): r["speed_kmh"]
              for r in read_csv(derived / "speeds.csv")}
    return [(float(r["gap_m"]), float(speed))
            for r in read_csv(derived / "gaps.csv") if r["overlap_flagged"] == "0"
            if (speed := speeds.get((r["run_id"], r["follower_position"], r["t_seconds"])))]


def test_tracks_to_served_state(tmp_path, capsys):
    tracks, meta = fleet_rows(runs=2, vessels=4)
    derived = tmp_path / "derived"
    assert cli.main([
        "tracks", "derive", "--out-dir", str(derived),
        "--tracks", write_csv(tmp_path / "tracks.csv",
                              ["run_id", "fleet_position", "t_seconds", "x_m", "y_m"], tracks),
        "--meta", write_csv(tmp_path / "meta.csv", ["run_id", "fleet_position", "length_m",
                                                    "locator_offset_m", "load_state"], meta),
    ]) == cli.EXIT_OK

    assert cli.main(["fit", "fd", "--form", "greenshields",
                     "--input", str(derived / "flow_samples.csv")]) == cli.EXIT_OK

    bands = tmp_path / "bands.json"
    assert cli.main(["states", "train", "--speeds", str(derived / "speeds.csv"),
                     "--out", str(bands)]) == cli.EXIT_OK
    # The sweep's lines are the printed lines that start with a digit: "K  silhouette[ *]".
    sweep = {int(k): float(score) for k, score, *_ in map(
        str.split, filter(lambda line: line[:1].isdigit(), capsys.readouterr().out.splitlines()))}
    runner_up = max(score for k, score in sweep.items() if k != 4)
    assert sweep[4] > runner_up + 0.02, sweep  # K = 4 wins clearly

    server = make_server(load_model(bands), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection(*server.server_address, timeout=5)
        conn.request("GET", "/state?flow=42&density=7")
        assert conn.getresponse().status == 200
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()

    joined = write_csv(tmp_path / "gaps_speeds.csv", ["gap_m", "speed_kmh"],
                       gap_speed_join(derived))
    ranking = tmp_path / "ranking.json"
    assert cli.main(["fit", "speed-gap", "--raw", "--input", joined,
                     "--out", str(ranking)]) == cli.EXIT_OK
    best = json.loads(ranking.read_text(encoding="utf-8"))["families"][0]
    assert best["family"] == "logarithmic"
    # Positions to the millimetre move the recovered law by about 1e-6.
    assert (best["a"], best["b"]) == (pytest.approx(A, abs=1e-4), pytest.approx(B, abs=1e-4))
