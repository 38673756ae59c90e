import contextlib
import csv
import http.client
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from fairway import cli
from fairway.errors import FairwayError
from fairway.fundamental_diagram import ALL_FORMS, FdModel, speed_at_density
from fairway.io_store import (
    ModelDocument,
    document_to_dict,
    load_model,
    save_model,
    serialize_document,
)
from fairway.service import make_server
from fairway.traffic_state import StateBands

from reference_data import STATE_BOUNDARIES, V_MIN
from reference_tracks import reference_meta, reference_tracks_derive

GREENSHIELDS = FdModel(form="greenshields", c1=0.7634, c2=11.817)
SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """This environment with the checkout's src first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def density_speed_csv(tmp_path, model, ks):
    rows = [(k, speed_at_density(model, k)) for k in ks]
    return write_csv(tmp_path / "kv.csv", ["density_vpkm", "speed_kmh"], rows)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_option(self, capsys):
        assert cli.main(["fit", "fd", "--form", "greenshields"]) == cli.EXIT_USAGE
        assert "--input" in capsys.readouterr().err

    def test_only_serve_imports_the_http_server(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, fairway.cli; print('http.server' in sys.modules)"],
            capture_output=True, text=True, env=src_env(), timeout=20, check=True)
        assert result.stdout.strip() == "False"

    def test_bare_group_command(self, capsys):
        assert cli.main(["fit"]) == cli.EXIT_USAGE


class TestFitFd:
    def test_reproduces_published_characteristics(self, tmp_path, capsys):
        ks = [k / 2 for k in range(1, 23)]
        path = density_speed_csv(tmp_path, GREENSHIELDS, ks)
        out = tmp_path / "model.json"
        code = cli.main(["fit", "fd", "--form", "greenshields", "--input", path,
                         "--raw", "--out", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "c1 0.763" in text and "c2 11.817" in text
        assert "v_m 5.90" in text and "q_m 45.730" in text

        doc = load_model(out)
        assert doc.fd.form == "greenshields"
        assert doc.v_min == V_MIN
        assert doc.characteristics.k_max == pytest.approx(12.008, rel=5e-3)

    def test_piecewise_uses_config_defaults(self, tmp_path, capsys):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        ks = [k / 2 for k in range(1, 31)]
        path = density_speed_csv(tmp_path, model, ks)
        code = cli.main(["fit", "fd", "--form", "piecewise_exp", "--input", path,
                         "--raw", "--v-f", "10.5"])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "k1 4.000" in text
        assert "v_m 5.011" in text

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["fit", "fd", "--form", "greenshields",
                         "--input", str(tmp_path / "absent.csv")])
        assert code == cli.EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_knob": 1}')
        path = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4])
        code = cli.main(["--config", str(cfg), "fit", "fd",
                         "--form", "greenshields", "--input", path, "--raw"])
        assert code == cli.EXIT_DATA
        assert "no_such_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("k1", "NaN"), ("v_min", '"2"'), ("v_f", "Infinity"), ("k_range_max", "9.5"),
        ("kmeans_seed", "0"), ("kmeans_max_iter", "300"), ("kmeans_tol", "1e-6"),
    ])
    def test_invalid_config_exits_with_data_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        path = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4])
        code = cli.main(["--config", str(cfg), "fit", "fd",
                         "--form", "greenshields", "--input", path, "--raw"])
        assert code == cli.EXIT_DATA
        assert key in capsys.readouterr().err


    def test_out_is_the_canonical_document(self, tmp_path, capsys):
        path = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4])
        out = tmp_path / "model.json"
        assert cli.main(["fit", "fd", "--form", "greenshields", "--input", path,
                         "--raw", "--out", str(out)]) == cli.EXIT_OK
        assert out.read_text() == serialize_document(load_model(out))

    @pytest.mark.parametrize("option, value, name", [
        ("--v-min", "nan", "v_min"), ("--v-min", "inf", "v_min"),
        ("--v-f", "nan", "v_f"), ("--v-f", "inf", "v_f"),
    ])
    def test_non_finite_option_exits_with_data_error(self, tmp_path, capsys,
                                                     option, value, name):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        path = density_speed_csv(tmp_path, model, [k / 2 for k in range(1, 31)])
        code = cli.main(["fit", "fd", "--form", "piecewise_exp", "--input", path,
                         "--raw", "--v-f", "10.5", option, value])
        assert code == cli.EXIT_DATA
        assert name in capsys.readouterr().err


    def test_density_past_the_bin_range_exits_with_data_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "kv.csv", ["density_vpkm", "speed_kmh"],
                         [(1, 10), (2, 9), (1e308, 8), (3, 7)])
        code = cli.main(["fit", "fd", "--form", "greenshields", "--input", path])
        assert code == cli.EXIT_DATA
        assert "finite points and bin indices x / 0.2" in capsys.readouterr().err

    def test_log_shape_overflow_exits_with_data_error(self, tmp_path, capsys):
        # A near-flat greenberg fit: k_max = exp((c2 - v_min) / c1) overflows.
        path = write_csv(tmp_path / "kv.csv", ["density_vpkm", "speed_kmh"],
                         [(1, 1000), (2, 999.99), (3, 999.985), (4, 999.98)])
        code = cli.main(["fit", "fd", "--form", "greenberg", "--input", path, "--raw"])
        assert code == cli.EXIT_DATA
        assert "overflows" in capsys.readouterr().err


class TestFitSpeedGap:
    def test_generator_family_ranks_first(self, tmp_path, capsys):
        rows = [(g, 1.3382 * np.log(g) + 0.4536) for g in range(20, 301, 20)]
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
        assert cli.main(["fit", "speed-gap", "--input", path, "--raw"]) == cli.EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[1].split()[0] == "logarithmic"

    def test_binned_by_default(self, tmp_path, capsys):
        # two points per 5 m bin; binning averages them first
        rows = [(g + d, 5.0 + 0.01 * g) for g in range(20, 200, 5) for d in (1, 3)]
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
        out = tmp_path / "fits.json"
        assert cli.main(["fit", "speed-gap", "--input", path,
                         "--out", str(out)]) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["families"][0]["n_points"] == 36


    def test_gap_near_the_float_limit_excludes_the_x_linear_families(self, tmp_path, caplog):
        rows = [(20, 5), (40, 6), (1.7e308, 7), (60, 7.5)]
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
        out = tmp_path / "fits.json"
        assert cli.main(["fit", "speed-gap", "--input", path, "--raw",
                         "--out", str(out)]) == cli.EXIT_OK
        families = [f["family"] for f in json.loads(out.read_text())["families"]]
        assert sorted(families) == ["logarithmic", "power"]
        assert "family linear excluded" in caplog.text
        assert "family exponential excluded" in caplog.text

    def test_every_family_excluded_exits_with_data_error(self, tmp_path, capsys):
        rows = [(20, 1e308), (40, -1e308), (60, 1e308)]
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
        out = tmp_path / "fits.json"
        assert cli.main(["fit", "speed-gap", "--input", path, "--raw",
                         "--out", str(out)]) == cli.EXIT_DATA
        assert "every curve family was excluded" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [[], ["--raw"]])
    def test_non_finite_gap_exits_with_data_error(self, tmp_path, capsys, raw):
        rows = [(20.0, 5.0), ("nan", 6.0), (60.0, 7.0)]
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
        assert cli.main(["fit", "speed-gap", "--input", path, *raw]) == cli.EXIT_DATA
        assert "gv.csv:3:gap_m" in capsys.readouterr().err


class TestStatsAndScalars:
    def test_stats_summary(self, tmp_path, capsys):
        path = write_csv(tmp_path / "v.csv", ["speed_kmh"],
                         [(v,) for v in range(1, 11)])
        assert cli.main(["stats", "summary", "--input", path,
                         "--column", "speed_kmh"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "5.500" in out  # median and mean of 1..10

    def test_stats_missing_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "v.csv", ["other"], [(1,)])
        assert cli.main(["stats", "summary", "--input", path,
                         "--column", "speed_kmh"]) == cli.EXIT_DATA

    def test_stats_non_finite_cell(self, tmp_path, capsys):
        path = write_csv(tmp_path / "v.csv", ["speed_kmh"], [(1.0,), ("nan",), (3.0,)])
        assert cli.main(["stats", "summary", "--input", path,
                         "--column", "speed_kmh"]) == cli.EXIT_DATA
        assert "v.csv:3:speed_kmh" in capsys.readouterr().err

    def test_stats_out_of_range_result_exits_with_data_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "v.csv", ["speed_kmh"], [(1e308,), (-1e308,)])
        out = tmp_path / "stats.json"
        code = cli.main(["stats", "summary", "--input", path, "--column", "speed_kmh",
                         "--out", str(out)])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert "must be finite, got SummaryStats" in captured.err and not captured.out
        assert not out.exists()

    def test_economic_speed(self, tmp_path, capsys):
        loaded = write_csv(tmp_path / "l.csv", ["speed_kmh"], [(5,), (6,), (7,)])
        empty = write_csv(tmp_path / "e.csv", ["speed_kmh"], [(9,), (10,), (11,)])
        assert cli.main(["economic-speed", "--loaded", loaded,
                         "--empty", empty]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "loaded median 6.000" in out
        assert "combined v_f 8.000" in out

    @pytest.mark.parametrize("argv", [
        ["stats", "summary", "--input", "{big}", "--column", "speed_kmh"],
        ["economic-speed", "--loaded", "{big}", "--empty", "{big}"],
        ["minimums", "--speeds", "{signed}", "--gaps", "{small}"],
    ])
    def test_result_past_the_float_range_exits_with_data_error(self, tmp_path, capsys, argv):
        files = {"big": [1e308, 1.5e308, 1.7e308], "signed": [1e308, -1e308, 1.5e308],
                 "small": [10.0, 20.0]}
        paths = {name: write_csv(tmp_path / f"{name}.csv", ["speed_kmh", "gap_m"],
                                 [(v, v) for v in values]) for name, values in files.items()}
        out = tmp_path / "result.json"
        code = cli.main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and not captured.out
        assert not out.exists()

    def test_minimums(self, tmp_path, capsys):
        speeds = write_csv(tmp_path / "v.csv", ["speed_kmh"],
                           [(v,) for v in np.linspace(2, 12, 101)])
        gaps = write_csv(tmp_path / "g.csv", ["gap_m"],
                         [(g,) for g in np.linspace(10, 110, 101)])
        assert cli.main(["minimums", "--speeds", speeds, "--gaps", gaps,
                         "--tail", "0.05"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "v_min 2.500" in out
        assert "g_min 15.000" in out


class TestStates:
    def blob_speeds_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        speeds = np.concatenate(
            [rng.normal(c, 0.25, 150) for c in (4.5, 6.5, 8.3, 10.5)]
        )
        return write_csv(tmp_path / "speeds.csv", ["speed_kmh"],
                         [(v,) for v in speeds])

    def test_train_then_classify(self, tmp_path, capsys):
        speeds = self.blob_speeds_csv(tmp_path)
        out = tmp_path / "bands.json"
        assert cli.main(["states", "train", "--speeds", speeds,
                         "--out", str(out)]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "4" in text and "boundaries" in text
        doc = load_model(out)
        assert doc.bands is not None
        assert doc.bands.boundaries == pytest.approx((5.5, 7.4, 9.4), abs=0.15)

        assert cli.main(["states", "classify", "--flow", "30", "--density", "3",
                         "--model", str(out)]) == cli.EXIT_OK
        assert "smooth / green" in capsys.readouterr().out

    def test_train_on_speeds_near_the_float_limit(self, tmp_path, capsys):
        speeds = np.random.default_rng(3).uniform(1e307, 1.75e308, 11)
        path = write_csv(tmp_path / "speeds.csv", ["speed_kmh"], [(v,) for v in speeds])
        code = cli.main(["states", "train", "--speeds", path])
        assert code == cli.EXIT_DATA
        assert "silhouette selected K=3" in capsys.readouterr().err

    def test_train_has_no_seed_option(self, tmp_path, capsys):
        speeds = self.blob_speeds_csv(tmp_path)
        assert cli.main(["states", "train", "--speeds", speeds,
                         "--seed", "3"]) == cli.EXIT_USAGE

    def test_classify_congested(self, tmp_path, capsys):
        doc = ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES))
        path = tmp_path / "bands.json"
        save_model(doc, path)
        assert cli.main(["states", "classify", "--flow", "42", "--density", "7",
                         "--model", str(path)]) == cli.EXIT_OK
        assert "congested / red" in capsys.readouterr().out

    def test_classify_rejects_bands_free_document(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(ModelDocument(fd=GREENSHIELDS), path)
        assert cli.main(["states", "classify", "--flow", "30", "--density", "3",
                         "--model", str(path)]) == cli.EXIT_DATA


    @pytest.mark.parametrize("v_min", [float("nan"), float("inf"), 0.0])
    def test_classify_rejects_document_with_bad_v_min(self, tmp_path, capsys, v_min):
        raw = document_to_dict(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)))
        raw["v_min"] = v_min
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["states", "classify", "--flow", "30", "--density", "3",
                         "--model", str(path)]) == cli.EXIT_DATA
        assert "v_min" in capsys.readouterr().err

    @pytest.mark.parametrize("boundaries", [[5.0, 7.0, float("inf")], [0.0, 7.0, 9.0]])
    def test_classify_rejects_document_with_bad_bands(self, tmp_path, capsys, boundaries):
        raw = document_to_dict(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)))
        raw["bands"]["boundaries"] = boundaries
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["states", "classify", "--flow", "30", "--density", "3",
                         "--model", str(path)]) == cli.EXIT_DATA
        assert "boundaries" in capsys.readouterr().err


class TestEmitCurve:
    def test_round_trip_from_saved_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(ModelDocument(fd=GREENSHIELDS), model_path)
        out = tmp_path / "curve.csv"
        code = cli.main(["emit", "curve", "--model", str(model_path),
                         "--k-min", "1", "--k-max", "10", "--step", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "wrote 10 rows" in capsys.readouterr().out
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["v"]) == pytest.approx(11.817 - 0.7634)

    def test_non_finite_model_field_exits_with_data_error(self, tmp_path, capsys):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        raw = document_to_dict(ModelDocument(fd=model))
        raw["model"]["v_f"] = float("nan")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(raw))
        out = tmp_path / "curve.csv"
        code = cli.main(["emit", "curve", "--model", str(model_path),
                         "--k-min", "1", "--k-max", "10", "--step", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert "v_f" in capsys.readouterr().err
        assert not out.exists()

    def test_step_past_the_row_limit_exits_with_data_error(self, tmp_path):
        # A subprocess with a timeout: without the limit, a step of 1e-300 never stops writing.
        model_path = tmp_path / "model.json"
        save_model(ModelDocument(fd=GREENSHIELDS), model_path)
        out = tmp_path / "curve.csv"
        result = subprocess.run(
            [sys.executable, "-m", "fairway.cli", "emit", "curve", "--model", str(model_path),
             "--k-min", "0.5", "--k-max", "12", "--step", "1e-300", "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=20,
        )
        assert result.returncode == cli.EXIT_DATA, result.stderr
        assert "rows" in result.stderr
        assert not out.exists()

    def test_grid_past_the_float_range_exits_with_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(ModelDocument(fd=GREENSHIELDS), model_path)
        out = tmp_path / "curve.csv"
        code = cli.main(["emit", "curve", "--model", str(model_path), "--k-min", "0.5",
                         "--k-max", "1e308", "--step", "1e308", "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k_max, step", [("inf", "1"), ("10", "nan"), ("10", "inf")])
    def test_non_finite_range_exits_with_data_error(self, tmp_path, k_max, step):
        # A subprocess with a timeout: an unchecked infinite range never stops writing.
        model_path = tmp_path / "model.json"
        save_model(ModelDocument(fd=GREENSHIELDS), model_path)
        out = tmp_path / "curve.csv"
        result = subprocess.run(
            [sys.executable, "-m", "fairway.cli", "emit", "curve",
             "--model", str(model_path), "--k-min", "1", "--k-max", k_max,
             "--step", step, "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=20,
        )
        assert result.returncode == cli.EXIT_DATA, result.stderr
        assert "finite" in result.stderr
        assert not out.exists()


class TestTracksDerive:
    def test_derives_all_three_outputs(self, tmp_path, capsys):
        meta = write_csv(tmp_path / "meta.csv",
                         ["run_id", "fleet_position", "length_m",
                          "locator_offset_m", "load_state"],
                         [("r1", 1, 85.0, 12.0, "loaded"),
                          ("r1", 2, 90.0, 10.0, "loaded")])
        rows = []
        for t in range(5):
            rows.append(("r1", 1, t, 200.0 + 2.5 * t, 0.0))
            rows.append(("r1", 2, t, 50.0 + 2.5 * t, 0.0))
        tracks = write_csv(tmp_path / "tracks.csv",
                           ["run_id", "fleet_position", "t_seconds", "x_m", "y_m"],
                           rows)
        out_dir = tmp_path / "derived"
        code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        assert "runs 1" in capsys.readouterr().out
        with open(out_dir / "speeds.csv", newline="") as handle:
            speeds = list(csv.DictReader(handle))
        assert len(speeds) == 8  # 2 vessels x 4 steps
        assert float(speeds[0]["speed_kmh"]) == pytest.approx(9.0)
        with open(out_dir / "gaps.csv", newline="") as handle:
            gaps = list(csv.DictReader(handle))
        assert len(gaps) == 5
        # 150 m locator spacing + 12 - 10 - 85 leader length
        assert float(gaps[0]["gap_m"]) == pytest.approx(67.0)
        with open(out_dir / "flow_samples.csv", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 4

    def test_stationary_second_is_skipped(self, tmp_path, capsys):
        # The lead vessel holds its position from t=2 to t=3.
        lead_x = [200.0, 202.5, 205.0, 205.0, 207.5]
        rows = [row for t in range(5) for row in (
            ("r1", 1, t, lead_x[t], 0.0), ("r1", 2, t, 50.0 + 2.5 * t, 0.0))]
        tracks, meta = convoy_files(tmp_path, rows)
        out_dir = tmp_path / "derived"
        code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        assert "stationary timestamps skipped 1" in capsys.readouterr().out
        with open(out_dir / "speeds.csv", newline="") as handle:
            speeds = [r for r in csv.DictReader(handle) if r["fleet_position"] == "1"]
        assert [float(r["speed_kmh"]) for r in speeds][2] == 0.0
        with open(out_dir / "flow_samples.csv", newline="") as handle:
            assert [r["t_seconds"] for r in csv.DictReader(handle)] == ["0", "1", "3"]

    @pytest.mark.parametrize("delta_t", ["nan", "inf", "2"])
    def test_bad_delta_t_exits_with_a_short_error(self, tmp_path, delta_t):
        rows = [row for t in range(3600) for row in (
            ("r1", 1, t, 200.0 + 2.5 * t, 0.0), ("r1", 2, t, 50.0 + 2.5 * t, 0.0))]
        tracks, meta = convoy_files(tmp_path, rows)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                             "--out-dir", str(tmp_path / "derived"), "--delta-t", delta_t])
        assert code == cli.EXIT_DATA
        assert 0 < len(err.getvalue()) < 1024

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_fix_reference_byte_for_byte(self, data):
        """Any run ids, holes, stationary seconds and row order: the same three files."""
        run_ids = data.draw(st.lists(st.sampled_from(["r1", "9", "10", "b,x", 'q"1', "p%s"]),
                                     min_size=1, max_size=2, unique=True))
        rows, meta_rows = [], []
        for run_id in run_ids:
            for pos in range(1, data.draw(st.integers(1, 3)) + 1):
                meta_rows.append((run_id, pos, data.draw(st.floats(20, 120)),
                                  data.draw(st.floats(0, 20)), "loaded"))
                start = data.draw(st.integers(0, 2))
                x = 1000.0 - 150.0 * pos
                for t in range(start, start + data.draw(st.integers(2, 6))):
                    rows.append((run_id, pos, t, x, data.draw(st.floats(-5, 5))))
                    x += data.draw(st.sampled_from([0.0, 1.0, 2.5, 3.7]))
        rows = data.draw(st.permutations(rows))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            tracks, meta = convoy_files(tmp, rows, meta_rows)
            (tmp / "want").mkdir()
            try:
                reference_tracks_derive(tracks, reference_meta(meta_rows), tmp / "want")
                want = cli.EXIT_OK
            except FairwayError:
                want = cli.EXIT_DATA
            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                                 "--out-dir", str(tmp / "got")])
            assert code == want
            if want == cli.EXIT_OK:
                for name in ("speeds.csv", "gaps.csv", "flow_samples.csv"):
                    assert (tmp / "got" / name).read_bytes() == (tmp / "want" / name).read_bytes()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_numeric_text_in_any_cell_exits_0_or_2(self, data):
        """No traceback, no warning, and every number written is finite."""
        rows = [["r1", str(pos), str(t), repr(200.0 - 150 * pos + 2.5 * t), "0.0"]
                for t in range(4) for pos in (1, 2)]
        meta_rows = [["r1", "1", "85.0", "12.0", "loaded"], ["r1", "2", "90.0", "10.0", "loaded"]]
        # Coordinates, lengths and offsets often get finite but extreme text, so
        # that some runs succeed; any cell now and then gets any numeric text.
        for table, finite_cells in ((rows, (3, 4)), (meta_rows, (2, 3))):
            for row in table:
                for i in range(len(row)):
                    if i in finite_cells and data.draw(st.integers(0, 7)) == 0:
                        row[i] = data.draw(FINITE_TEXT)
                    elif data.draw(st.integers(0, 60)) == 0:
                        row[i] = data.draw(NUMERIC_TEXT)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            tracks, meta = convoy_files(tmp, rows, meta_rows)
            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                                 "--out-dir", str(tmp / "out")])
            assert code in (cli.EXIT_OK, cli.EXIT_DATA)
            if code == cli.EXIT_OK:
                for name, numeric in (("speeds.csv", 3), ("gaps.csv", 4), ("flow_samples.csv", 4)):
                    with open(tmp / "out" / name, newline="") as handle:
                        for row in list(csv.reader(handle))[1:]:
                            assert all(math.isfinite(float(c)) for c in row[-numeric:]), row


FINITE_TEXT = st.one_of(
    st.sampled_from(["-0", "0", "1e308", "-1e308", "5e-324", "2.2250738585072014e-308",
                     "1_0", " 7 ", "1e-320"]),
    st.floats(0, 1e6).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
NUMERIC_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "-0", "0", "1e308", "-1e308",
                     "5e-324", "2.2250738585072014e-308", "", "1_0", " 7 ", "1e-320", "3"]),
    st.floats().map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
)


SPEED_BLOBS = [4.4, 4.5, 4.6, 6.4, 6.5, 6.6, 8.2, 8.3, 8.4, 10.4, 10.5, 10.6]

# Per command: argv, CSV inputs {name: (header, rows)}, numeric options
# {flag: (type, default when required, else None)} and on/off flags.
FUZZ_COMMANDS = {
    "fit speed-gap": (
        ["fit", "speed-gap", "--input", "{a}"],
        {"a": (["gap_m", "speed_kmh"],
               [(g, 1.3 * math.log(g) + 0.5) for g in (20, 40, 60, 80, 100, 120)])},
        {"--min-count": (int, None)}, ["--raw"]),
    "fit fd": (
        ["fit", "fd", "--input", "{a}"],
        {"a": (["density_vpkm", "speed_kmh"],
               [(k, 11.8 - 0.76 * k) for k in (0.5, 1, 2, 3, 5, 6, 8, 10)])},
        {"--v-f": (float, None), "--k1": (float, None), "--v-min": (float, None)}, ["--raw"]),
    "stats summary": (
        ["stats", "summary", "--input", "{a}", "--column", "speed_kmh"],
        {"a": (["speed_kmh"], [(v,) for v in SPEED_BLOBS[:5]])}, {}, []),
    "economic-speed": (
        ["economic-speed", "--loaded", "{a}", "--empty", "{b}"],
        {"a": (["speed_kmh"], [(5,), (6,), (7,)]), "b": (["speed_kmh"], [(9,), (10,)])}, {}, []),
    "minimums": (
        ["minimums", "--speeds", "{a}", "--gaps", "{b}"],
        {"a": (["speed_kmh"], [(v,) for v in SPEED_BLOBS[:6]]),
         "b": (["gap_m"], [(g,) for g in (10, 20, 40, 80)])},
        {"--tail": (float, None)}, []),
    "states train": (
        ["states", "train", "--speeds", "{a}"],
        {"a": (["speed_kmh"], [(v,) for v in SPEED_BLOBS])}, {}, []),
    "states classify": (
        ["states", "classify", "--model", "{bands}"], {},
        {"--flow": (float, "30"), "--density": (float, "3")}, []),
    "emit curve": (
        ["emit", "curve", "--model", "{fd}"], {},
        {"--k-min": (float, "0.5"), "--k-max": (float, "12"), "--step": (float, "0.5")}, []),
}


def _parses(kind, text) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


class TestNumericTextFuzz:
    """Numeric text in every cell and numeric option: exit 0 or 2, never a
    traceback or a warning, strict JSON in every --out, and every number
    printed or written finite."""

    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exits_0_or_2_with_finite_output(self, command, data):
        argv, inputs, options, flags = FUZZ_COMMANDS[command]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = {"bands": tmp / "bands.json", "fd": tmp / "fd.json"}
            save_model(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)),
                       paths["bands"])
            save_model(ModelDocument(fd=data.draw(st.sampled_from([
                GREENSHIELDS, FdModel("greenberg", 2.502, 11.227),
                FdModel("piecewise_exp", 13.62, 0.115, v_f=10.5, k1=4.0)]))), paths["fd"])
            for name, (header, rows) in inputs.items():
                cells = [[data.draw(NUMERIC_TEXT) if data.draw(st.integers(0, 5)) == 0
                          else repr(float(c)) for c in row] for row in rows]
                paths[name] = write_csv(tmp / f"{name}.csv", header, cells)
            args = [arg.format(**paths) for arg in argv]
            if command == "fit fd":
                args.append(f"--form={data.draw(st.sampled_from(ALL_FORMS))}")
            parses = True
            for flag, (kind, default) in options.items():
                text = data.draw(st.one_of(FINITE_TEXT, NUMERIC_TEXT)) \
                    if data.draw(st.booleans()) else default
                if text is not None:
                    args.append(f"{flag}={text}")  # "=" keeps "-inf" a value
                    parses = parses and _parses(kind, text)
            args += [flag for flag in flags if data.draw(st.booleans())]
            out = tmp / ("curve.csv" if command == "emit curve" else "out.json")
            args += ["--out", str(out)]

            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                 contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(args)

            if not parses:
                assert code == cli.EXIT_USAGE
                return
            assert code in (cli.EXIT_OK, cli.EXIT_DATA)
            printed = [float(t) for t in stdout.getvalue().replace(str(tmp), "").split()
                       if _parses(float, t)]
            assert all(math.isfinite(x) for x in printed), stdout.getvalue()
            if code == cli.EXIT_OK and command == "emit curve":
                with open(out, newline="") as handle:
                    assert all(math.isfinite(float(c))
                               for row in list(csv.reader(handle))[1:] for c in row)
            elif code == cli.EXIT_OK:
                _strict_json(out.read_text())
            else:
                assert not out.exists()


def convoy_files(tmp_path, rows, meta_rows=(("r1", 1, 85.0, 12.0, "loaded"),
                                            ("r1", 2, 90.0, 10.0, "loaded"))):
    meta = write_csv(tmp_path / "meta.csv",
                     ["run_id", "fleet_position", "length_m", "locator_offset_m", "load_state"],
                     meta_rows)
    tracks = write_csv(tmp_path / "tracks.csv",
                       ["run_id", "fleet_position", "t_seconds", "x_m", "y_m"], rows)
    return tracks, meta


@pytest.fixture(scope="module")
def server_url():
    doc = ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES),
                        created_utc="2021-06-01T00:00:00+00:00")
    server = make_server(doc, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}", doc
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestService:
    def test_health(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/health", timeout=5)
        assert resp.status_code == 200
        assert resp.json() == {"status": "ok"}

    def test_model_echo(self, server_url):
        url, doc = server_url
        resp = requests.get(f"{url}/model", timeout=5)
        assert resp.status_code == 200
        assert resp.json() == document_to_dict(doc)

    def test_state_congested(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": 42, "density": 7},
                            timeout=5)
        assert resp.status_code == 200
        assert resp.json() == {"speed_kmh": 6.0, "state": "congested",
                               "color": "red"}

    def test_state_smooth(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": 30, "density": 3},
                            timeout=5)
        assert resp.json()["color"] == "green"

    def test_missing_parameter(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": 30}, timeout=5)
        assert resp.status_code == 400
        assert "density" in resp.json()["error"]

    def test_unparseable_parameter(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/state",
                            params={"flow": "many", "density": 3}, timeout=5)
        assert resp.status_code == 400

    def test_non_positive_density(self, server_url):
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": 30, "density": 0},
                            timeout=5)
        assert resp.status_code == 422

    @pytest.mark.parametrize("flow, density", [
        ("nan", "4"), ("inf", "4"), ("1e308", "1e-308"),
    ])
    def test_non_finite_rejected(self, server_url, flow, density):
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": flow, "density": density},
                            timeout=5)
        assert resp.status_code == 422
        body = json.loads(resp.text, parse_constant=lambda name: pytest.fail(name))
        assert "error" in body

    @given(flow=st.one_of(NUMERIC_TEXT, FINITE_TEXT),
           density=st.one_of(NUMERIC_TEXT, FINITE_TEXT))
    @settings(max_examples=150, deadline=None)
    def test_numeric_text_in_query(self, server_url, flow, density):
        """200 exactly when flow/density is a positive finite speed, else 400 or 422."""
        url, _ = server_url
        resp = requests.get(f"{url}/state", params={"flow": flow, "density": density},
                            timeout=5)
        body = json.loads(resp.text, parse_constant=lambda name: pytest.fail(name))
        try:
            f, k = float(flow), float(density)
        except ValueError:
            assert resp.status_code == 400
            return
        if 0 <= f < math.inf and 0 < k < math.inf and 0 < f / k < math.inf:
            assert resp.status_code == 200
            assert body["speed_kmh"] == f / k
        else:
            assert resp.status_code == 422

    def test_keep_alive_answers_do_not_stall(self, server_url):
        """50 answers on one connection; the Nagle/delayed-ACK stall cost ~40 ms each."""
        url, _ = server_url
        parts = urlsplit(url)
        queries = [
            ("flow=42&density=7", {"speed_kmh": 6.0, "state": "congested", "color": "red"}),
            ("flow=30&density=3", {"speed_kmh": 10.0, "state": "smooth", "color": "green"}),
        ]
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
        try:
            start = time.perf_counter()
            for i in range(50):
                query, want = queries[i % 2]
                conn.request("GET", f"/state?{query}")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read()) == want
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 1.0

    def test_unknown_path(self, server_url):
        url, _ = server_url
        assert requests.get(f"{url}/nothing", timeout=5).status_code == 404

    def test_requires_bands(self):
        from fairway.errors import DomainError
        with pytest.raises(DomainError):
            make_server(ModelDocument(fd=GREENSHIELDS), 0)

    def test_model_body_must_be_strict_json(self):
        from fairway.errors import DomainError
        bands = StateBands(boundaries=STATE_BOUNDARIES)
        # StateBands refuses (5, 7, inf) itself; bypass it to reach make_server's check.
        object.__setattr__(bands, "boundaries", (5.0, 7.0, float("inf")))
        with pytest.raises(DomainError, match="strict JSON"):
            make_server(ModelDocument(bands=bands), 0)
