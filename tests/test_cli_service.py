import contextlib
import csv
import email.utils
import http.client
import io
import json
import math
import os
import re
import socket
import struct
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

from fairway import cli, service
from fairway.errors import FairwayError
from fairway.fundamental_diagram import ALL_FORMS, FdModel, derive_characteristics, speed_at_density
from fairway.io_store import (
    ModelDocument,
    document_to_dict,
    load_model,
    save_model,
    serialize_document,
)
from fairway.regression import FitReport
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

    @pytest.mark.parametrize("argv", [
        [],
        ["states"],
        ["frobnicate"],
        ["fit", "fd", "--form", "greenshields"],
        ["fit", "fd", "--form", "quadratic", "--input", "kv.csv"],
        ["states", "classify", "--flow", "many", "--density", "7", "--model", "m.json"],
        ["minimums", "--speeds", "v.csv", "--gaps", "g.csv", "--tail"],
    ])
    def test_usage_error_prints_argparse_lines_to_stderr_only(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: fairway") and "error: " in captured.err
        assert captured.out == ""

    def test_only_serve_imports_the_http_server(self):
        """The CLI loads no server code; the service loads neither http.server nor the
        email parser that http.server runs on every request's headers."""
        code = ("import sys, fairway.cli; print('socketserver' in sys.modules); "
                "import fairway.service; print(sorted(set(sys.modules) & "
                "{'http.server', 'email.parser', 'email.feedparser'}))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=src_env(), timeout=20, check=True)
        assert result.stdout.split("\n")[:2] == ["False", "[]"]

    def test_bare_group_command(self, capsys):
        for group in ("tracks", "fit", "stats", "states", "emit"):
            assert cli.main([group]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("usage: fairway") == 5

    def test_min_count_option_is_gone(self, tmp_path, capsys):
        path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], [(20, 5), (40, 6)])
        assert cli.main(["fit", "speed-gap", "--input", path, "--min-count", "2"]) \
            == cli.EXIT_USAGE
        assert "unrecognized arguments: --min-count" in capsys.readouterr().err

    def test_config_option_is_gone(self, tmp_path, capsys):
        path = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4])
        assert cli.main(["--config", "x.json", "fit", "fd", "--form", "greenshields",
                         "--input", path, "--raw"]) == cli.EXIT_USAGE
        assert "usage: fairway" in capsys.readouterr().err

    def test_fairway_config_variable_is_not_read(self, tmp_path, monkeypatch):
        """A FAIRWAY_CONFIG naming a missing, malformed or overriding file changes nothing."""
        kv = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4, 5, 6])
        speeds = write_csv(tmp_path / "v.csv", ["speed_kmh"], [(v,) for v in range(1, 11)])
        gaps = write_csv(tmp_path / "g.csv", ["gap_m"], [(g,) for g in range(10, 110, 10)])
        commands = [["fit", "fd", "--form", "greenshields", "--input", kv],
                    ["fit", "fd", "--form", "piecewise_exp", "--input", kv],
                    ["fit", "speed-gap", "--input", write_csv(
                        tmp_path / "gv.csv", ["gap_m", "speed_kmh"],
                        [(g, 0.01 * g + 5) for g in range(20, 200, 3)])],
                    ["minimums", "--speeds", speeds, "--gaps", gaps],
                    ["states", "train", "--speeds", speeds]]

        def outcomes():
            results = []
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    results.append((cli.main(argv), out.getvalue(), err.getvalue()))
            return results

        monkeypatch.delenv("FAIRWAY_CONFIG", raising=False)
        expected = outcomes()
        assert [code for code, _, _ in expected] == [0, 2, 0, 0, 2]
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "override.json").write_text(
            '{"v_min": 3.0, "k1": 5.0, "v_f": 10.5, "tail_fraction": 0.2,'
            ' "gap_bin_width": 50.0, "density_bin_width": 2.0, "k_range_min": 4}')
        for name in ("absent.json", "bad.json", "override.json"):
            monkeypatch.setenv("FAIRWAY_CONFIG", str(tmp_path / name))
            assert outcomes() == expected

    @pytest.mark.parametrize("argv, published", [
        (["fit", "fd"], {"--v-f": None, "--k1": 4.0, "--v-min": V_MIN}),
        (["minimums"], {"--tail": 0.001}),
    ])
    def test_help_shows_published_defaults(self, capsys, argv, published):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in published.items():
            assert re.search(rf"{flag} [A-Z0-9_]+ [^()]*\(default: {re.escape(str(default))}\)",
                             text), (flag, text)


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

    def test_out_is_the_canonical_document(self, tmp_path, capsys):
        path = density_speed_csv(tmp_path, GREENSHIELDS, [1, 2, 3, 4])
        out = tmp_path / "model.json"
        assert cli.main(["fit", "fd", "--form", "greenshields", "--input", path,
                         "--raw", "--out", str(out)]) == cli.EXIT_OK
        assert out.read_text() == serialize_document(load_model(out))

    @pytest.mark.parametrize("option, value, name", [
        ("--v-min", "nan", "v_min"), ("--v-min", "inf", "v_min"),
        ("--v-f", "nan", "v_f"), ("--v-f", "inf", "v_f"),
        ("--k1", "nan", "k1"), ("--k1", "inf", "k1"), ("--k1", "0", "k1"),
    ])
    def test_non_finite_option_exits_with_data_error(self, tmp_path, capsys,
                                                     option, value, name):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        path = density_speed_csv(tmp_path, model, [k / 2 for k in range(1, 31)])
        code = cli.main(["fit", "fd", "--form", "piecewise_exp", "--input", path,
                         "--raw", "--v-f", "10.5", option, value])
        assert code == cli.EXIT_DATA
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["greenshields", "greenberg", "underwood"])
    @pytest.mark.parametrize("option, name", [("--v-f", "v_f"), ("--k1", "k1")])
    def test_classical_form_refuses_a_non_finite_option(self, tmp_path, capsys, form, option, name):
        """Classical forms ignore --v-f and the default --k1 4.0, but not a nan or inf."""
        path = density_speed_csv(tmp_path, GREENSHIELDS, [k / 2 for k in range(1, 23)])
        for value in ("nan", "inf"):
            code = cli.main(["fit", "fd", "--form", form, "--input", path, option, value])
            assert code == cli.EXIT_DATA
            assert f"finite positive {name}, got {value}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_density_whose_square_overflows_exits_with_data_error(self, tmp_path, capsys, form):
        """A density near 1.4e154 bins, but the line fit's x-variance overflows: no warning."""
        rows = [(0.5, 11.42), (1, 11.04), (2, 10.28), (3, 9.52), (1.4333549594718842e+154, 8.0),
                (6, 7.24), (8, 5.72), (10, 4.2)]
        path = write_csv(tmp_path / "kv.csv", ["density_vpkm", "speed_kmh"], rows)
        argv = ["fit", "fd", "--form", form, "--input", path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + (["--v-f", "12"] if form.startswith("piecewise") else []))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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


def speed_gap_rows(rng, n):
    """n (gap_m, speed_kmh) rows from v = 2 ln g - 1.5 plus noise, gaps in 10..300 m."""
    gaps = rng.uniform(10, 300, n)
    return [(g, 2 * math.log(g) - 1.5 + rng.normal(0, 0.3)) for g in gaps]


def gap_commands(tmp_path, rows):
    """fit speed-gap and minimums argv on the same (gap_m, speed_kmh) rows."""
    path = write_csv(tmp_path / "gv.csv", ["gap_m", "speed_kmh"], rows)
    return path, [["fit", "speed-gap", "--input", path],
                  ["minimums", "--speeds", path, "--gaps", path]]


class TestFlaggedGaps:
    """A gap <= 0, which tracks derive keeps with overlap_flagged 1, is refused, not ranked."""

    def test_one_flagged_gap_among_2000_exits_with_data_error(self, tmp_path, capsys):
        rows = speed_gap_rows(np.random.default_rng(7), 2000)
        path, commands = gap_commands(tmp_path, rows)
        for argv in commands:
            assert cli.main(argv) == cli.EXIT_OK
        rows[1234] = (-0.4, rows[1234][1])
        path, commands = gap_commands(tmp_path, rows)
        capsys.readouterr()
        for argv in commands:
            assert cli.main(argv) == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {path}: 1 gap(s) <= 0, the first on line 1236; "
                                    "drop the rows tracks derive flags with overlap_flagged 1\n")

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_non_positive_gaps_exit_with_data_error(self, data):
        rows = speed_gap_rows(np.random.default_rng(data.draw(st.integers(0, 99))), 40)
        bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True))
        for i in bad:
            rows[i] = (data.draw(st.sampled_from([0.0, -0.0, -5e-324, -0.4, -1e308])), rows[i][1])
        raw = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            path, commands = gap_commands(Path(tmp), rows)
            for argv in commands:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert cli.main(argv + (["--raw"] if raw and "--input" in argv else [])) \
                        == cli.EXIT_DATA
                assert f"{path}: {len(bad)} gap(s) <= 0, the first on line {min(bad) + 2};" \
                    in err.getvalue()


class TestRefusedDocumentShapes:
    """Document shapes an older fairway wrote, and any unknown top-level key, exit 2."""

    COMMANDS = {
        "states_classify": ["states", "classify", "--flow", "30", "--density", "3"],
        "emit_curve": ["emit", "curve", "--k-min", "1", "--k-max", "10", "--step", "1",
                       "--out", "curve.csv"],
        # A port no server can bind: a document that loaded would still exit 2, not serve.
        "serve": ["serve", "--port", "-1", "--host", "127.0.0.1"],
    }
    SHAPES = {
        "fit_space": lambda raw: raw["fit"].__setitem__("fit_space", "transformed"),
        "characteristics_without_v_f": lambda raw: raw["characteristics"].pop("v_f"),
        "unknown_top_level_key": lambda raw: raw.__setitem__("note", "hand edited"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_exits_with_data_error(self, tmp_path, capsys, monkeypatch, command, shape):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        raw = document_to_dict(ModelDocument(
            fd=model, v_min=V_MIN, characteristics=derive_characteristics(model, V_MIN),
            bands=StateBands(boundaries=STATE_BOUNDARIES),
            fit=FitReport(family=model.form, a=model.c1, b=model.c2, r_squared=0.9, n_points=40)))
        (tmp_path / "good.json").write_text(json.dumps(raw))
        self.SHAPES[shape](raw)
        (tmp_path / "model.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        argv = self.COMMANDS[command]
        if command != "serve":
            assert cli.main(argv + ["--model", "good.json"]) == cli.EXIT_OK
            (tmp_path / "curve.csv").unlink(missing_ok=True)
            capsys.readouterr()
        assert cli.main(argv + ["--model", "model.json"]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed model document" in captured.err
        assert not (tmp_path / "curve.csv").exists()


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

    def test_long_cell_is_echoed_cut(self, tmp_path, capsys):
        """A 100,000-character cell is quoted in its error cut to 80 characters."""
        path = write_csv(tmp_path / "v.csv", ["speed_kmh"], [(1.0,), ("x" * 100_000,)])
        assert cli.main(["stats", "summary", "--input", path,
                         "--column", "speed_kmh"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.encode()) < 200 and "v.csv:3:speed_kmh: cannot parse 'xxx" in err

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


class TestCsvNotUtf8:
    """Every command that reads a CSV exits 2 naming the file that holds a non-UTF-8 byte."""

    COMMANDS = {
        "tracks_derive_tracks": ["tracks", "derive", "--tracks", "{bad}", "--meta", "{meta}",
                                 "--out-dir", "{out}"],
        "tracks_derive_meta": ["tracks", "derive", "--tracks", "{speeds}", "--meta", "{bad}",
                               "--out-dir", "{out}"],
        "fit_speed_gap": ["fit", "speed-gap", "--input", "{bad}"],
        "fit_fd": ["fit", "fd", "--form", "greenshields", "--input", "{bad}"],
        "stats_summary": ["stats", "summary", "--input", "{bad}", "--column", "speed_kmh"],
        "economic_speed": ["economic-speed", "--loaded", "{speeds}", "--empty", "{bad}"],
        "minimums": ["minimums", "--speeds", "{speeds}", "--gaps", "{bad}"],
        "states_train": ["states", "train", "--speeds", "{bad}"],
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_exits_2_naming_the_file(self, tmp_path, capsys, name):
        meta_columns = ["run_id", "fleet_position", "length_m", "locator_offset_m", "load_state"]
        header = meta_columns + ["t_seconds", "x_m", "y_m", "gap_m", "speed_kmh", "density_vpkm"]
        bad = tmp_path / "bad.csv"
        bad.write_bytes((",".join(header) + "\n"
                         + "r1,1,85.0,12.0,loaded,0,200.0,0.0,60.0,9.0,3.0\n"
                         + "r1,2,90.0,10.0,loaded,0,50.0,0.0,60.0,9.0,3.0\n").encode()
                        + b"r1,3,85.0,12.0,\xff,1,202.5,0.0,61.0,9.5,3.1\n")
        files = {"bad": str(bad), "out": str(tmp_path / "out"),
                 "speeds": write_csv(tmp_path / "speeds.csv", ["speed_kmh"], [(9.0,), (10.0,)]),
                 "meta": write_csv(tmp_path / "meta.csv", meta_columns,
                                   [("r1", 1, 85.0, 12.0, "loaded"),
                                    ("r1", 2, 90.0, 10.0, "loaded")])}
        argv = [arg.format(**files) for arg in self.COMMANDS[name]]
        assert cli.main(argv) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text: byte 0xff (invalid start byte)\n"


class TestLinesAfterBlankLines:
    """An error names the physical line of its row: blank lines count."""

    SPEEDS = "speed_kmh\n1.0\n\n\n2.0\nabc\n"
    GAPS = "gap_m,speed_kmh\n10,5\n\n\n20,6\n-1,4\n30,7\n"

    @pytest.mark.parametrize("argv, message", [
        (["stats", "summary", "--input", "{speeds}", "--column", "speed_kmh"],
         "{speeds}:6:speed_kmh: cannot parse 'abc'"),
        (["fit", "speed-gap", "--raw", "--input", "{gaps}"],
         "{gaps}: 1 gap(s) <= 0, the first on line 6; "
         "drop the rows tracks derive flags with overlap_flagged 1"),
        (["minimums", "--speeds", "{gaps}", "--gaps", "{gaps}"],
         "{gaps}: 1 gap(s) <= 0, the first on line 6; "
         "drop the rows tracks derive flags with overlap_flagged 1"),
    ], ids=["stats_summary", "fit_speed_gap", "minimums"])
    def test_exits_2_naming_line_6(self, tmp_path, capsys, argv, message):
        files = {"speeds": tmp_path / "speeds.csv", "gaps": tmp_path / "gaps.csv"}
        files["speeds"].write_text(self.SPEEDS, encoding="utf-8")
        files["gaps"].write_text(self.GAPS, encoding="utf-8")
        assert cli.main([arg.format(**files) for arg in argv]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(**files)}\n"

    def test_quoted_field_open_at_the_end_of_its_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "speeds.csv"
        path.write_text('speed_kmh\n1.0\n\n"2.0\n3.0"\n', encoding="utf-8")
        assert cli.main(["stats", "summary", "--input", str(path), "--column", "speed_kmh"]) \
            == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {path}:4: quoted field open at end of line\n")


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
        assert "state bands need exactly 4 clusters, got 3" in capsys.readouterr().err

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


    @pytest.mark.parametrize("change", [
        lambda raw: raw["bands"]["boundaries"].__setitem__(0, True),
        lambda raw: raw.__setitem__("schema_version", True),
        lambda raw: raw.__setitem__("created_utc", 20210601),
    ], ids=["boolean_boundary", "boolean_schema_version", "numeric_created_utc"])
    def test_classify_rejects_document_with_mistyped_fields(self, tmp_path, capsys, change):
        raw = document_to_dict(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)))
        change(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["states", "classify", "--flow", "30", "--density", "3",
                         "--model", str(path)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed model document" in captured.err


def test_fit_section_that_is_not_an_object_exits_with_data_error(tmp_path, capsys):
    raw = document_to_dict(ModelDocument(fd=GREENSHIELDS))
    raw["fit"] = "logarithmic"
    (tmp_path / "model.json").write_text(json.dumps(raw))
    argv = ["emit", "curve", "--model", str(tmp_path / "model.json"), "--k-min", "1",
            "--k-max", "10", "--step", "1", "--out", str(tmp_path / "curve.csv")]
    assert cli.main(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed model document" in captured.err


class TestBadFitSection:
    """A model document whose fit section is not a fit exits 2 in every command reading it."""

    @pytest.mark.parametrize("argv", [
        ["states", "classify", "--flow", "30", "--density", "3"],
        ["emit", "curve", "--k-min", "1", "--k-max", "10", "--step", "1", "--out", "curve.csv"],
    ], ids=["states_classify", "emit_curve"])
    @pytest.mark.parametrize("field, value", [
        ("n_points", math.nan), ("n_points", 40.0), ("family", "quadratic"),
    ])
    def test_exits_with_data_error(self, tmp_path, capsys, monkeypatch, argv, field, value):
        fit = FitReport(family="greenshields", a=0.7634, b=11.817, r_squared=0.9, n_points=40)
        raw = document_to_dict(ModelDocument(fd=GREENSHIELDS, fit=fit,
                                             bands=StateBands(boundaries=STATE_BOUNDARIES)))
        raw["fit"][field] = value
        (tmp_path / "model.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--model", "model.json"]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err
        assert not (tmp_path / "curve.csv").exists()


class TestDeeplyNestedDocument:
    """Nesting past the recursion limit is a malformed document, not a traceback: in the
    JSON text itself, or in a section that parses but recurses as it is checked."""

    COMMANDS = {
        "states_classify": ["states", "classify", "--flow", "42", "--density", "7"],
        # A port no server can bind: a document that loaded would still exit 2, not serve.
        "serve": ["serve", "--port", "-1", "--host", "127.0.0.1"],
    }

    @staticmethod
    def nested_section() -> str:
        raw = document_to_dict(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)))
        raw["characteristics"] = dict.fromkeys(("v_m", "k_m", "q_m", "k_max", "v_min"), 1.0)
        raw["characteristics"]["v_f"] = "NESTED"
        text = json.dumps(raw).replace('"NESTED"', "[" * 600 + "1" + "]" * 600)
        json.loads(text)  # within the parser's depth: only the section check recurses
        return text

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"a":' * 100000 + "1" + "}" * 100000,
        "SECTION",
    ], ids=["arrays", "objects", "section"])
    def test_exits_with_data_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "deep.json"
        path.write_text(self.nested_section() if text == "SECTION" else text)
        assert cli.main(self.COMMANDS[command] + ["--model", str(path)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed model document" in captured.err
        assert "Traceback" not in captured.err


class TestServe:
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_exits_with_data_error(self, tmp_path, capsys, port):
        path = tmp_path / "bands.json"
        save_model(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)), path)
        code = cli.main(["serve", "--model", str(path), f"--port={port}", "--host", "127.0.0.1"])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"port must lie in 0..65535, got {port}" in captured.err


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

    @pytest.mark.parametrize("field, value", [("c1", True), ("v_f", False)])
    def test_boolean_model_field_exits_with_data_error(self, tmp_path, capsys, field, value):
        model = FdModel(form="piecewise_exp", c1=13.62, c2=0.115, v_f=10.5, k1=4.0)
        raw = document_to_dict(ModelDocument(fd=model))
        raw["model"][field] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(raw))
        out = tmp_path / "curve.csv"
        code = cli.main(["emit", "curve", "--model", str(model_path),
                         "--k-min", "1", "--k-max", "10", "--step", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert "true or false" in capsys.readouterr().err
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

    def test_two_second_convoy_uses_its_own_spacing(self, tmp_path, capsys):
        rows = [row for t in range(0, 10, 2) for row in (
            ("r1", 1, t, 200.0 + 2.5 * t, 0.0), ("r1", 2, t, 50.0 + 2.5 * t, 0.0))]
        tracks, meta = convoy_files(tmp_path, rows)
        out_dir = tmp_path / "derived"
        code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        assert "speeds 8  gaps 5  flow samples 4" in capsys.readouterr().out
        with open(out_dir / "speeds.csv", newline="") as handle:
            speeds = list(csv.DictReader(handle))
        assert [r["t_seconds"] for r in speeds[:4]] == ["0", "2", "4", "6"]
        assert {float(r["speed_kmh"]) for r in speeds} == {5.0 / 2 * 3.6}

    def test_delta_t_is_no_longer_an_option(self, tmp_path, capsys):
        rows = [row for t in range(3) for row in (
            ("r1", 1, t, 200.0 + 2.5 * t, 0.0), ("r1", 2, t, 50.0 + 2.5 * t, 0.0))]
        tracks, meta = convoy_files(tmp_path, rows)
        code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                         "--out-dir", str(tmp_path / "derived"), "--delta-t", "1"])
        assert code == cli.EXIT_USAGE
        assert "--delta-t" in capsys.readouterr().err
        assert not (tmp_path / "derived").exists()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_fix_reference_byte_for_byte(self, data):
        """Any run ids, holes, spacings, stationary seconds and row order: the same three files."""
        run_ids = data.draw(st.lists(st.sampled_from(["r1", "9", "10", "b,x", 'q"1', "p%s"]),
                                     min_size=1, max_size=4, unique=True))
        rows, meta_rows = [], []
        for run_id in run_ids:
            for pos in range(1, data.draw(st.integers(1, 3)) + 1):
                meta_rows.append((run_id, pos, data.draw(st.floats(20, 120)),
                                  data.draw(st.floats(0, 20)), "loaded"))
                start, step = data.draw(st.integers(0, 2)), data.draw(st.sampled_from([1, 2]))
                x = 1000.0 - 150.0 * pos
                for t in range(start, start + step * data.draw(st.integers(2, 6)), step):
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
    @settings(max_examples=40, deadline=None)
    def test_any_cpu_count_gives_the_one_process_result(self, data):
        """Runs split over 1-4 processes, a failing run in any chunk or none: the exit code,
        stdout, stderr and files of one process, no child left and no part file left."""
        n_runs = data.draw(st.integers(1, 6))
        fault = data.draw(st.sampled_from([None, "dropped fix", "no shared timestamp"]))
        faulty_run = data.draw(st.integers(0, n_runs - 1))
        rows, meta_rows = [], []
        for r in range(n_runs):
            vessels, fixes = data.draw(st.integers(2, 3)), data.draw(st.integers(4, 30))
            for pos in range(1, vessels + 1):
                meta_rows.append((f"r{r}", pos, 80.0, 10.0, "loaded"))
                times = list(range(fixes))
                if r == faulty_run and pos == vessels and fault == "dropped fix":
                    del times[1]
                elif r == faulty_run and pos == vessels and fault == "no shared timestamp":
                    times = [t + fixes for t in times]
                rows += [(f"r{r}", pos, t, 1000.0 - 150.0 * pos + 2.5 * t, 0.0) for t in times]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            tracks, meta = convoy_files(tmp, rows, meta_rows)

            def derive(cpus):
                out_dir, stdout, stderr = tmp / f"cpus{cpus}", io.StringIO(), io.StringIO()
                with pytest.MonkeyPatch.context() as patch, \
                     contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    if cpus is None:  # a platform without sched_getaffinity runs one process
                        patch.delattr(os, "sched_getaffinity", raising=False)
                    else:
                        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                    code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                                     "--out-dir", str(out_dir)])
                files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
                return code, stdout.getvalue(), stderr.getvalue(), files

            got = derive(data.draw(st.sampled_from([None, 2, 3, 4])))
            assert got == derive(1)
            assert sorted(got[3]) == ["flow_samples.csv", "gaps.csv", "speeds.csv"]
            assert got[0] == (cli.EXIT_OK if fault is None else cli.EXIT_DATA)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_unreported_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        rows = [(run, pos, t, 1000.0 - 150.0 * pos + 2.5 * t, 0.0)
                for run in ("r1", "r2") for pos in (1, 2) for t in range(5)]
        tracks, meta = convoy_files(tmp_path, rows, [(run, pos, 80.0, 10.0, "loaded")
                                                     for run in ("r1", "r2") for pos in (1, 2)])
        parent, derive_runs = os.getpid(), cli._derive_runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "_derive_runs", lambda *args: derive_runs(*args)
                            if os.getpid() == parent else os._exit(0))
        code = cli.main(["tracks", "derive", "--tracks", tracks, "--meta", meta,
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: a worker ended unreported\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        {}, ["--raw"]),
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


@contextlib.contextmanager
def serving(doc):
    """``make_server(doc, 0)`` answering in a background thread; yields (host, port)."""
    server = make_server(doc, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def server_url():
    doc = ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES),
                        created_utc="2021-06-01T00:00:00+00:00")
    with serving(doc) as (host, port):
        yield f"http://{host}:{port}", doc


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

    @pytest.mark.parametrize("request_head, status", [
        (b"POST /state?flow=42&density=7 HTTP/1.1\r\nContent-Length: 0", 501),
        (b"PUT /health HTTP/1.1", 501),
        (b'GET /health HTTP/"1', 400),
        (b"GET /health HTTP/2.0", 505),
        (b"BREW", 400),
        (b"HEAD /health HTTP/1.1", 501),
        (b"GET /health", 400),  # HTTP/0.9: JSON and headers, not a bare body
        (b"GET /health HTTP/1", 400),
        (b"GET /health HTTPS/1.1", 400),
        (b"GET /health HTTP/1.1 extra", 400),
    ])
    def test_rejected_requests_get_json_and_a_close(self, server_url, request_head, status):
        """Requests the service cannot serve answer JSON, never an HTML page, then close."""
        parts = urlsplit(server_url[0])
        with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
            sock.sendall(request_head + b"\r\nHost: x\r\n\r\n")
            reply = b"".join(iter(lambda: sock.recv(65536), b""))  # EOF: the server closed
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        if request_head.startswith(b"HEAD"):
            assert body == b""
        else:
            assert int(headers["Content-Length"]) == len(body)
            error = json.loads(body, parse_constant=lambda name: pytest.fail(name))["error"]
            assert isinstance(error, str) and error

    @pytest.mark.parametrize("target, status, body", [
        ("/health", 200, {"status": "ok"}),
        ("/state?flow=42&density=7", 200,
         {"speed_kmh": 6.0, "state": "congested", "color": "red"}),
        ("/state?flow=30", 400, {"error": "missing query parameter 'density'"}),
        ("/state?flow=many&density=3", 400, {"error": "invalid value for 'flow': 'many'"}),
        ("/state?flow=30&density=0", 422,
         {"error": "density must be positive and finite, got 0.0"}),
        ("/nothing", 404, {"error": "unknown path /nothing"}),
    ])
    def test_respond_is_a_pure_router(self, target, status, body):
        request = f"GET {target} HTTP/1.1\r\n\r\n".encode()
        answer, keep_open = service.respond(StateBands(STATE_BOUNDARIES), b"{}",
                                            io.BytesIO(request).readline)
        assert answer.startswith(f"HTTP/1.1 {status} ".encode()) and keep_open
        assert json.loads(answer.partition(b"\r\n\r\n")[2]) == body

    def test_respond_classifies_through_the_module_attribute(self, monkeypatch):
        """A wrapper set on service.classify_flow_density sees every /state query."""
        calls = []
        classify = service.classify_flow_density
        monkeypatch.setattr(service, "classify_flow_density",
                            lambda *args: calls.append(args) or classify(*args))
        bands = StateBands(STATE_BOUNDARIES)
        request = io.BytesIO(b"GET /state?flow=42&density=7 HTTP/1.1\r\n\r\n")
        assert service.respond(bands, b"{}", request.readline)[0].startswith(b"HTTP/1.1 200 ")
        assert calls == [(bands, 42.0, 7.0)]

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


IMF_FIXDATE = re.compile(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
                         r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
                         r"\d\d:\d\d:\d\d GMT")
PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)


def read_answer(sock):
    """One answer read off ``sock``: (status line, headers, body).  A ``Connection:
    close`` answer is read to the end of the stream, so its body is all the server sent;
    any other body is its first Content-Length bytes."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"the server closed after {buf!r}"
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    if headers.get("Connection") == "close":
        body += b"".join(iter(lambda: sock.recv(65536), b""))
    else:
        length = int(headers["Content-Length"])
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "the server closed inside the body"
            body += chunk
        body = body[:length]
    return status_line, headers, body


def exchange(address, request: bytes):
    """Send ``request`` on a new connection and read its first answer."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        return read_answer(sock)


class TestRequestLoop:
    """The wire contract of ``fairway serve``'s request loop, one row at a time."""

    CONGESTED = {"speed_kmh": 6.0, "state": "congested", "color": "red"}

    @pytest.fixture(scope="class")
    def address(self):
        with serving(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES))) as address:
            yield address

    @pytest.mark.parametrize("version, connection, closed", [
        ("HTTP/1.1", "", False),
        ("HTTP/1.1", "Connection: close\r\n", True),
        ("HTTP/1.1", "Connection: keep-alive, Upgrade\r\n", False),
        ("HTTP/1.0", "", True),
        ("HTTP/1.0", "Connection: keep-alive\r\n", False),
        ("HTTP/1.0", "connection: Keep-Alive\r\n", False),
    ])
    def test_connection_reuse(self, address, version, connection, closed):
        request = f"GET /state?flow=42&density=7 {version}\r\nHost: x\r\n{connection}\r\n"
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(request.encode())
            status_line, headers, body = read_answer(sock)  # to the end if it closes
            assert status_line == "HTTP/1.1 200 OK"
            assert json.loads(body) == self.CONGESTED
            assert headers.get("Connection") == ("close" if closed else None)
            if not closed:
                sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
                assert read_answer(sock)[0] == "HTTP/1.1 200 OK"

    def test_leading_double_slash_folds_to_one(self, address):
        status_line, _, body = exchange(
            address, b"GET //state?flow=42&density=7 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status_line == "HTTP/1.1 200 OK"
        assert json.loads(body) == self.CONGESTED

    @pytest.mark.parametrize("target, status", [
        ("http://x/health", 200), ("http://[x/health", 400), ("/health#top", 200)])
    def test_target_is_read_as_a_url(self, address, target, status):
        """An absolute-form target is served; one whose host cannot parse gets 400 JSON."""
        status_line, headers, body = exchange(address, f"GET {target} HTTP/1.1\r\n\r\n".encode())
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert int(headers["Content-Length"]) == len(body) and json.loads(body)

    def test_empty_lines_before_a_request_are_skipped(self, address):
        status_line, _, body = exchange(address, b"\r\n\n\r\nGET /health HTTP/1.1\r\n\r\n")
        assert status_line == "HTTP/1.1 200 OK"
        assert json.loads(body) == {"status": "ok"}

    @pytest.mark.parametrize("request_bytes, status", [
        # Each request ends where the server stops reading, so it closes on a drained socket.
        (b"GET /" + b"a" * service.MAX_LINE, 414),
        (b"GET /health HTTP/1.1\r\nX: " + b"a" * (service.MAX_LINE - 2), 431),
        (b"GET /health HTTP/1.1\r\n" + b"X: y\r\n" * (service.MAX_HEADERS + 1), 431),
    ], ids=["request_line", "header_line", "header_count"])
    def test_oversized_requests_are_refused(self, address, request_bytes, status):
        status_line, headers, body = exchange(address, request_bytes)  # to the end
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert set(json.loads(body)) == {"error"}

    def test_a_hundred_header_lines_are_read(self, address):
        request = b"GET /health HTTP/1.1\r\n" + b"X: y\r\n" * service.MAX_HEADERS + b"\r\n"
        assert exchange(address, request)[0] == "HTTP/1.1 200 OK"

    @pytest.mark.parametrize("request_bytes", [
        b"GET /health HTTP/1.1\r\n\r\n", b"GET /nothing HTTP/1.1\r\n\r\n",
        b"GET /health HTTP/1.1 x\r\n\r\n"])
    def test_every_answer_is_dated(self, address, request_bytes):
        """RFC 9110 requires Date on 2xx and 4xx answers, in the IMF-fixdate form."""
        _, headers, _ = exchange(address, request_bytes)
        date = headers["Date"]
        assert IMF_FIXDATE.fullmatch(date)
        sent = email.utils.parsedate_to_datetime(date).timestamp()
        assert abs(sent - time.time()) < 5
        assert email.utils.formatdate(sent, usegmt=True) == date

    def test_idle_connection_closes_silently(self, monkeypatch, capsys):
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.3)
        with serving(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES))) as address:
            with socket.create_connection(address, timeout=5) as sock:
                for _ in range(3):
                    time.sleep(0.05)  # under the timeout: each request is still answered
                    sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
                    assert read_answer(sock)[0] == "HTTP/1.1 200 OK"
                start = time.perf_counter()
                assert sock.recv(1) == b""
                assert 0.2 < time.perf_counter() - start < 3
        assert capsys.readouterr().err == ""

    def test_reset_connection_ends_silently(self, capsys):
        with serving(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES))) as address:
            before = set(threading.enumerate())
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert read_answer(sock)[0] == "HTTP/1.1 200 OK"
            # A zero linger time makes close() send a reset instead of a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.perf_counter() + 5
            while set(threading.enumerate()) - before and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert not set(threading.enumerate()) - before  # the connection's thread ended
        assert capsys.readouterr().err == ""

    def test_any_printable_request_gets_a_parseable_answer(self, tmp_path):
        """Against ``fairway serve`` itself: a status line, the three headers and a strict
        JSON body of Content-Length bytes (none for HEAD), and nothing on stderr."""
        model = tmp_path / "bands.json"
        save_model(ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES)), model)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fairway.cli", "serve", "--model", str(model),
             "--port", str(port), "--host", "127.0.0.1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=src_env())
        try:
            deadline = time.perf_counter() + 20
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=5).close()
                    break
                except OSError:
                    assert proc.poll() is None and time.perf_counter() < deadline
                    time.sleep(0.02)

            target = st.one_of(
                st.sampled_from(["/health", "/model", "/state?flow=42&density=7", "//state",
                                 "/state?flow=nan&density=1", "http://x/health", "a://[x"]),
                st.text(PRINTABLE, max_size=30))
            request_line = st.one_of(
                st.text(PRINTABLE, min_size=1, max_size=80),  # empty lines precede a request
                st.builds("{} {} {}".format,
                          st.sampled_from(["GET", "HEAD", "POST", "get", "GET\t"]), target,
                          st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9",
                                           "HTTP/1", "HTTP/01.1", "HTTP/1.1 "])))

            @given(line=request_line, extra=st.lists(st.text(PRINTABLE, max_size=40), max_size=3))
            @settings(max_examples=100, deadline=None)
            def answers(line, extra):
                request = "\r\n".join([line, *extra]) + "\r\n\r\n"
                status_line, headers, body = exchange(("127.0.0.1", port), request.encode())
                status = int(re.fullmatch(r"HTTP/1\.1 ([2-5]\d\d) [^\r\n]+", status_line)[1])
                assert headers["Content-Type"] == "application/json"
                assert IMF_FIXDATE.fullmatch(headers["Date"])
                if status == 501 and line.split()[0] == "HEAD":
                    assert body == b""
                else:
                    assert int(headers["Content-Length"]) == len(body)
                    json.loads(body, parse_constant=lambda name: pytest.fail(name))

            answers()
        finally:
            proc.terminate()
            _, err = proc.communicate(timeout=10)
        assert err == b""


# The request lines of test_any_printable_request_gets_a_parseable_answer, and lines at
# the MAX_LINE limit: for the in-process property on service.respond below.
TARGET = st.one_of(
    st.sampled_from(["/health", "/model", "/state?flow=42&density=7", "//state",
                     "/state?flow=nan&density=1", "http://x/health", "a://[x"]),
    st.text(PRINTABLE, max_size=30))
REQUEST_LINE = st.one_of(
    st.text(PRINTABLE, min_size=1, max_size=80),
    st.builds("{} {} {}".format,
              st.sampled_from(["GET", "HEAD", "POST", "get", "GET\t"]), TARGET,
              st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9",
                               "HTTP/1", "HTTP/01.1", "HTTP/1.1 "])))
AT_THE_LIMIT = st.integers(service.MAX_LINE - 8, service.MAX_LINE + 2)


def bytes_read_to_decide(lines: list[bytes]) -> int:
    """How much of a request (``lines``, each ending in CRLF) the service reads to decide
    its answer: up to a request line that is not three words ending in a version below 2,
    an over-long line (of which MAX_LINE + 1 bytes), the 101st header line or the empty line."""
    read = 0
    for i, line in enumerate(lines):
        if len(line) > service.MAX_LINE:
            return read + service.MAX_LINE + 1
        read += len(line)
        if i == 0:
            words = line.split()
            version = len(words) == 3 and re.fullmatch(rb"HTTP/(\d{1,10})\.\d{1,10}", words[2])
            if not version or int(version[1]) >= 2:
                return read
        elif line == b"\r\n" or i > service.MAX_HEADERS:
            return read
    raise AssertionError("a request ends with an empty line")


class TestRespond:
    """``service.respond`` in process: the wire contract without a socket."""

    BANDS = StateBands(STATE_BOUNDARIES)

    @given(line=st.one_of(REQUEST_LINE, AT_THE_LIMIT.map(lambda n: "GET /" + "a" * n)),
           extra=st.lists(st.one_of(st.text(PRINTABLE, max_size=40),
                                    AT_THE_LIMIT.map(lambda n: "X: " + "a" * n)), max_size=3),
           filler=st.sampled_from([0, service.MAX_HEADERS - 2, service.MAX_HEADERS + 1]))
    @settings(max_examples=500, deadline=None)
    def test_any_printable_request_is_framed_and_read_no_further(self, line, extra, filler):
        """The framing of test_any_printable_request_gets_a_parseable_answer, and no byte
        read past the line that decided the answer: a pipelined request stays unread."""
        lines = [f"{text}\r\n".encode() for text in [line, *["X: y"] * filler, *extra, ""]]
        stream = io.BytesIO(b"".join(lines) + b"GET /health HTTP/1.1\r\n\r\n")
        answer, keep_open = service.respond(self.BANDS, b"{}", stream.readline)
        assert stream.tell() == bytes_read_to_decide(lines)
        head, _, body = answer.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(header.split(": ", 1) for header in header_lines)
        status = int(re.fullmatch(r"HTTP/1\.1 ([2-5]\d\d) [^\r\n]+", status_line)[1])
        assert headers["Content-Type"] == "application/json"
        assert IMF_FIXDATE.fullmatch(headers["Date"])
        assert keep_open == (headers.get("Connection") != "close")
        if status == 501 and line.split()[0] == "HEAD":
            assert body == b""
        else:
            assert int(headers["Content-Length"]) == len(body)
            json.loads(body, parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("request_bytes", [b"", b"\r\n", b"\r\n\n\r\n"])
    def test_a_client_that_closes_first_gets_no_answer(self, request_bytes):
        stream = io.BytesIO(request_bytes)
        assert service.respond(self.BANDS, b"{}", stream.readline) is None
        assert stream.tell() == len(request_bytes)

    @pytest.mark.parametrize("request_line, start", [
        (b"GET /state?flow=" + b"9" * 60_000 + b"x&density=1 HTTP/1.1",
         "invalid value for 'flow': '999"),
        (b"GET /" + b"a" * 60_000 + b" HTTP/1.1", "unknown path /aaa"),
        (b"P" * 60_000 + b" / HTTP/1.1", "unsupported method 'PPP"),
        (b"GET " * 15_000, "bad request line 'GET GET"),
    ], ids=["query_value", "path", "method", "request_line"])
    def test_an_echoed_input_is_cut_to_80_characters(self, request_line, start):
        stream = io.BytesIO(request_line + b"\r\n\r\n")
        answer, _ = service.respond(self.BANDS, b"{}", stream.readline)
        error = json.loads(answer.partition(b"\r\n\r\n")[2])["error"]
        assert error.startswith(start) and len(error) < 120
