import csv
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairway import io_store
from fairway.errors import DomainError, FairwayError, ParseError, SchemaVersionError
from fairway.fundamental_diagram import (
    ALL_FORMS,
    CharacteristicParams,
    FdModel,
    derive_characteristics,
    speed_at_density,
)
from fairway.io_store import (
    META_COLUMNS,
    SURVEILLANCE_COLUMNS,
    TRACK_COLUMNS,
    ModelDocument,
    document_from_dict,
    document_to_dict,
    emit_curve_samples,
    json_text,
    load_model,
    load_surveillance,
    load_tracks,
    load_vessel_meta,
    meta_map,
    read_columns,
    save_model,
    serialize_document,
)
from fairway.regression import FAMILIES, FitReport
from fairway.traffic_state import StateBands
from fairway.trajectory import fleet_flow_samples

from reference_data import STATE_BOUNDARIES, V_MIN
from reference_tracks import (
    reference_load_surveillance,
    reference_load_tracks,
    reference_load_vessel_meta,
    reference_meta,
)

META_HEADER = "run_id,fleet_position,length_m,locator_offset_m,load_state\n"
TRACK_HEADER = "run_id,fleet_position,t_seconds,x_m,y_m\n"
SURV_HEADER = (
    "interval_start,direction,flow_vph,mean_speed_kmh,loaded_count,empty_count\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadVesselMeta:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,85.0,12.0,loaded\n"
            "run_a,2,90.0,10.0,empty\n"
        ))
        result = load_vessel_meta(path)
        assert result.rejects == ()
        mapping = meta_map(result)
        assert set(mapping) == {("run_a", 1), ("run_a", 2)}
        assert mapping[("run_a", 1)].length == 85.0
        assert mapping[("run_a", 2)].load_state == "empty"

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "meta.csv",
                     "run_id,fleet_position,length_m,load_state\n")
        with pytest.raises(ParseError, match="locator_offset_m"):
            load_vessel_meta(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "meta.csv", "")
        with pytest.raises(ParseError, match="header"):
            load_vessel_meta(path)

    def test_strict_raise_names_file_line_column(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,85.0,12.0,loaded\n"
            "run_a,2,not_a_number,10.0,empty\n"
        ))
        with pytest.raises(ParseError, match=r"meta\.csv:3:length_m"):
            load_vessel_meta(path)

    @pytest.mark.parametrize("cells, message", [
        ("2,{long},10.0,empty", "cannot parse 'xxx"),
        ("2,1{digits},10.0,empty", "not a finite number: '111"),
        ("1{digits},85.0,10.0,empty", "outside the 64-bit integer range: '111"),
        ("2,85.0,10.0,{long}", "load_state must be one of ('loaded', 'empty'), got 'xxx"),
    ])
    def test_long_cell_is_echoed_cut(self, tmp_path, cells, message):
        path = write(tmp_path, "meta.csv", META_HEADER + "run_a,1,85.0,12.0,loaded\nrun_a,"
                     + cells.format(long="x" * 100_000, digits="1" * 400) + "\n")
        (reject,) = load_vessel_meta(path, strict=False).rejects
        assert reject.message.startswith(message) and reject.message.endswith("...")
        assert len(reject.message) < 140

    def test_lenient_collects_rejects_with_line_numbers(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,85.0,12.0,loaded\n"
            "run_a,2,,10.0,empty\n"
            "run_a,3,90.0,10.0,ballast\n"
            "run_a,4,90.0,10.0,empty\n"
        ))
        result = load_vessel_meta(path, strict=False)
        assert len(result.items) == 2
        assert [r.line for r in result.rejects] == [3, 4]
        assert result.rejects[0].column == "length_m"
        assert "missing value" in result.rejects[0].message

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,85.0,12.0,loaded\n"
            "run_a,1,90.0,10.0,empty\n"
        ))
        with pytest.raises(ParseError, match="duplicate"):
            load_vessel_meta(path)

    def test_bad_length_row_still_claims_its_key(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,oops,12.0,loaded\n"
            "run_a,1,85.0,12.0,loaded\n"
        ))
        result = load_vessel_meta(path, strict=False)
        assert [(r.line, r.column) for r in result.rejects] == [
            (2, "length_m"), (3, "fleet_position")]

    def test_negative_length_rejected(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + "run_a,1,-5.0,12.0,loaded\n")
        result = load_vessel_meta(path, strict=False)
        assert result.items == ()
        assert len(result.rejects) == 1
        assert "positive" in result.rejects[0].message

    @given(st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_row_at_a_time_reference(self, data, strict):
        check_meta_reference(data, strict)

    @given(st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_in_small_blocks(self, data, strict):
        with small_blocks(data):
            check_meta_reference(data, strict)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_length_rejected(self, tmp_path, cell):
        path = write(tmp_path, "meta.csv", META_HEADER + f"run_a,1,{cell},12.0,loaded\n")
        with pytest.raises(ParseError, match=r"meta\.csv:2:length_m: not a finite number"):
            load_vessel_meta(path)

    def test_row_error_without_a_column_names_only_its_line(self, tmp_path):
        path = write(tmp_path, "meta.csv", META_HEADER + "run_a,1,-85.0,12.0,loaded\n")
        with pytest.raises(ParseError) as info:
            load_vessel_meta(path)
        assert str(info.value) == f"{path}:2: vessel length must be finite and positive, got -85.0"


class TestLoadTracks:
    def fixture_paths(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv", META_HEADER + (
            "run_a,1,85.0,12.0,loaded\n"
            "run_a,2,90.0,10.0,loaded\n"
        ))
        rows = []
        for t in range(4):
            rows.append(f"run_a,1,{t},{200.0 + 3.0 * t},0.0\n")
            rows.append(f"run_a,2,{t},{50.0 + 3.0 * t},0.0\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + "".join(rows))
        return track_path, meta_path

    def test_assembles_sorted_runs(self, tmp_path):
        track_path, meta_path = self.fixture_paths(tmp_path)
        mapping = meta_map(load_vessel_meta(meta_path))
        runs, result = load_tracks(track_path, mapping)
        assert result.rejects == ()
        assert len(runs) == 1
        run = runs[0]
        assert run.run_id == "run_a"
        assert [tr.meta.fleet_position for tr in run.tracks] == [1, 2]
        assert run.tracks[0].t.tolist() == [0, 1, 2, 3]
        assert run.tracks[1].x.tolist() == [50.0, 53.0, 56.0, 59.0]
        assert result.items.tolist() == [2, 3, 4, 5, 6, 7, 8, 9]  # accepted line numbers
        # steady 3 m/s convoy: usable downstream of the loaders
        samples = fleet_flow_samples(run)
        assert len(samples) == 3
        assert samples.mean_speed[0] == pytest.approx(10.8)

    def test_missing_metadata_errors(self, tmp_path):
        track_path, meta_path = self.fixture_paths(tmp_path)
        mapping = meta_map(load_vessel_meta(meta_path))
        del mapping[("run_a", 2)]
        with pytest.raises(ParseError, match="position 2"):
            load_tracks(track_path, mapping)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv",
                          META_HEADER + "run_a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "run_a,1,0,0.0,0.0\n"
            "run_a,1,0,1.0,0.0\n"
        ))
        with pytest.raises(ParseError, match=r"tracks\.csv:3:t_seconds"):
            load_tracks(track_path, meta_map(load_vessel_meta(meta_path)))

    def test_unparseable_coordinate_lenient(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv",
                          META_HEADER + "run_a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "run_a,1,0,0.0,0.0\n"
            "run_a,1,1,oops,0.0\n"
            "run_a,1,2,6.0,0.0\n"
        ))
        runs, result = load_tracks(
            track_path, meta_map(load_vessel_meta(meta_path)), strict=False
        )
        assert [r.line for r in result.rejects] == [3]
        assert runs[0].tracks[0].t.tolist() == [0, 2]

    def test_non_finite_coordinate_rejected(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv",
                          META_HEADER + "run_a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + "run_a,1,0,0.0,nan\n")
        with pytest.raises(ParseError, match=r"tracks\.csv:2:y_m"):
            load_tracks(track_path, meta_map(load_vessel_meta(meta_path)))

    def test_bad_coordinate_row_still_claims_its_key(self, tmp_path):
        """The key is taken before the coordinates parse: both rows are rejected."""
        meta_path = write(tmp_path, "meta.csv", META_HEADER + "run_a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "run_a,1,0,0.0,0.0\n"
            "run_a,1,1,oops,0.0\n"
            "run_a,1,1,3.0,0.0\n"
            "run_a,1,2,6.0,0.0\n"
        ))
        runs, result = load_tracks(
            track_path, meta_map(load_vessel_meta(meta_path)), strict=False)
        assert [(r.line, r.column) for r in result.rejects] == [(3, "x_m"), (4, "t_seconds")]
        assert "duplicate key ('run_a', 1, 1)" in result.rejects[1].message
        assert runs[0].tracks[0].t.tolist() == [0, 2]
        assert result.items.tolist() == [2, 5]

    def test_rows_grouped_from_any_order(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv", META_HEADER + (
            "b,1,85.0,12.0,loaded\n" "a,1,85.0,12.0,loaded\n" "a,2,90.0,10.0,empty\n"))
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "b,1,1,1.0,0.0\n" "a,2,1,1.0,0.0\n" "a,1,1,3.0,0.0\n"
            "\n"  # blank lines are skipped but counted
            "a,2,0,0.0,0.0\n" "b,1,0,0.0,0.0\n" "a,1,0,2.0,0.0\n" "a,1\n"
        ))
        runs, result = load_tracks(
            track_path, meta_map(load_vessel_meta(meta_path)), strict=False)
        assert [r.run_id for r in runs] == ["a", "b"]
        assert [[tr.x.tolist() for tr in r.tracks] for r in runs] == [
            [[2.0, 3.0], [0.0, 1.0]], [[0.0, 1.0]]]
        assert [(r.line, r.column, r.message) for r in result.rejects] == [
            (9, "t_seconds", "missing value")]

    def test_items_are_physical_lines_after_blank_lines(self, tmp_path):
        meta_path = write(tmp_path, "meta.csv", META_HEADER + "a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "\n" "a,1,0,0.0,0.0\n" "\r\n" "\n" "a,1,5,oops,0.0\n" "a,1,1,1.0,0.0\n" "\n"
            "a,1,2,2.0,0.0"))
        for block_rows in (1, 2, 16384):
            with patch.object(io_store, "_BLOCK_ROWS", block_rows):
                runs, result = load_tracks(
                    track_path, meta_map(load_vessel_meta(meta_path)), strict=False)
            assert result.items.tolist() == [3, 7, 9]
            assert [(r.line, r.column) for r in result.rejects] == [(6, "x_m")]
            assert runs[0].tracks[0].t.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809",
                                      "99999999999999999999"])
    def test_integer_cell_outside_64_bits_rejected(self, tmp_path, cell):
        meta_path = write(tmp_path, "meta.csv", META_HEADER + "run_a,1,85.0,12.0,loaded\n")
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + f"run_a,1,{cell},0.0,0.0\n")
        with pytest.raises(ParseError, match=r"tracks\.csv:2:t_seconds: outside the 64-bit"):
            load_tracks(track_path, meta_map(load_vessel_meta(meta_path)))

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_fix_reference(self, data, strict):
        """Shuffled rows, timestamp holes, duplicate keys and bad cells: same
        runs, accepted count and rejects (or the same error) as the per-fix loader."""
        check_tracks_reference(data, strict)

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_fix_reference_in_small_blocks(self, data, strict):
        with small_blocks(data):
            check_tracks_reference(data, strict)

    def test_quoted_field_holding_a_newline_across_blocks(self, tmp_path):
        """Every row is one line: a quoted field left open at the end of its line is
        rejected there, and the next line is a row of its own, here with a bare '"'
        in an unquoted field, which reads as a literal."""
        meta_path = write(tmp_path, "meta.csv", META_HEADER + (
            'p,1,85.0,12.0,loaded\n"r\n1",1,85.0,12.0,loaded\n'))
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            "p,1,0,0.0,0.0\n" "p,1,1,1.0,0.0\n" '"r\n1",1,0,0.0,0.0\n' "\n"
            '"r\n1",1,1,1.0,0.0\n' "r,1\n" "p,1,2,2.0,0.0\n"))
        for block_rows in (1, 2, 3, 16384):
            with patch.object(io_store, "_BLOCK_ROWS", block_rows):
                meta = load_vessel_meta(meta_path, strict=False)
                runs, result = load_tracks(track_path, meta_map(meta), strict=False)
            assert [(r.line, r.column, r.message) for r in meta.rejects] == [
                (3, None, "quoted field open at end of line")]
            assert [r.run_id for r in runs] == ['1"', "p"]
            assert [r.tracks[0].x.tolist() for r in runs] == [[0.0, 1.0], [0.0, 1.0, 2.0]]
            assert [(r.line, r.column, r.message) for r in result.rejects] == [
                (4, None, "quoted field open at end of line"),
                (7, None, "quoted field open at end of line"),
                (9, "t_seconds", "missing value")]

    @pytest.mark.parametrize("text", [
        '"a,1\n', 'a,1,"0,0.0,0.0\n', 'a,1,0,0.0,"0.0', 'a,1,0,0.0,0.0,"note\r\n',
        'a,"b""c,1,0,0.0,0.0\n', 'a,1,0,"1.0"",0.0\r',
    ])
    def test_open_quote_names_its_line(self, tmp_path, text):
        """Wherever the quote opens, in a required column or not, and on the last line
        without a line end too."""
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + "\n" + text)
        with pytest.raises(ParseError, match=r"tracks\.csv:3: quoted field open at end"):
            load_tracks(track_path, {})

    def test_row_with_an_open_quote_claims_no_key(self, tmp_path):
        """None of its cells is read, so a later row with the same key is no duplicate."""
        meta_path = write(tmp_path, "meta.csv", META_HEADER + (
            'a,1,85.0,"12.0,loaded\n' "a,1,85.0,12.0,loaded\n"))
        meta = load_vessel_meta(meta_path, strict=False)
        assert [(r.line, r.message) for r in meta.rejects] == [
            (2, "quoted field open at end of line")]
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            'a,1,0,0.0,"0.0\n' "a,1,0,0.0,0.0\n" "a,1,1,1.0,0.0\n"))
        runs, result = load_tracks(track_path, meta_map(meta), strict=False)
        assert [r.line for r in result.rejects] == [2]
        assert result.items.tolist() == [3, 4]

    def test_bare_quote_in_an_unquoted_field_is_a_literal(self, tmp_path):
        """As csv.reader reads it: a '"' that does not open a field is a literal."""
        meta_path = write(tmp_path, "meta.csv", META_HEADER + (
            'a"b,1,85.0,12.0,loaded\n' 'ab,1,85.0,12.0,loaded\n'))
        track_path = write(tmp_path, "tracks.csv", TRACK_HEADER + (
            'a"b,1,0,0.0,0.0\n' '"a""b",1,1,1.0,0.0\n' '"a"b,1,2,2.0,0.0\n' 'ab,1,3,3.0,0.0\n'))
        runs, _ = load_tracks(track_path, meta_map(load_vessel_meta(meta_path)))
        assert [(r.run_id, r.tracks[0].t.tolist()) for r in runs] == [
            ('a"b', [0, 1]), ("ab", [2, 3])]


RUN_NAMES = ("r1", "r2", "9", "10", "b,x", 'q"1', " s", "r\n1")
NOISE = ("", "nan", "inf", "-inf", "oops", " 3 ", "1_0", "-0", "1e308", "5e-324", "1.5", "2",
         "\x1c", "2\x1c", "\u0663", "1e999", "9223372036854775807", "-9223372036854775808",
         "99999999999999999999", "9223372036854775808", "-9223372036854775809",
         "1.0", "\t2\t", " ", "\r", "x\ny", '"')
# Lines written as they stand: bare quotes, a quote opening a field, quotes left open.
RAW_LINES = ('a"b,1,0,1.0,2.0', '"r1"x,1,0,1.0,2.0', '"open,1,0,1.0,2.0', 'r1,1,"0,1.0,2.0',
             'r1,1,0,1.0,"2.0', '"', '"a""b,1')


def small_blocks(data):
    """Read CSV files in blocks of 2 or 3 rows, so a file crosses block boundaries."""
    return patch.object(io_store, "_BLOCK_ROWS", data.draw(st.integers(2, 3), label="block rows"))


def check_meta_reference(data, strict):
    rows = [[data.draw(st.sampled_from(RUN_NAMES)), str(data.draw(st.integers(-1, 3))),
             repr(data.draw(st.floats(-10, 200))), repr(data.draw(st.floats(-5, 50))),
             data.draw(st.sampled_from(["loaded", "empty", "ballast"]))]
            for _ in range(data.draw(st.integers(0, 8)))]
    text = noisy_csv(data, META_HEADER.strip().split(","), rows)
    assert_same_as_reference(
        text, lambda path: load_vessel_meta(path, strict=strict),
        lambda path: reference_load_vessel_meta(path, strict=strict))


def check_tracks_reference(data, strict):
    text = data.draw(track_file_text())
    meta = reference_meta(
        (run, pos, 80.0 + pos, 5.0, "loaded")
        for run in RUN_NAMES for pos in (1, 2, 3)
        if data.draw(st.integers(0, 15), label=f"meta {run} {pos}"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracks.csv"
        path.write_text(text, encoding="utf-8")
        expected = _outcome(lambda: reference_load_tracks(path, meta, strict=strict))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a load that warns fails the comparison
            got = _outcome(lambda: _columnar_as_reference(load_tracks(path, meta, strict=strict)))
    assert got == expected


def check_surveillance_reference(data, strict):
    rows = [[data.draw(st.sampled_from(["2021-06-01T08:00:00", "2021-06-01", "noon"])),
             data.draw(st.sampled_from(["upstream", "downstream", "sideways"])),
             repr(data.draw(st.floats(-5, 60))), repr(data.draw(st.floats(-1, 12))),
             str(data.draw(st.integers(0, 9))), str(data.draw(st.integers(0, 9)))]
            for _ in range(data.draw(st.integers(0, 8)))]
    text = noisy_csv(data, SURV_HEADER.strip().split(","), rows)
    assert_same_as_reference(
        text, lambda path: load_surveillance(path, strict=strict),
        lambda path: reference_load_surveillance(path, strict=strict))


@st.composite
def track_file_text(draw):
    coordinate = st.floats(-1e6, 1e6, allow_nan=False)
    rows = []
    for run in draw(st.lists(st.sampled_from(RUN_NAMES), min_size=1, max_size=3, unique=True)):
        for pos in range(1, draw(st.integers(1, 3)) + 1):
            # repeated t are duplicate keys, skipped t are holes in the track
            for t in draw(st.lists(st.integers(0, 5), min_size=1, max_size=7)):
                rows.append([run, str(pos), str(t), repr(draw(coordinate)), repr(draw(coordinate))])
    rows = draw(st.permutations(rows))
    for row in rows:
        if draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, 4))] = draw(st.sampled_from(NOISE))
        if draw(st.integers(0, 20)) == 0:
            del row[draw(st.integers(1, 4)):]  # a short row
    if draw(st.booleans()):  # a bad-coordinate row followed by a same-key row
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, rows[i][:3] + ["nan", "0.0"])
    if draw(st.booleans()):  # a blank or whitespace-only line
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [" "]])))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(RAW_LINES)))
    return csv_text([TRACK_HEADER.strip().split(",")] + rows, draw(st.sampled_from(LINE_ENDS)))


LINE_ENDS = ("\r\n", "\n", "\r")


def csv_text(rows, end) -> str:
    """Each list row as csv.writer writes it and each str row as it stands, ending in ``end``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    for row in rows:
        if isinstance(row, str):
            out.write(row + end)
        else:
            writer.writerow(row)
    return out.getvalue()


def noisy_csv(data, header, rows) -> str:
    """Rows with some cells replaced by noise, some cut short, a blank or
    whitespace-only line, and a line with bare or open quotes."""
    for row in rows:
        if data.draw(st.integers(0, 4)) == 0:
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(NOISE))
        if data.draw(st.integers(0, 15)) == 0:
            del row[data.draw(st.integers(0, len(row) - 1)):]
    if rows and data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from([[], [" "]])))
    if data.draw(st.integers(0, 3)) == 0:
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(RAW_LINES)))
    return csv_text([header] + rows, data.draw(st.sampled_from(LINE_ENDS)))


def assert_same_as_reference(text, load, reference):
    """Same items and rejects (line, column, message), or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")

        def columnar():
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a load that warns fails the comparison
                result = load(path)
            items = [tuple(vars(i).values()) if hasattr(i, "__dict__") else i
                     for i in result.items]
            return items, [(r.line, r.column, r.message) for r in result.rejects]

        assert _outcome(columnar) == _outcome(lambda: reference(path))


def _outcome(load):
    try:
        return load()
    except Exception as exc:  # compared: the same error class and message
        return type(exc).__name__, str(exc)


def _columnar_as_reference(loaded):
    runs, result = loaded
    return (
        [(r.run_id,
          [(tr.meta, list(zip(tr.t.tolist(), tr.x.tolist(), tr.y.tolist()))) for tr in r.tracks])
         for r in runs],
        len(result.items),
        [(r.line, r.column, r.message) for r in result.rejects],
    )


class TestLoadSurveillance:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "surv.csv", SURV_HEADER + (
            "2021-06-01T08:00:00,upstream,42,6.0,5,2\n"
            "2021-06-01T08:05:00,downstream,0,0.0,0,0\n"
        ))
        result = load_surveillance(path)
        assert result.rejects == ()
        assert result.items[0].flow_vph == 42.0
        assert result.items[0].loaded_count == 5
        assert result.items[1].mean_speed_kmh == 0.0

    def test_validation_rejects(self, tmp_path):
        path = write(tmp_path, "surv.csv", SURV_HEADER + (
            "not-a-time,upstream,42,6.0,5,2\n"
            "2021-06-01T08:00:00,sideways,42,6.0,5,2\n"
            "2021-06-01T08:05:00,upstream,-1,6.0,5,2\n"
            "2021-06-01T08:10:00,upstream,42,0.0,5,2\n"
        ))
        result = load_surveillance(path, strict=False)
        assert result.items == ()
        assert [r.column for r in result.rejects] == [
            "interval_start", "direction", "flow_vph", "mean_speed_kmh",
        ]

    @given(st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_row_at_a_time_reference(self, data, strict):
        check_surveillance_reference(data, strict)

    @given(st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_in_small_blocks(self, data, strict):
        with small_blocks(data):
            check_surveillance_reference(data, strict)

    def test_first_failing_check_in_row_order_is_reported(self, tmp_path):
        path = write(tmp_path, "surv.csv", SURV_HEADER + (
            "2021-06-01T08:00:00,upstream,-1,oops,5,2\n"
            "2021-06-01T08:00:00,upstream,-1,0.0,x,2\n"
            "noon,sideways,1,1,1,1\n"
        ))
        result = load_surveillance(path, strict=False)
        assert [(r.column, r.message) for r in result.rejects] == [
            ("mean_speed_kmh", "cannot parse 'oops'"), ("flow_vph", "flow must be >= 0"),
            ("interval_start", "not ISO-8601: 'noon'")]

    @pytest.mark.parametrize("row, column, message", [
        ("{long},upstream,1,1,1,1", "interval_start", "not ISO-8601: 'xxx"),
        ("2021-06-01T08:00:00,{long},1,1,1,1", "direction",
         "must be one of ('upstream', 'downstream'), got 'xxx"),
        ("2021-06-01T08:00:00,upstream,{long},1,1,1", "flow_vph", "cannot parse 'xxx"),
        ("2021-06-01T08:00:00,upstream,1,1,1{long},1", "loaded_count", "cannot parse '1xx"),
    ])
    def test_long_cell_is_echoed_cut(self, tmp_path, row, column, message):
        path = write(tmp_path, "surv.csv", SURV_HEADER + row.format(long="x" * 100_000) + "\n")
        (reject,) = load_surveillance(path, strict=False).rejects
        assert (reject.column, reject.message[:len(message)]) == (column, message)
        assert len(reject.message) < 140 and reject.message.endswith("...")

    def test_non_finite_flow_rejected(self, tmp_path):
        path = write(tmp_path, "surv.csv", SURV_HEADER + (
            "2021-06-01T08:00:00,upstream,nan,6.0,5,2\n"
            "2021-06-01T08:05:00,upstream,42,inf,5,2\n"
        ))
        result = load_surveillance(path, strict=False)
        assert result.items == ()
        assert [(r.line, r.column) for r in result.rejects] == [
            (2, "flow_vph"), (3, "mean_speed_kmh"),
        ]


class TestReadColumns:
    def test_columns_in_requested_order(self, tmp_path):
        path = write(tmp_path, "kv.csv", "speed_kmh,note,density_vpkm\n9.5,a,1\n8.0,b,2.5\n")
        columns = read_columns(path, "density_vpkm", "speed_kmh")
        assert [c.dtype for c in columns] == [np.float64, np.float64]
        assert [c.tolist() for c in columns] == [[1.0, 2.5], [9.5, 8.0]]
        assert [c.tolist() for c in read_columns(path, "speed_kmh")] == [[9.5, 8.0]]

    def test_repeated_column_reads_its_last_occurrence(self, tmp_path):
        path = write(tmp_path, "kv.csv", "gap_m,speed_kmh,gap_m\n1,2,3\n")
        assert [c.tolist() for c in read_columns(path, "gap_m")] == [[3.0]]

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "kv.csv", "gap_m,speed_kmh\n")
        assert [c.tolist() for c in read_columns(path, "gap_m", "speed_kmh")] == [[], []]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "kv.csv", "gap_m\n1\n")
        with pytest.raises(ParseError, match="speed_kmh"):
            read_columns(path, "gap_m", "speed_kmh")

    @pytest.mark.parametrize("cell, message", [
        ("nan", "not a finite number"), ("-inf", "not a finite number"),
        ("fast", "cannot parse"), ("", "missing value"),
    ])
    def test_bad_cell_names_file_line_column(self, tmp_path, cell, message):
        path = write(tmp_path, "kv.csv", f"gap_m,speed_kmh\n10,5\n20,{cell}\n")
        with pytest.raises(ParseError, match=rf"kv\.csv:3:speed_kmh: {message}"):
            read_columns(path, "gap_m", "speed_kmh")

    def test_one_parse_per_block_and_no_view_of_it(self):
        """Every column of a plain block comes from one np.loadtxt call, and no numeric
        column is a view of its table: a view would keep every block's table alive."""
        lines = ["r1,1,0,3.5,4.5\n", "r 2,2,5,5.5,6.5\r\n"]
        with patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            typed = io_store._fast_columns(lines, [0, 1, 2, 3, 4], (str, int, int, float, float))
        assert loadtxt.call_count == 1
        assert [values if isinstance(values, list) else values.tolist() for values, _ in typed] \
            == [["r1", "r 2"], [1, 2], [0, 5], [3.5, 5.5], [4.5, 6.5]]
        assert all(values.base is None for values, _ in typed if isinstance(values, np.ndarray))

    @pytest.mark.parametrize("load", [
        lambda path: read_columns(path, "speed_kmh"), load_vessel_meta,
        lambda path: load_tracks(path, {}), load_surveillance,
    ], ids=["read_columns", "load_vessel_meta", "load_tracks", "load_surveillance"])
    @pytest.mark.parametrize("rows_before", [0, 20_000])  # in the first block, or past it
    def test_non_utf8_byte_names_the_file(self, tmp_path, load, rows_before):
        columns = sorted({"speed_kmh", *TRACK_COLUMNS, *META_COLUMNS, *SURVEILLANCE_COLUMNS})
        path = tmp_path / "bad.csv"
        path.write_bytes(",".join(columns).encode() + b"\n"
                         + (",".join("1" * len(columns)).encode() + b"\n") * rows_before
                         + b"\xff\n")
        with pytest.raises(ParseError, match=r"bad\.csv: not UTF-8 text: byte 0xff"):
            load(path)


# Per loader: how it loads (path, strict), its header, valid row i, a bad row and
# the column that row's reject names.
LINE_CASES = {
    "read_columns": (lambda path, strict: read_columns(path, "speed_kmh"), "speed_kmh",
                     lambda i: f"{i}.5", "abc", "speed_kmh"),
    "load_vessel_meta": (load_vessel_meta, META_HEADER, lambda i: f"a,{i + 1},85.0,12.0,loaded",
                         "b,1,oops,12.0,loaded", "length_m"),
    "load_tracks": (lambda path, strict: load_tracks(path, reference_meta(
                        [("a", 1, 85.0, 12.0, "loaded")]), strict=strict)[1],
                    TRACK_HEADER, lambda i: f"a,1,{i},{i}.0,0.0", "a,1,99,oops,0.0", "x_m"),
    "load_surveillance": (load_surveillance, SURV_HEADER,
                          lambda i: f"2021-06-01T08:{i:02d}:00,upstream,42,6.0,5,2",
                          "2021-06-01T09:00:00,upstream,-1,6.0,5,2", "flow_vph"),
}


class TestLineNumbers:
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_blank_lines_before_a_bad_row_shift_its_line_by_their_count(self, name, data):
        """k blank lines anywhere between the header and a bad row: its reject, strict or
        lenient, names line 2 + (rows before it) + k, at any block size."""
        load, header, good, bad, column = LINE_CASES[name]
        rows = [good(i) for i in range(data.draw(st.integers(2, 8), label="rows"))]
        before = data.draw(st.integers(0, len(rows)), label="rows before the bad row")
        rows.insert(before, bad)
        k = data.draw(st.integers(0, 6), label="blank lines")
        at = data.draw(st.integers(0, before), label="where the blank lines go")
        end = data.draw(st.sampled_from(LINE_ENDS), label="line end")
        lines = [header.strip()] + rows[:at] + [""] * k + rows[at:]
        line = 2 + before + k
        with tempfile.TemporaryDirectory() as tmp, patch.object(
                io_store, "_BLOCK_ROWS", data.draw(st.sampled_from([1, 2, 3, 16384]))):
            path = Path(tmp) / "data.csv"
            path.write_text("".join(text + end for text in lines), encoding="utf-8")
            with pytest.raises(ParseError, match=rf"data\.csv:{line}:{column}: "):
                load(path, True)
            if name != "read_columns":
                assert [(r.line, r.column) for r in load(path, False).rejects] == [(line, column)]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0, 1, 2.65, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 10 ** 400, 1e308]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)

FIT_NAMES = FAMILIES + ALL_FORMS
# What a model document's fit section accepts in its fields that are not measurements.
FIT_RULES = {
    "n_points": lambda v: type(v) is int and 2 <= v < 2 ** 63,
    "family": lambda v: v in FAMILIES + ALL_FORMS,
}


def has_boolean(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, bool) or isinstance(value, list) and any(map(has_boolean, value))


def make_document():
    model = FdModel(form="greenshields", c1=0.7634, c2=11.817)
    characteristics = derive_characteristics(model, V_MIN)
    fit = FitReport(family="linear", a=-0.7634, b=11.817,
                    r_squared=0.92, n_points=40)
    return ModelDocument(
        fd=model,
        v_min=V_MIN,
        characteristics=characteristics,
        bands=StateBands(boundaries=STATE_BOUNDARIES),
        fit=fit,
        created_utc="2021-06-01T00:00:00+00:00",
    )


# Values a field of a built document may be given: floats, booleans, and integers
# inside and just outside 64 bits.
FIELD_VALUES = (st.floats() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
                | st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 30]))
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
MODERATE = st.floats(-1e150, 1e150)  # k_m * v_m stays finite
# The top-level keys a model document may hold, as written by save_model.
DOCUMENT_KEYS = {"schema_version", "model", "v_min", "characteristics", "bands", "fit",
                 "created_utc"}


@st.composite
def fd_models(draw):
    form = draw(st.sampled_from(ALL_FORMS))
    plateau = {"v_f": draw(POSITIVE), "k1": draw(POSITIVE)} if form.startswith("piecewise") else {}
    return FdModel(form, draw(POSITIVE), draw(POSITIVE), **plateau)


@st.composite
def characteristic_params(draw):
    k_m, v_m = draw(MODERATE), draw(MODERATE)
    return CharacteristicParams(v_f=draw(st.none() | MODERATE), v_m=v_m, k_m=k_m, q_m=k_m * v_m,
                                k_max=draw(MODERATE), v_min=draw(MODERATE))


@st.composite
def model_documents(draw):
    """A document with a diagram model and/or state bands, plus any subset of the rest."""
    parts = {
        "fd": fd_models(), "v_min": POSITIVE, "characteristics": characteristic_params(),
        "bands": st.lists(POSITIVE, min_size=3, max_size=3, unique=True).map(
            lambda b: StateBands(boundaries=sorted(b))),
        "fit": st.builds(FitReport, st.sampled_from(FIT_NAMES), MODERATE, MODERATE, MODERATE,
                         st.integers(2, 2 ** 63 - 1)),
        "created_utc": st.text(max_size=12),
    }
    sections = draw(st.fixed_dictionaries({}, optional=parts))
    if "fd" not in sections and "bands" not in sections:
        required = draw(st.sampled_from(["fd", "bands"]), label="required")
        sections[required] = draw(parts[required])
    return ModelDocument(**sections)


class TestModelDocument:
    @given(model_documents(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_document_round_trips_and_refuses_an_extra_key(self, doc, data):
        """save -> load gives the document back and re-saves the same bytes; one more
        top-level key, whatever its value, makes the document malformed."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(doc, path)
            text = path.read_text(encoding="utf-8")
            assert load_model(path) == doc
            assert serialize_document(load_model(path)) == text
            raw = json.loads(text)
            assert set(raw) <= DOCUMENT_KEYS
            key = data.draw(st.text(max_size=8).filter(lambda k: k not in DOCUMENT_KEYS),
                            label="extra key")
            raw[key] = data.draw(JSON_VALUES, label="extra value")
            path.write_text(json.dumps(raw), encoding="utf-8")
            with pytest.raises(ParseError):
                load_model(path)

    def test_requires_model_or_bands(self):
        with pytest.raises(DomainError):
            ModelDocument()
        ModelDocument(bands=StateBands(boundaries=STATE_BOUNDARIES))
        ModelDocument(fd=FdModel(form="underwood", c1=13.0, c2=0.107))

    def test_fit_of_no_known_family_is_refused_when_built(self):
        """The writer holds the rule the reader holds: no document saves what cannot load."""
        fit = FitReport(family="quadratic", a=1.0, b=1.0, r_squared=0.5, n_points=3)
        with pytest.raises(DomainError, match="unknown fit family 'quadratic'"):
            ModelDocument(fd=FdModel(form="underwood", c1=13.0, c2=0.107), fit=fit)

    @pytest.mark.parametrize("sections", [
        {"fd": FdModel("greenshields", 0.7634, 11.817), "created_utc": 5},
        {"fd": FdModel("greenshields", 0.7634, 11.817), "v_min": True},
        {"fd": FdModel("greenshields", 0.7634, 11.817), "v_min": 10 ** 30},
        {"fd": FdModel("greenshields", True, 10.0)},
        {"bands": StateBands((True, 2.0, 3.0))},
        {"bands": StateBands(STATE_BOUNDARIES),
         "fit": FitReport("linear", 1.0, 1.0, 0.5, 2 ** 70)},
    ], ids=["created_utc", "v_min_true", "v_min_past_64_bits", "c1_true", "boundary_true",
            "n_points_past_64_bits"])
    def test_what_load_model_refuses_is_refused_when_built(self, sections):
        with pytest.raises(DomainError, match="created_utc|true or false|64 bits"):
            ModelDocument(**sections)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_built_document_loads_back_equal(self, data):
        """One field and created_utc set to any value: building the document raises a
        FairwayError, or save_model -> load_model gives it back equal."""
        doc = make_document()
        name = data.draw(st.sampled_from(["fd", "v_min", "characteristics", "bands", "fit"]),
                         label="section")
        value = data.draw(POSITIVE | FIELD_VALUES, label="value")
        created = data.draw(st.sampled_from([st.none(), st.text(max_size=8), FIELD_VALUES])
                            .flatmap(lambda values: values), label="created_utc")
        try:
            if name == "v_min":
                section = value
            elif name == "bands":
                boundaries = list(doc.bands.boundaries)
                boundaries[data.draw(st.integers(0, 2), label="boundary")] = value
                section = StateBands(boundaries)
            else:
                fields = [f.name for f in dataclasses.fields(getattr(doc, name))]
                field = data.draw(st.sampled_from(fields), label="field")
                section = dataclasses.replace(getattr(doc, name), **{field: value})
            doc = dataclasses.replace(doc, **{name: section, "created_utc": created})
        except FairwayError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(doc, path)
            assert load_model(path) == doc

    def test_dict_round_trip_identity(self):
        doc = make_document()
        assert document_from_dict(document_to_dict(doc)) == doc

    @pytest.mark.parametrize("fit_space", ["original", "transformed"])
    def test_legacy_fit_space_key_is_malformed(self, tmp_path, fit_space):
        """A fit section carrying fit_space holds an R^2 of another definition: refused."""
        raw = document_to_dict(make_document())
        raw["fit"]["fit_space"] = fit_space
        with pytest.raises(ParseError, match="malformed model document.*fit_space"):
            load_model(write(tmp_path, "legacy.json", json.dumps(raw)))

    @pytest.mark.parametrize("key", ["note", "fd", "schema", "Model"])
    def test_unknown_top_level_key_is_malformed(self, tmp_path, key):
        raw = document_to_dict(make_document())
        raw[key] = {}
        with pytest.raises(ParseError, match=f"unknown top-level key.*{key}"):
            load_model(write(tmp_path, "model.json", json.dumps(raw)))

    @pytest.mark.parametrize("fit", ["logarithmic", 3, None, [["family", "linear"]]])
    def test_fit_section_that_is_not_an_object_is_malformed(self, tmp_path, fit):
        raw = document_to_dict(make_document())
        raw["fit"] = fit
        with pytest.raises(ParseError, match="malformed model document"):
            load_model(write(tmp_path, "model.json", json.dumps(raw)))

    def test_save_load_round_trip(self, tmp_path):
        doc = make_document()
        path = tmp_path / "model.json"
        save_model(doc, path)
        assert load_model(path) == doc

    def test_serialization_is_byte_deterministic(self, tmp_path):
        doc = make_document()
        first = serialize_document(doc)
        second = serialize_document(load_model_roundtrip(tmp_path, doc))
        assert first == second

    def test_full_float_precision_preserved(self, tmp_path):
        doc = make_document()
        path = tmp_path / "model.json"
        save_model(doc, path)
        loaded = load_model(path)
        assert loaded.characteristics.k_max == doc.characteristics.k_max
        assert loaded.fd.c1 == doc.fd.c1

    def test_schema_version_mismatch(self, tmp_path):
        doc = make_document()
        raw = document_to_dict(doc)
        raw["schema_version"] = 99
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(SchemaVersionError, match="99"):
            load_model(path)

    def test_malformed_json(self, tmp_path):
        path = write(tmp_path, "model.json", "{not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_non_object_document(self, tmp_path):
        path = write(tmp_path, "model.json", '[1, 2, 3]')
        with pytest.raises(ParseError):
            load_model(path)

    def test_invalid_coefficients_rejected_on_load(self, tmp_path):
        raw = document_to_dict(make_document())
        raw["model"]["c2"] = -11.817
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(DomainError, match="positive"):
            load_model(path)

    @pytest.mark.parametrize("v_min", ["NaN", "Infinity", "-1.0", "0.0"])
    def test_bad_v_min_rejected_on_load(self, tmp_path, v_min):
        text = json.dumps(document_to_dict(make_document())).replace(
            f'"v_min": {V_MIN}', f'"v_min": {v_min}', 1)
        assert f'"v_min": {v_min}' in text
        path = write(tmp_path, "model.json", text)
        with pytest.raises(DomainError, match="v_min"):
            load_model(path)

    @pytest.mark.parametrize("name", ["v_m", "k_m", "q_m", "k_max", "v_f", "v_min"])
    def test_non_finite_characteristics_rejected_on_load(self, tmp_path, name):
        raw = document_to_dict(make_document())
        raw["characteristics"][name] = math.nan
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(DomainError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("section", ["model", "characteristics", "fit", "bands"])
    def test_unknown_key_in_a_section_is_malformed(self, tmp_path, section):
        raw = document_to_dict(make_document())
        raw[section]["colour"] = "red"
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(ParseError, match="colour"):
            load_model(path)

    @pytest.mark.parametrize("section, key", [
        ("characteristics", "v_f"), ("model", "c1"), ("fit", "n_points"), ("bands", "boundaries"),
    ])
    def test_section_missing_a_field_is_malformed(self, tmp_path, section, key):
        """Characteristics without v_f included: a logarithmic form's is null, never absent."""
        raw = document_to_dict(make_document())
        del raw[section][key]
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(ParseError, match=f"malformed model document.*{key}"):
            load_model(path)

    @pytest.mark.parametrize("section, key", [
        ("model", "c1"), (None, "v_min"), ("characteristics", "k_m"), ("fit", "n_points"),
        (None, "schema_version"), (None, "created_utc"), (None, "note"),
    ])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_anywhere_is_malformed(self, tmp_path, section, key, value):
        raw = document_to_dict(make_document())
        (raw if section is None else raw[section])[key] = value
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(ParseError, match="true or false"):
            load_model(path)

    def test_boolean_boundary_is_malformed(self, tmp_path):
        raw = document_to_dict(make_document())
        raw["bands"]["boundaries"][0] = True
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(ParseError, match="true or false"):
            load_model(path)

    @pytest.mark.parametrize("created", [5, 1.5, None, ["2021-06-01"], {}])
    def test_created_utc_must_be_a_string(self, tmp_path, created):
        raw = document_to_dict(make_document())
        raw["created_utc"] = created
        path = write(tmp_path, "model.json", json.dumps(raw))
        with pytest.raises(ParseError, match="created_utc"):
            load_model(path)

    @pytest.mark.parametrize("number", ["9223372036854775808", "-9223372036854775809",
                                        "1" + "0" * 400, "1" * 5000])
    def test_integer_past_64_bits_is_malformed(self, tmp_path, number):
        text = json.dumps(document_to_dict(make_document())).replace(
            '"n_points": 40', f'"n_points": {number}', 1)
        path = write(tmp_path, "model.json", text)
        with pytest.raises(ParseError, match="malformed"):
            load_model(path)

    def test_text_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"schema_version": 1, "created_utc": "\xff"}')
        with pytest.raises(ParseError, match="malformed"):
            load_model(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_field_value_loads_or_raises_a_fairway_error(self, data):
        """Any JSON value in any field: a document or a FairwayError, never another exception."""
        raw = document_to_dict(make_document())
        place = data.draw(st.sampled_from([None, "model", "characteristics", "bands", "fit",
                                           "boundaries"]), label="section")
        target = {None: raw, "boundaries": raw["bands"]["boundaries"]}.get(place, raw.get(place))
        key = data.draw(st.sampled_from(range(3) if place == "boundaries"
                                        else sorted(target) + ["colour"]), label="key")
        value = data.draw(JSON_VALUES | st.sampled_from(FIT_NAMES), label="value")
        target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "model.json", json.dumps(raw))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    doc = load_model(path)
                except FairwayError:
                    doc = None
        assert doc is None or isinstance(doc, ModelDocument)
        if has_boolean(value):
            assert doc is None
        if place == "fit" and key in FIT_RULES:
            assert (doc is not None) == FIT_RULES[key](value)

    def test_json_text_is_strict(self):
        assert json_text({"b": 1.5, "a": [2]}) == '{"a": [2], "b": 1.5}'
        with pytest.raises(DomainError, match="strict JSON"):
            json_text({"p15": math.inf})

    def test_inconsistent_characteristics_rejected(self):
        with pytest.raises(DomainError, match="q_m"):
            CharacteristicParams(v_f=11.8, v_m=5.9, k_m=7.7, q_m=99.0,
                                 k_max=12.0, v_min=V_MIN)


def load_model_roundtrip(tmp_path, doc):
    path = tmp_path / "roundtrip.json"
    save_model(doc, path)
    return load_model(path)


class TestEmitCurveSamples:
    MODEL = FdModel(form="piecewise_linear", c1=0.667, c2=10.92, v_f=10.5, k1=4.0)

    def test_grid_rows_and_invariant(self, tmp_path):
        path = tmp_path / "curve.csv"
        n = emit_curve_samples(self.MODEL, (0.5, 12.0), 0.5, path)
        assert n == 24
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 24
        ks = [float(r["k"]) for r in rows]
        assert ks[0] == 0.5 and ks[-1] == 12.0
        for row in rows:
            k, v, q = (float(row[c]) for c in ("k", "v", "q"))
            assert v == pytest.approx(speed_at_density(self.MODEL, k), rel=1e-12)
            assert q == pytest.approx(k * v, rel=1e-12)

    def test_plateau_value_on_grid(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_curve_samples(self.MODEL, (0.5, 12.0), 0.5, path)
        with open(path, newline="") as handle:
            by_k = {float(r["k"]): float(r["v"]) for r in csv.DictReader(handle)}
        assert by_k[4.0] == 10.5  # breakpoint is still free-flow
        assert by_k[4.5] == pytest.approx(-0.667 * 4.5 + 10.92)

    def test_bad_arguments(self, tmp_path):
        path = tmp_path / "curve.csv"
        with pytest.raises(DomainError):
            emit_curve_samples(self.MODEL, (0.5, 12.0), 0.0, path)
        with pytest.raises(DomainError):
            emit_curve_samples(self.MODEL, (12.0, 0.5), 0.5, path)

    @pytest.mark.parametrize("k_range, step", [
        ((0.5, math.inf), 0.5), ((-math.inf, 12.0), 0.5), ((math.nan, 12.0), 0.5),
        ((0.5, 12.0), math.nan), ((0.5, 12.0), math.inf),
    ])
    def test_non_finite_arguments_rejected_before_writing(self, tmp_path, k_range, step):
        path = tmp_path / "curve.csv"
        with pytest.raises(DomainError):
            emit_curve_samples(self.MODEL, k_range, step, path)
        assert not path.exists()

    def test_single_point_range(self, tmp_path):
        path = tmp_path / "curve.csv"
        assert emit_curve_samples(self.MODEL, (2.0, 2.0), 0.5, path) == 1

    @pytest.mark.parametrize("form", ["greenshields", "greenberg", "underwood",
                                      "piecewise_linear", "piecewise_log", "piecewise_exp"])
    @pytest.mark.parametrize("k_range, step", [
        ((0.5, 12.0), 0.5), ((2.0, 2.0), 0.5), ((1.0, 10.0), 1.0), ((0.1, 1.0), 0.1),
        ((0.3, 0.9), 0.3), ((0.1, 0.7), 0.2), ((0.7, 3.3), 0.65), ((1.0, 1.0 + 1e-12), 1e-13),
        ((50.0, 50.0 + 1e-12), 1e-15),  # a step below the float spacing at 50
    ])
    def test_same_bytes_as_the_row_loop(self, tmp_path, form, k_range, step):
        extra = {"v_f": 10.5, "k1": 4.0} if form.startswith("piecewise") else {}
        model = FdModel(form=form, c1=13.62 if form.endswith("exp") else 0.667,
                        c2=0.115 if form.endswith("exp") else 10.92, **extra)
        path = tmp_path / "curve.csv"
        rows = emit_curve_samples(model, k_range, step, path)
        assert path.read_bytes() == reference_curve_csv(model, k_range, step).encode()
        assert rows == path.read_bytes().count(b"\n") - 1

    def test_grid_past_the_row_limit_refused_before_writing(self, tmp_path):
        path = tmp_path / "curve.csv"
        with pytest.raises(DomainError, match="1000000 rows"):
            emit_curve_samples(self.MODEL, (0.0, 1.1), 1e-6, path)
        with pytest.raises(DomainError, match="rows"):
            emit_curve_samples(self.MODEL, (0.5, 12.0), 5e-324, path)
        assert not path.exists()


def reference_curve_csv(model, k_range, step) -> str:
    """The per-row loop that emit_curve_samples replaced."""
    lo, hi = k_range
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["k", "v", "q"])
    k, rows = lo, 0
    while k <= hi + 1e-12:
        v = speed_at_density(model, k)
        writer.writerow([repr(k), repr(v), repr(k * v)])
        rows += 1
        k = lo + rows * step
    return out.getvalue()
