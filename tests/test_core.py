"""Panel ingest, haversine distances, and criterion covariance matrices."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecast import (
    AssetMeta,
    AssetPanel,
    Bundling,
    Criterion,
    covariance,
    difference,
    haversine_matrix,
    ingest_panel,
    objective,
    seasonal_adjust,
)
from bundlecast import core
from bundlecast.core import (
    EARTH_RADIUS_KM,
    SERIES_BLOCK_ROWS,
    parse_utc_timestamp,
    read_assets_csv,
    write_panel_csv,
)
from bundlecast.errors import FormatError, InsufficientDataError, ValueOutOfRangeError

from conftest import (
    assert_bits_equal,
    make_panel,
    random_bundling_labels,
    random_panel,
    signed_zeros,
)
from oracles import haversine_expression, population_covariance_expression


def haversine_single(lat1, lon1, lat2, lon2):
    """Independent scalar haversine used as the distance oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


# --- AssetMeta / AssetPanel validation --------------------------------------

def test_asset_meta_rejects_bad_fields():
    with pytest.raises(FormatError):
        AssetMeta("x", 91.0, 0.0, 10.0)
    with pytest.raises(FormatError):
        AssetMeta("x", 0.0, 181.0, 10.0)
    with pytest.raises(ValueOutOfRangeError):
        AssetMeta("x", 0.0, 0.0, 0.0)
    with pytest.raises(ValueOutOfRangeError):
        AssetMeta("x", 0.0, 0.0, -5.0)


def test_panel_rejects_duplicate_ids():
    assets = (AssetMeta("a", 40, -100, 10), AssetMeta("a", 41, -101, 10))
    ts = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(4)
    with pytest.raises(FormatError, match=r"duplicate asset ids: \['a'\]"):
        AssetPanel(assets, ts, np.ones((2, 4)))


def test_panel_rejects_value_above_capacity():
    with pytest.raises(ValueOutOfRangeError):
        make_panel([[1.0, 12.0, 1.0]], caps=[10.0])


def test_panel_leaves_the_callers_arrays_writeable():
    assets = (AssetMeta("a", 40, -100, 10), AssetMeta("b", 41, -101, 10))
    ts = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(3)
    values = np.ones((2, 3))
    panel = AssetPanel(assets, ts, values)
    assert ts.flags.writeable and values.flags.writeable
    assert not panel.timestamps.flags.writeable and not panel.values.flags.writeable
    with pytest.raises(ValueError):
        panel.values[0, 0] = 2.0
    values[0, 0] = 2.0  # the caller may still write its own array


def test_panel_window_and_index():
    panel = make_panel(np.arange(10.0)[None, :], caps=[100.0])
    sub = panel.window(panel.timestamps[2], panel.timestamps[6])
    assert sub.n_steps == 5
    assert sub.values[0, 0] == 2.0
    assert panel.index_of(panel.timestamps[3]) == 3


# --- ingest ------------------------------------------------------------------

ASSETS_CSV = """asset_id,latitude_deg,longitude_deg,capacity_mw
w1,40.0,-100.0,10.0
w2,41.0,-101.0,20.0
w3,42.0,-102.0,30.0
"""


def write_series(path, ids, rows):
    lines = ["timestamp," + ",".join(ids)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def series_rows(n_rows, ids=("w1", "w2", "w3"), skip=None):
    t0 = np.datetime64("2019-01-08T00:00:00", "s")
    rows = []
    for t in range(n_rows):
        if skip is not None and t == skip:
            continue
        ts = t0 + np.timedelta64(900 * t, "s")
        rows.append([str(np.datetime_as_string(ts, unit="s")) + "Z"] + ["1.5"] * len(ids))
    return rows


def test_ingest_small_panel(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    write_series(series, ["w1", "w2", "w3"], series_rows(96))
    panel = ingest_panel(assets, series)
    assert panel.n_assets == 3
    assert panel.n_steps == 96
    assert panel.asset_ids == ("w1", "w2", "w3")


def test_ingest_column_order_defines_asset_order(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    write_series(series, ["w3", "w1", "w2"], series_rows(8, ids=["w3", "w1", "w2"]))
    panel = ingest_panel(assets, series)
    assert panel.asset_ids == ("w3", "w1", "w2")
    assert panel.assets[0].capacity_mw == 30.0


def test_ingest_rejects_timestamp_gap(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    write_series(series, ["w1", "w2", "w3"], series_rows(10, skip=4))
    with pytest.raises(FormatError, match="non-uniform step"):
        ingest_panel(assets, series)


def test_ingest_rejects_value_out_of_range(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    rows = series_rows(6)
    rows[3][1] = "12.0"  # w1 capacity is 10.0
    write_series(series, ["w1", "w2", "w3"], rows)
    with pytest.raises(ValueOutOfRangeError):
        ingest_panel(assets, series)


def test_ingest_rejects_missing_and_unknown_columns(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    write_series(series, ["w1", "w2"], series_rows(6, ids=["w1", "w2"]))
    with pytest.raises(FormatError, match="assets missing from series file"):
        ingest_panel(assets, series)
    write_series(series, ["w1", "w2", "w3", "w4"], series_rows(6, ids=["w1", "w2", "w3", "w4"]))
    with pytest.raises(FormatError, match="series columns without metadata"):
        ingest_panel(assets, series)


def test_ingest_rejects_duplicate_asset_rows(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV + "w1,40.0,-100.0,10.0\n")
    write_series(series, ["w1", "w2", "w3"], series_rows(6))
    with pytest.raises(FormatError, match="duplicate asset id 'w1'"):
        ingest_panel(assets, series)


def test_ingest_rejects_non_utc_timestamp(tmp_path):
    assets = tmp_path / "assets.csv"
    series = tmp_path / "series.csv"
    assets.write_text(ASSETS_CSV)
    rows = series_rows(6)
    rows[0][0] = rows[0][0][:-1]  # strip the Z
    write_series(series, ["w1", "w2", "w3"], rows)
    with pytest.raises(FormatError):
        ingest_panel(assets, series)


def write_inputs(tmp_path, rows, assets_text=ASSETS_CSV):
    """Write ``a.csv`` and ``s.csv`` (ids w1..w3) and return their paths."""
    assets, series = tmp_path / "a.csv", tmp_path / "s.csv"
    assets.write_text(assets_text)
    write_series(series, ["w1", "w2", "w3"], rows)
    return assets, series


FIELD_LIMIT_MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("cell, error, message", [
    pytest.param("", ValueOutOfRangeError, "missing value for 'w2'", id="empty"),
    pytest.param("  \t", ValueOutOfRangeError, "missing value for 'w2'", id="whitespace"),
    pytest.param("1.5x", FormatError, "unparsable value '1.5x'", id="unparsable"),
    pytest.param(" x ", FormatError, "unparsable value 'x'", id="unparsable-padded"),
    pytest.param("0" * 140_000, FormatError, FIELD_LIMIT_MESSAGE, id="oversized"),
])
def test_ingest_names_the_bad_cell(tmp_path, cell, error, message):
    """A bad cell after good rows is reported with its line (the header is line 1)."""
    rows = series_rows(6)
    rows[3][2] = cell
    assets, series = write_inputs(tmp_path, rows)
    with pytest.raises(error, match=re.escape(f"{series} row 5: {message}")):
        ingest_panel(assets, series)


@pytest.mark.parametrize("stamps, line, message", [
    pytest.param(["2019-01-08T00:00:00.5Z", "2019-01-08T00:15:00.5Z", "2019-01-08T00:30:00.9Z"],
                 2, "timestamp '2019-01-08T00:00:00.5Z' is not a whole second", id="sub-second"),
    pytest.param(["NaTZ"], 2, "unparsable timestamp 'NaTZ'", id="nat"),
    pytest.param([None, "2019-13-01T00:15:00Z"], 3,
                 "unparsable timestamp '2019-13-01T00:15:00Z'", id="bad-month"),
    pytest.param(["nowZ"], 2, "unparsable timestamp 'nowZ'", id="now"),
    pytest.param(["20190108Z"], 2, "unparsable timestamp '20190108Z'", id="basic-date"),
    # numpy would shift this stamp by an hour and warn; the suite turns warnings into errors
    pytest.param(["2019-01-08T00:00:00+01:00Z"], 2,
                 "unparsable timestamp '2019-01-08T00:00:00+01:00Z'", id="offset-then-z"),
])
def test_ingest_names_the_bad_timestamp(tmp_path, stamps, line, message):
    """A stamp that is not a whole UTC second is reported with its line, never
    truncated into a grid or read as no time."""
    rows = series_rows(6)
    for row, stamp in zip(rows, stamps):
        row[0] = stamp or row[0]
    assets, series = write_inputs(tmp_path, rows)
    with pytest.raises(FormatError, match=re.escape(f"{series} row {line}: {message}")):
        ingest_panel(assets, series)


def test_ingest_rejects_a_wrong_field_count(tmp_path):
    rows = series_rows(6)
    rows[3].append("1.5")
    assets, series = write_inputs(tmp_path, rows)
    with pytest.raises(FormatError, match=re.escape(f"{series} row 5: expected 4 fields, got 5")):
        ingest_panel(assets, series)


@pytest.mark.parametrize("padded", [" 0.1", "0.1  ", "\t0.1 ", "\x1c0.1\x1f"])
def test_ingest_accepts_padded_cells(tmp_path, padded):
    """Whitespace around a number (as ``str.strip`` counts it) is ignored, bit for bit."""
    rows = series_rows(6)
    rows[3][2] = padded
    panel = ingest_panel(*write_inputs(tmp_path, rows))
    assert panel.values[1, 3].tobytes() == np.float64(0.1).tobytes()
    assert np.all(np.delete(panel.values, 3, axis=1) == 1.5)


def test_ingest_series_errors_count_blank_lines(tmp_path):
    rows = series_rows(6)
    rows[1][1] = "x"
    assets, series = write_inputs(tmp_path, rows)
    lines = series.read_text().split("\n")
    series.write_text("\n".join(lines[:2] + [""] + lines[2:]))  # blank line 3
    with pytest.raises(FormatError, match=re.escape(f"{series} row 4: unparsable value 'x'")):
        ingest_panel(assets, series)


def test_ingest_asset_errors_count_blank_lines(tmp_path):
    lines = ASSETS_CSV.split("\n")
    lines[2] = "w2,41.0,-101.0"
    assets, series = write_inputs(tmp_path, series_rows(6),
                                  "\n".join(lines[:2] + [""] + lines[2:]))
    with pytest.raises(FormatError, match=re.escape(f"{assets}:4: expected 4 fields, got 3")):
        ingest_panel(assets, series)
    lines[2] = "w2,north,-101.0,20.0"
    assets.write_text("\n".join(lines[:2] + ["", ""] + lines[2:]))
    with pytest.raises(FormatError, match=re.escape(f"{assets}:5: could not convert")):
        ingest_panel(assets, series)


@pytest.mark.parametrize("row, line, error, message", [
    ("w2,95.0,-101.0,20.0", 3, FormatError, "asset 'w2': latitude 95.0 outside [-90, 90]"),
    ("w2,41.0,-181.0,20.0", 3, FormatError,
     "asset 'w2': longitude -181.0 outside [-180, 180]"),
    ("w2,41.0,-101.0,-1.0", 3, ValueOutOfRangeError,
     "asset 'w2': capacity_mw must be finite and > 0, got -1.0"),
    (" ,41.0,-101.0,20.0", 3, FormatError, "asset_id must be a non-empty string"),
    # CSV quoting lets an id hold a line break, which would split its line in
    # every file that lists the id; the row ends on line 4, the line named
    ('"w\n2",41.0,-101.0,20.0', 4, FormatError, r"asset id 'w\n2' holds a line break"),
    ('"w\r2",41.0,-101.0,20.0', 4, FormatError, r"asset id 'w\r2' holds a line break"),
    # a ',' would add a field to every line that lists the id, and a '"' would open a
    # quoted field in a standard CSV reader
    ('"w,2",41.0,-101.0,20.0', 3, FormatError, "asset id 'w,2' holds a ',' or '\"'"),
    ('"""w2",41.0,-101.0,20.0', 3, FormatError, "asset id '\"w2' holds a ',' or '\"'"),
    ("w2,41.0,-101.0," + "0" * 140_000, 3, FormatError, FIELD_LIMIT_MESSAGE),
], ids=["latitude", "longitude", "capacity", "empty-id", "LF-in-id", "CR-in-id", "comma-in-id",
        "quote-in-id", "oversized"])
def test_ingest_names_the_line_of_a_bad_asset(tmp_path, row, line, error, message):
    assets, series = write_inputs(tmp_path, series_rows(6),
                                  ASSETS_CSV.replace("w2,41.0,-101.0,20.0", row))
    with pytest.raises(error, match=re.escape(f"{assets}:{line}: {message}")):
        ingest_panel(assets, series)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_names_where_a_value_is_not_finite(tmp_path, cell):
    rows = series_rows(6)
    rows[3][2] = cell
    rows[4][3] = cell  # a later one is not the one named
    with pytest.raises(ValueOutOfRangeError,
                       match=re.escape(f"value {float(cell)} for asset 'w2' at "
                                       f"2019-01-08T00:45:00Z is not finite")):
        ingest_panel(*write_inputs(tmp_path, rows))


def _reference_ingest(assets_file, series_file):
    """The row loop: one csv row at a time, one Python ``float`` per cell."""
    by_id = {a.asset_id: a for a in read_assets_csv(assets_file)}
    with open(series_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row)
        _, header = next(rows)
        series_ids = [c.strip() for c in header[1:]]
        timestamps, columns = [], []
        for ln, row in rows:
            if len(row) != len(series_ids) + 1:
                raise FormatError(f"{series_file} row {ln}: expected {len(series_ids) + 1} "
                                  f"fields, got {len(row)}")
            try:
                timestamps.append(parse_utc_timestamp(row[0]))
            except FormatError as exc:
                raise FormatError(f"{series_file} row {ln}: {exc}") from None
            cells = []
            for sid, cell in zip(series_ids, row[1:]):
                try:
                    cells.append(float(cell))
                    continue
                except ValueError:
                    cell = cell.strip()
                if not cell:
                    raise ValueOutOfRangeError(f"{series_file} row {ln}: missing value for {sid!r}")
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise FormatError(f"{series_file} row {ln}: unparsable value {cell!r}")
            columns.append(np.array(cells))
    values = np.stack(columns, axis=1) if columns else np.empty((len(series_ids), 0))
    return AssetPanel(tuple(by_id[i] for i in series_ids),
                      np.array(timestamps, dtype="datetime64[s]"), values)


def _outcome(ingest, assets, series):
    try:
        return ingest(assets, series)
    except Exception as exc:  # the reference's exception is the expected outcome
        return type(exc), str(exc)


def _cell_mutation(kind, cell):
    if kind == "quote":
        return f'"{cell}"'
    if kind == "pad":
        return f"\x1c{cell}\x1f"
    if kind == "underscore":
        return re.sub(r"(\d)(\d)", r"\1_\2", cell, count=1)
    if kind == "empty":
        return ""
    if kind == "bad":
        return "x"
    return cell.replace("Z", "+01:00")  # "non_utc"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ingest_matches_the_row_loop_on_mutated_files(tmp_path_factory, data):
    """Blocks of np.loadtxt give the row loop's panel bit for bit, or its error."""
    n_rows = data.draw(st.integers(2, 2 * SERIES_BLOCK_ROWS + 10), label="n_rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    caps = np.array([10.0, 20.0, 30.0])
    values = np.random.default_rng(seed).uniform(0.0, 1.0, (n_rows, 3)) * caps
    values[values < 1.0] = 0.0  # zeros, some written as -0.000000 below
    cells = [[row[0], *(f"{v:.6f}" for v in values[t])]
             for t, row in enumerate(series_rows(n_rows))]
    for row in cells[1::7]:
        row[1] = row[1].replace("0.000000", "-0.000000")
    for _ in range(data.draw(st.integers(0, 3), label="n_cell_mutations")):
        kind = data.draw(st.sampled_from(["quote", "pad", "underscore", "empty", "non_utc",
                                          "bad"]), label="cell_mutation")
        first = SERIES_BLOCK_ROWS if kind == "bad" and n_rows > SERIES_BLOCK_ROWS else 0
        t = data.draw(st.integers(first, n_rows - 1), label="row")
        col = 0 if kind == "non_utc" else data.draw(st.integers(0 if kind == "quote" else 1, 3),
                                                    label="col")
        cells[t][col] = _cell_mutation(kind, cells[t][col])
    lines = ["timestamp,w1,w2,w3"] + [",".join(row) for row in cells]
    endings = ["\n"] * len(lines)
    for _ in range(data.draw(st.integers(0, 3), label="n_line_mutations")):
        kind = data.draw(st.sampled_from(["blank", "whitespace", "crlf", "cr", "extra", "fewer",
                                          "header_only"]), label="line_mutation")
        at = data.draw(st.integers(1, len(lines)), label="line")
        if kind in ("blank", "whitespace"):
            lines.insert(at, "" if kind == "blank" else data.draw(st.sampled_from([" ", "\t"])))
            endings.insert(at, data.draw(st.sampled_from(["\n", "\r\n", "\r"])))
        elif kind in ("crlf", "cr"):
            endings[at - 1:] = [{"crlf": "\r\n", "cr": "\r"}[kind]] * (len(lines) - at + 1)
        elif kind == "header_only":
            lines, endings = lines[:1], endings[:1]
        elif at < len(lines):
            lines[at] = lines[at] + ",1.0" if kind == "extra" else lines[at].rsplit(",", 1)[0]
    directory = tmp_path_factory.mktemp("mutated")
    assets, series = directory / "a.csv", directory / "s.csv"
    assets.write_text(ASSETS_CSV)
    series.write_bytes("".join(map(str.__add__, lines, endings)).encode("utf-8"))

    expected = _outcome(_reference_ingest, assets, series)
    got = _outcome(ingest_panel, assets, series)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, AssetPanel) and got.assets == expected.assets
    assert got.timestamps.tobytes() == expected.timestamps.tobytes()
    assert got.values.shape == expected.values.shape
    assert got.values.tobytes() == expected.values.tobytes()


def test_ingest_parses_a_clean_file_without_the_row_loop(tmp_path, monkeypatch):
    def no_row_loop(*args):
        raise AssertionError("the row loop parsed a clean file")

    monkeypatch.setattr(core, "_parse_rows", no_row_loop)
    panel = ingest_panel(*write_inputs(tmp_path, series_rows(3 * SERIES_BLOCK_ROWS + 5)))
    assert panel.n_steps == 3 * SERIES_BLOCK_ROWS + 5 and np.all(panel.values == 1.5)


def test_panel_csv_round_trip(tmp_path, rng):
    panel = random_panel(rng, 4, 20)
    write_panel_csv(panel, tmp_path / "a.csv", tmp_path / "s.csv")
    back = ingest_panel(tmp_path / "a.csv", tmp_path / "s.csv")
    assert back.asset_ids == panel.asset_ids
    np.testing.assert_allclose(back.values, panel.values, atol=1e-6)


def test_panel_csv_series_text_matches_per_cell_formatting(tmp_path, rng):
    panel = random_panel(rng, 5, 30)
    values = np.array(panel.values)
    caps = np.array([a.capacity_mw for a in panel.assets])
    values[0, :4] = 0.0
    values[0, 4] = -0.0
    values[2, 5] = 0.0078125  # halfway between two 6-decimal texts
    values[1, 10:] = caps[1]
    values[:, 7] = caps
    # a "%" in an id must reach the header as written, not act on the line template
    assets = tuple(AssetMeta(a.asset_id + suffix, a.latitude_deg, a.longitude_deg, a.capacity_mw)
                   for a, suffix in zip(panel.assets, ["", "%", "%s", "%%", "100%"]))
    panel = AssetPanel(assets, panel.timestamps, values)
    write_panel_csv(panel, tmp_path / "a.csv", tmp_path / "s.csv")
    expected = ["timestamp," + ",".join(panel.asset_ids)]
    for t, stamp in enumerate(panel.timestamps):
        cells = ",".join("%.6f" % v for v in values[:, t])
        expected.append(f"{np.datetime_as_string(stamp, unit='s')}Z,{cells}")
    text = (tmp_path / "s.csv").read_text()
    assert text == "\n".join(expected) + "\n"
    assert ",-0.000000," in text and ",0.007812," in text
    assert ingest_panel(tmp_path / "a.csv", tmp_path / "s.csv").asset_ids == panel.asset_ids


@pytest.mark.parametrize("capacity, text", [
    (100.00004, "100.0001"),  # "100.0000" reads back below a value written as 100.000040
    (1e-5, "0.0001"),         # "0.0000" reads back as no capacity at all
    (99.99994, "100.0000"),   # the step up carries into the integer part
    (12.3, "12.3000"),        # reads back as 12.3: no step
    (99.99996, "100.0000"),   # reads back above the capacity: no step
])
def test_panel_csv_round_trips_a_value_at_capacity(tmp_path, capacity, text):
    panel = make_panel([[0.0, capacity, 0.5 * capacity]], caps=[capacity])
    write_panel_csv(panel, tmp_path / "a.csv", tmp_path / "s.csv")
    assert (tmp_path / "a.csv").read_text().splitlines()[1].endswith("," + text)
    back = ingest_panel(tmp_path / "a.csv", tmp_path / "s.csv")
    assert back.capacities[0] == float(text)
    assert back.values.tolist() == [[float("%.6f" % v) for v in panel.values[0]]]


@given(capacity=st.floats(1e-9, 1e6), share=st.floats(0.0, 1.0))
def test_panel_csv_ingests_any_capacity_and_values_up_to_it(tmp_path_factory, capacity, share):
    directory = tmp_path_factory.mktemp("capacity")
    panel = make_panel([[capacity, share * capacity, 0.0]], caps=[capacity])
    write_panel_csv(panel, directory / "a.csv", directory / "s.csv")
    back = ingest_panel(directory / "a.csv", directory / "s.csv")
    assert capacity <= back.capacities[0] < capacity + 1e-4
    assert back.values.tolist() == [[float("%.6f" % v) for v in panel.values[0]]]


# --- haversine ----------------------------------------------------------------

def test_haversine_identical_coordinates_is_zero():
    assets = [AssetMeta("a", 40.0, -100.0, 10.0), AssetMeta("b", 40.0, -100.0, 10.0)]
    d = haversine_matrix(assets)
    assert d[0, 1] == 0.0


def test_haversine_one_degree_at_equator():
    assets = [AssetMeta("a", 0.0, 0.0, 10.0), AssetMeta("b", 0.0, 1.0, 10.0)]
    d = haversine_matrix(assets)
    assert d[0, 1] == pytest.approx(111.195, abs=0.01)
    assert d[0, 1] == pytest.approx(haversine_single(0, 0, 0, 1), rel=1e-12)


def test_haversine_matches_scalar_oracle(rng):
    panel = random_panel(rng, 8, 4)
    d = haversine_matrix(panel.assets)
    for i in range(8):
        for j in range(8):
            a, b = panel.assets[i], panel.assets[j]
            expect = haversine_single(a.latitude_deg, a.longitude_deg,
                                      b.latitude_deg, b.longitude_deg)
            assert d[i, j] == pytest.approx(expect, abs=1e-9)


def test_haversine_symmetry_and_zero_diagonal(rng):
    panel = random_panel(rng, 10, 4)
    d = haversine_matrix(panel.assets)
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), np.zeros(10))


def test_haversine_permutation_equivariance(rng):
    panel = random_panel(rng, 7, 4)
    d = haversine_matrix(panel.assets)
    perm = rng.permutation(7)
    d_perm = haversine_matrix([panel.assets[i] for i in perm])
    np.testing.assert_array_equal(d_perm, d[np.ix_(perm, perm)])


def test_haversine_triangle_inequality(rng):
    panel = random_panel(rng, 9, 4)
    d = haversine_matrix(panel.assets)
    for i in range(9):
        for j in range(9):
            for k in range(9):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
       spread=st.sampled_from(["region", "globe", "repeated", "poles-and-antipodes"]))
def test_haversine_keeps_the_bits_of_the_direct_expression(seed, n, spread):
    """The in-place matrix is the one-expression oracle's bit for bit, on
    coincident assets and on the poles, antimeridian and antipodes, where the
    clip to [0, 1] acts."""
    rng = np.random.default_rng(seed)
    if spread == "region":
        lats, lons = rng.uniform(35.0, 47.0, n), rng.uniform(-104.0, -88.0, n)
    elif spread == "globe":
        lats, lons = rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n)
    elif spread == "repeated":
        lats, lons = np.full(n, 41.5), rng.choice([-93.25, -93.0], n)
    else:
        lats = rng.choice([-90.0, -45.0, 0.0, 45.0, 90.0], n)
        lons = rng.choice([-180.0, -90.0, 0.0, 90.0, 180.0], n)
    assets = [AssetMeta(f"a{i}", float(lat), float(lon), 1.0)
              for i, (lat, lon) in enumerate(zip(lats, lons))]
    assert_bits_equal(haversine_matrix(assets), haversine_expression(assets))


# --- covariance ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), t=st.integers(4, 80))
def test_covariance_keeps_the_bits_of_the_direct_expression(seed, n, t):
    """Each criterion matrix, centred and symmetrized in place, is the
    one-expression oracle's bit for bit, also on a strided view with signed
    zeros, which it leaves as it was."""
    rng = np.random.default_rng(seed)
    strided = signed_zeros(rng, rng.uniform(0.0, 10.0, (n, 2 * t)), 0.3)[:, ::2]
    before = strided.copy()
    for values in (random_panel(rng, n, t).values, strided):
        panel = make_panel(values)
        rows = {Criterion.VARIANCE: values, Criterion.SAVAR: seasonal_adjust(values),
                Criterion.IMCY: difference(values)}
        for kind in Criterion:
            assert_bits_equal(covariance(panel, kind),
                              population_covariance_expression(rows[kind]))
    assert_bits_equal(strided, before)


def test_covariance_hand_example():
    panel = make_panel([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]])
    sigma = covariance(panel, "variance")
    np.testing.assert_allclose(sigma, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_covariance_is_read_only(rng):
    panel = random_panel(rng, 3, 10)
    for kind in Criterion:
        sigma = covariance(panel, kind)
        assert sigma.dtype == np.float64 and sigma.shape == (3, 3)
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 1] = 1.0


def test_savar_zero_for_identical_rows():
    panel = make_panel(np.tile([1.0, 3.0, 2.0, 5.0], (4, 1)))
    sigma = covariance(panel, Criterion.SAVAR)
    np.testing.assert_allclose(sigma, np.zeros((4, 4)), atol=1e-12)


def test_imcy_zero_for_constant_series():
    panel = make_panel(np.full((3, 6), 4.0))
    sigma = covariance(panel, "imcy")
    np.testing.assert_allclose(sigma, np.zeros((3, 3)), atol=1e-12)


def test_covariance_too_short_series():
    panel = make_panel([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InsufficientDataError, match="at least 3 steps"):
        covariance(panel, "variance")
    panel3 = make_panel([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0]])
    covariance(panel3, "variance")  # T=3 is enough for variance
    with pytest.raises(InsufficientDataError, match="at least 4 steps"):
        covariance(panel3, "imcy")  # but not for imcy


def test_covariance_positive_semidefinite(rng):
    for kind in Criterion:
        panel = random_panel(rng, 6, 40)
        sigma = covariance(panel, kind)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-8 * np.trace(sigma)


def test_covariance_ignores_timestamp_labels(rng):
    values = random_panel(rng, 4, 30).values
    a = make_panel(values, start="2019-01-08T00:00:00", step_minutes=15)
    b = make_panel(values, start="2020-06-01T12:00:00", step_minutes=60)
    for kind in Criterion:
        np.testing.assert_array_equal(covariance(a, kind), covariance(b, kind))


# --- the quadratic-form identity ------------------------------------------------

def direct_criterion(values, labels, n_bundles, kind):
    """Straight-from-definition bundled-series criterion (test oracle)."""
    def pop_var(series):
        return float(np.mean((series - series.mean()) ** 2))

    if kind == Criterion.SAVAR:
        values = seasonal_adjust(values)
    total = 0.0
    for k in range(n_bundles):
        z = values[np.asarray(labels) == k].sum(axis=0)
        if kind == Criterion.IMCY:
            z = np.diff(z)
        total += pop_var(z)
    return total


def assert_trace_matches_direct(panel, labels, k):
    bundling = Bundling(labels, panel.asset_ids)
    for kind in Criterion:
        sigma = covariance(panel, kind)
        trace_value = objective(bundling, sigma)
        direct = direct_criterion(panel.values, labels, k, kind)
        # absolute floor for exact cancellations (K=1 savar is identically 0)
        floor = 1e-10 * np.abs(sigma).sum()
        assert trace_value == pytest.approx(direct, rel=1e-8, abs=floor)


def test_quadratic_form_identity_seeded(rng):
    for trial in range(40):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(8, 65))
        k = int(rng.integers(1, n + 1))
        panel = random_panel(rng, n, t)
        assert_trace_matches_direct(panel, random_bundling_labels(rng, n, k), k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(1, 4))
def test_quadratic_form_identity_property(seed, n, k):
    k = min(k, n)
    local = np.random.default_rng(seed)
    panel = random_panel(local, n, int(local.integers(6, 40)))
    assert_trace_matches_direct(panel, random_bundling_labels(local, n, k), k)


def test_parse_utc_timestamp_variants():
    t = parse_utc_timestamp("2019-01-08T00:00:00Z")
    assert t == np.datetime64("2019-01-08T00:00:00", "s")
    assert parse_utc_timestamp("2019-01-08T00:00:00+00:00") == t
    assert parse_utc_timestamp("2019-01-08Z") == t  # a date is its midnight
    assert parse_utc_timestamp("2019-01-08T00:00:00.000Z") == t
    with pytest.raises(FormatError):
        parse_utc_timestamp("2019-01-08T00:00:00")
    with pytest.raises(FormatError, match="is not a whole second"):
        parse_utc_timestamp("2019-01-08T00:00:00.000000001Z")
    with pytest.raises(FormatError, match="unparsable timestamp 'NaTZ'"):
        parse_utc_timestamp("NaTZ")


@pytest.mark.parametrize("text", [
    "nowZ", "todayZ", "20190108Z", "2019-01-08T00:00:00+01:00Z", "2019-01-08T00:00Z",
    "2019-01-08T00Z", "2019-01-08T00:00:00+01:00", "2019-01-08.000Z", "2019-02-30Z",
    "2019-01-08T24:00:00Z", "2019-01-08 00:00:00Z", "+2019-01-08Z", "\u0662019-01-08Z", "",
])
def test_parse_utc_timestamp_takes_one_grammar(text):
    """Only a date, or a date and a whole-second time, then ``Z`` or ``+00:00``:
    never the wall clock, a year of eight digits or an instant shifted by an offset."""
    with pytest.raises(FormatError, match=re.escape(f"unparsable timestamp {text!r}")):
        parse_utc_timestamp(text)


def test_parse_utc_timestamp_takes_any_run_of_zeros_as_a_whole_second():
    """numpy reads a fraction of more than 18 digits as a time zone; it never sees one."""
    assert (parse_utc_timestamp("2019-01-08T00:00:00." + "0" * 30 + "Z")
            == np.datetime64("2019-01-08T00:00:00", "s"))
