"""Config file parsing: mandatory keys, validation, and the sweep list."""

import math
import re

import pytest

from bundlecast import ForecastTask
from bundlecast.config import load_run_config, load_synth_config
from bundlecast.errors import ConfigError

RUN_KEYS = {
    "task": "short_term",
    "history_len": "48",
    "horizon": "24",
    "granularity_minutes": "15",
    "n_bundles": "3",
    "criterion": "savar",
    "diameter_km": "800",
    "fleet_model": "ridge",
    "fleet_ridge_lambda": "1.0",
    "fleet_use_calendar_encodings": "true",
    "bundle_model": "ridge",
    "bundle_ridge_lambda": "1.0",
    "bundle_use_calendar_encodings": "false",
    "asset_model": "persistence",
    "asset_ridge_lambda": "0.0",
    "asset_use_calendar_encodings": "false",
    "train_start": "2019-01-01T00:00:00Z",
    "train_end": "2019-01-18T23:45:00Z",
    "test_start": "2019-01-19T00:00:00Z",
    "test_end": "2019-01-21T23:45:00Z",
    "seed": "42",
    "assets_file": "assets.csv",
    "series_file": "series.csv",
    "output_dir": "out",
    "baseline": "false",
}


def write_config(path, overrides=None, drop=None):
    keys = dict(RUN_KEYS)
    if overrides:
        keys.update(overrides)
    if drop:
        for k in drop:
            keys.pop(k)
    path.write_text("\n".join(f"{k} = {v}" for k, v in keys.items()) + "\n")
    return path


def test_run_config_parses(tmp_path):
    cfg = load_run_config(write_config(tmp_path / "run.cfg"))
    assert cfg.forecast_task == ForecastTask(48, 24, 15)
    assert cfg.n_bundles == 3
    assert cfg.criterion == "savar"
    assert cfg.diameter_km == 800.0
    assert cfg.specs["asset"].model == "persistence"
    assert cfg.specs["fleet"].use_calendar is True
    assert cfg.diameters is None


def test_run_config_missing_key(tmp_path):
    with pytest.raises(ConfigError, match="n_bundles"):
        load_run_config(write_config(tmp_path / "run.cfg", drop=["n_bundles"]))
    with pytest.raises(ConfigError, match="missing mandatory key 'task'"):
        load_run_config(write_config(tmp_path / "run.cfg", drop=["task"]))


def test_run_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_run_config(write_config(tmp_path / "run.cfg", overrides={"extra_key": "1"}))


def test_run_config_unbounded_diameter(tmp_path):
    cfg = load_run_config(write_config(tmp_path / "run.cfg",
                                       overrides={"diameter_km": "unbounded"}))
    assert math.isinf(cfg.diameter_km)
    cfg = load_run_config(write_config(tmp_path / "run.cfg",
                                       overrides={"diameter_km": "inf"}))
    assert math.isinf(cfg.diameter_km)


def test_run_config_range_ordering(tmp_path):
    with pytest.raises(ConfigError, match="train_start"):
        load_run_config(write_config(
            tmp_path / "run.cfg", overrides={"test_start": "2018-01-01T00:00:00Z"}))


def test_run_config_diameters_list(tmp_path):
    cfg = load_run_config(write_config(
        tmp_path / "run.cfg", overrides={"diameters": "100, 250, 600"}))
    assert cfg.diameters == (100.0, 250.0, 600.0)
    with pytest.raises(ConfigError, match="ascending"):
        load_run_config(write_config(
            tmp_path / "run.cfg", overrides={"diameters": "600, 250"}))
    for diameters in ("0, 250", "100, nan, 600"):  # NaN compares false with everything
        with pytest.raises(ConfigError, match="diameters must be positive"):
            load_run_config(write_config(
                tmp_path / "run.cfg", overrides={"diameters": diameters}))


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_run_config_rejects_a_negative_or_non_finite_ridge_lambda(tmp_path, value):
    path = write_config(tmp_path / "run.cfg", overrides={"bundle_ridge_lambda": value})
    message = f"{path}: bundle_ridge_lambda must be finite and >= 0, got '{value}'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)


def test_run_config_rejects_a_zero_horizon(tmp_path):
    path = write_config(tmp_path / "run.cfg", overrides={"horizon": "0"})
    message = f"{path}: history_len, horizon, granularity must be >= 1, got (48, 0, 15)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)


def test_run_config_bad_choice(tmp_path):
    with pytest.raises(ConfigError, match="criterion"):
        load_run_config(write_config(tmp_path / "run.cfg", overrides={"criterion": "magic"}))
    with pytest.raises(ConfigError, match="task must be one of"):
        load_run_config(write_config(tmp_path / "run.cfg", overrides={"task": "hourly"}))


def test_run_config_section_header_allowed(tmp_path):
    path = tmp_path / "run.cfg"
    body = "\n".join(f"{k} = {v}" for k, v in RUN_KEYS.items())
    path.write_text("[run]\n" + body + "\n")
    assert load_run_config(path).seed == 42


def test_synth_config_parses(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("""
n_assets = 6
n_steps = 300
granularity_minutes = 15
seed = 9
n_regions = 2
ar_coefficient = 0.95
seasonal_amplitude = 0.7
noise_scale = 0.3
anticorrelated_pairs = 1
start = 2019-01-01T00:00:00Z
assets_file = a.csv
series_file = s.csv
""")
    cfg, assets_file, series_file = load_synth_config(path)
    assert cfg.n_assets == 6
    assert cfg.anticorrelated_pairs == 1
    assert assets_file == "a.csv"
    assert series_file == "s.csv"


def test_synth_config_missing_key(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("n_assets = 6\n")
    with pytest.raises(ConfigError):
        load_synth_config(path)


@pytest.mark.parametrize("overrides, message", [
    ({"history_len": "4.5"}, "history_len must be an integer"),
    ({"diameter_km": "far"}, "diameter_km must be a number"),
    ({"baseline": "maybe"}, "baseline must be a boolean, got 'maybe'"),
    ({"train_start": "2019-13-01T00:00:00Z"},
     "train_start: unparsable timestamp '2019-13-01T00:00:00Z'"),
    ({"test_end": "2019-01-15T13:45:00.5Z"},
     "test_end: timestamp '2019-01-15T13:45:00.5Z' is not a whole second"),
    ({"train_end": "NaTZ"}, "train_end: unparsable timestamp 'NaTZ'"),
    ({"diameters": "100, far"}, "diameters must be comma-separated numbers"),
    ({"n_bundles": "0"}, "n_bundles must be >= 1"),
    ({"diameter_km": "0"}, "diameter_km must be positive (or 'unbounded')"),
    ({"seed": "-1"}, "seed must be a non-negative integer"),
    # an empty list would make sweep write a header-only sweep.csv
    ({"diameters": ""}, "diameters must list at least one diameter"),
    ({"diameters": " , "}, "diameters must list at least one diameter"),
    # no word numpy reads as the wall clock, no digits it reads as a year, no offset
    ({"test_end": "nowZ"}, "test_end: unparsable timestamp 'nowZ'"),
    ({"train_end": "20190108Z"}, "train_end: unparsable timestamp '20190108Z'"),
    ({"train_start": "2019-01-01T00:00:00+01:00Z"},
     "train_start: unparsable timestamp '2019-01-01T00:00:00+01:00Z'"),
], ids=["integer", "number", "boolean", "timestamp", "sub-second", "nat", "diameters",
        "n_bundles", "diameter_km", "seed", "empty-diameters", "blank-diameters", "now",
        "basic-date", "offset-then-z"])
def test_run_config_rejects_a_malformed_value(tmp_path, overrides, message):
    path = write_config(tmp_path / "run.cfg", overrides=overrides)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_run_config(path)


def test_run_config_rejects_a_duplicate_key(tmp_path):
    body = "\n".join(f"{k} = {v}" for k, v in RUN_KEYS.items())
    path = tmp_path / "run.cfg"
    path.write_text(body + "\nseed = 7\n")  # within one section: configparser's own check
    with pytest.raises(ConfigError, match="option 'seed' in section 'config' already exists"):
        load_run_config(path)
    path.write_text(f"[run]\n{body}\n[more]\nseed = 7\n")  # across sections
    with pytest.raises(ConfigError, match=re.escape(f"{path}: duplicate key 'seed'")):
        load_run_config(path)
