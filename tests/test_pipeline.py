"""CLI subcommands, run-directory contents, determinism, and cleanup."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundlecast import (
    Bundling,
    coherence_gap,
    covariance,
    ingest_panel,
    objective,
    pipeline,
    summing_matrix,
)
from bundlecast.bundling import read_bundling_csv, write_bundling_csv
from bundlecast.cli import main
from bundlecast.forecast import (
    HierarchyForecast,
    read_forecast_csv,
    ridge_fit,
    rolling_forecast,
    write_forecast_csv,
)
from bundlecast.pipeline import run as pipeline_run


def write_synth_config(tmp_path, n_assets=6, n_steps=1400, seed=42, pairs=1, regions=2):
    path = tmp_path / "synth.cfg"
    path.write_text(f"""
n_assets = {n_assets}
n_steps = {n_steps}
granularity_minutes = 15
seed = {seed}
n_regions = {regions}
ar_coefficient = 0.97
seasonal_amplitude = 0.8
noise_scale = 0.4
anticorrelated_pairs = {pairs}
start = 2019-01-01T00:00:00Z
assets_file = {tmp_path / 'assets.csv'}
series_file = {tmp_path / 'series.csv'}
""")
    return path


def write_run_config(tmp_path, name="run.cfg", n_bundles=2, criterion="savar",
                     model="ridge", baseline="false", out="run_dir",
                     diameters=None, seed=42, history_len=24, diameter_km="unbounded",
                     horizon=8, train_end="2019-01-12T23:45:00Z",
                     test_start="2019-01-13T00:00:00Z", test_end="2019-01-15T13:45:00Z"):
    # 1400 15-min steps: train on the first ~12 days, test on the rest
    lines = f"""
task = short_term
history_len = {history_len}
horizon = {horizon}
granularity_minutes = 15
n_bundles = {n_bundles}
criterion = {criterion}
diameter_km = {diameter_km}
fleet_model = {model}
fleet_ridge_lambda = 1.0
fleet_use_calendar_encodings = false
bundle_model = {model}
bundle_ridge_lambda = 1.0
bundle_use_calendar_encodings = false
asset_model = {model}
asset_ridge_lambda = 1.0
asset_use_calendar_encodings = false
train_start = 2019-01-01T00:00:00Z
train_end = {train_end}
test_start = {test_start}
test_end = {test_end}
seed = {seed}
assets_file = {tmp_path / 'assets.csv'}
series_file = {tmp_path / 'series.csv'}
output_dir = {tmp_path / out}
baseline = {baseline}
"""
    if diameters:
        lines += f"diameters = {diameters}\n"
    path = tmp_path / name
    path.write_text(lines)
    return path


def _child_env(**variables):
    """The environment, plus ``variables``, of a child Python that imports this package."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(pipeline.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def data_dir(tmp_path):
    assert main(["synth", "--config", str(write_synth_config(tmp_path))]) == 0
    return tmp_path


def test_cli_synth_writes_files(tmp_path):
    cfg = write_synth_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    panel = ingest_panel(tmp_path / "assets.csv", tmp_path / "series.csv")
    assert panel.n_assets == 6
    assert panel.n_steps == 1400


def test_cli_stagewise_pipeline(data_dir):
    cfg = str(write_run_config(data_dir))
    out = data_dir / "run_dir"
    for command in ("bundle", "forecast", "reconcile", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    for name in ("bundling.csv", "forecasts_raw.csv", "residual_moments.csv",
                 "forecasts_reconciled.csv", "diagnostics.csv",
                 "evaluation.csv", "evaluation_raw.csv"):
        assert (out / name).exists(), name

    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    bundling = read_bundling_csv(out / "bundling.csv", panel.asset_ids)
    reconciled = read_forecast_csv(out / "forecasts_reconciled.csv",
                                   panel.asset_ids, bundling.n_bundles)
    gap = coherence_gap(reconciled, summing_matrix(bundling))
    assert gap < 1e-9 * panel.fleet_capacity


def test_cli_run_with_baseline_and_comparison(data_dir):
    cfg = str(write_run_config(data_dir, baseline="true", out="full_run"))
    assert main(["run", "--config", cfg]) == 0
    out = data_dir / "full_run"
    names = {p.name for p in out.iterdir()}
    assert {"bundling.csv", "forecasts_raw.csv", "forecasts_reconciled.csv",
            "evaluation.csv", "evaluation_raw.csv", "diagnostics.csv",
            "comparison.csv", "manifest.json"} <= names
    assert {"baseline_bundling.csv", "baseline_evaluation.csv"} <= names
    assert {"residual_moments.csv", "baseline_residual_moments.csv"} <= names

    comparison = (out / "comparison.csv").read_text().strip().splitlines()
    assert comparison[0] == "level,metric,bundled,baseline"
    assert any(line.startswith("fleet,nmae,") for line in comparison)

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"package", "version", "config_sha256",
                             "assets_sha256", "series_sha256"}

    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    base = read_bundling_csv(out / "baseline_bundling.csv", panel.asset_ids)
    assert base.n_bundles == 1


def test_run_k1_baseline_fits_nothing_and_repeats_the_bundled_files(data_dir, monkeypatch):
    """With one bundle the baseline pass is the bundled pass: it is not run, and
    every ``baseline_`` file is its twin's bytes."""
    fits, fits_per_pass = [], []

    def counting_fit(*args, **kwargs):
        fits.append(args[0].shape)
        return ridge_fit(*args, **kwargs)

    def counting_rolling(*args, **kwargs):
        before = len(fits)
        forecasts = rolling_forecast(*args, **kwargs)
        fits_per_pass.append(len(fits) - before)
        return forecasts

    monkeypatch.setattr("bundlecast.forecast.ridge_fit", counting_fit)
    monkeypatch.setattr("bundlecast.pipeline.rolling_forecast", counting_rolling)
    out = pipeline_run(write_run_config(data_dir, n_bundles=1, baseline="true", out="k1_base"))
    n_assets = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv").n_assets
    # the fleet and each asset once; the bundle row is the fleet series
    assert fits_per_pass == [n_assets + 1]
    twins = sorted(out.glob("baseline_*"))
    assert len(twins) == 7
    for twin in twins:
        assert twin.read_bytes() == (out / twin.name.removeprefix("baseline_")).read_bytes()


def test_cli_run_k1_hierarchy_rows(data_dir):
    cfg = str(write_run_config(data_dir, n_bundles=1, out="k1_run"))
    assert main(["run", "--config", cfg]) == 0
    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    bundling = read_bundling_csv(data_dir / "k1_run" / "bundling.csv", panel.asset_ids)
    assert list(bundling.labels) == [0] * panel.n_assets
    fc = read_forecast_csv(data_dir / "k1_run" / "forecasts_raw.csv",
                           panel.asset_ids, 1)
    assert fc.values.shape[1] == panel.n_assets + 2


def test_cli_run_k1_obeys_the_diameter_cutoff(data_dir, capsys):
    # the synth assets lie in two regions more than 700 km apart
    cfg = str(write_run_config(data_dir, n_bundles=1, diameter_km="100", out="k1_cut"))
    capsys.readouterr()
    for command in ("run", "bundle"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"bundlecast {command}: [bundle] " in err and "no diameter-feasible merge" in err
        assert not (data_dir / "k1_cut").exists()


def test_cli_reports_a_kmeans_diameter_violation_once(data_dir, capsys):
    cfg = str(write_run_config(data_dir, criterion="kmeans", diameter_km="100"))
    for command in ("bundle", "run"):
        capsys.readouterr()
        with pytest.warns(UserWarning) as record:
            assert main([command, "--config", cfg, "--out", str(data_dir / command)]) == 0
        assert [str(w.message) for w in record] == [
            "kmeans bundling violates the 100.0 km diameter cutoff in 4 asset pair(s)"]
        assert "violates" not in capsys.readouterr().out


def test_cli_run_persistence_reconciliation_is_identity(data_dir):
    cfg = str(write_run_config(data_dir, model="persistence", out="per_run"))
    assert main(["run", "--config", cfg]) == 0
    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    out = data_dir / "per_run"
    bundling = read_bundling_csv(out / "bundling.csv", panel.asset_ids)
    raw = read_forecast_csv(out / "forecasts_raw.csv", panel.asset_ids, bundling.n_bundles)
    rec = read_forecast_csv(out / "forecasts_reconciled.csv", panel.asset_ids,
                            bundling.n_bundles)
    assert np.max(np.abs(raw.values - rec.values)) < 1e-9 * panel.fleet_capacity


def _counting_forecast_writes(monkeypatch):
    """The file names that ``pipeline.write_forecast_csv`` writes, in call order."""
    names = []

    def counting(forecast, asset_ids, path):
        names.append(Path(path).name)
        return write_forecast_csv(forecast, asset_ids, path)

    monkeypatch.setattr(pipeline, "write_forecast_csv", counting)
    return names


def _assert_same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert [name for name in names if (a / name).read_bytes() != (b / name).read_bytes()] == []


def test_run_copies_a_reconciliation_that_changes_no_bit(data_dir, monkeypatch):
    """Persistence input is coherent, so each pass formats its raw forecasts once."""
    cfg = write_run_config(data_dir, model="persistence", baseline="true", out="copied")
    written = _counting_forecast_writes(monkeypatch)
    out = pipeline_run(cfg)
    assert written == ["forecasts_raw.csv", "baseline_forecasts_raw.csv"]
    for prefix in ("", "baseline_"):
        assert ((out / f"{prefix}forecasts_reconciled.csv").read_bytes()
                == (out / f"{prefix}forecasts_raw.csv").read_bytes())
        assert ((out / f"{prefix}evaluation.csv").read_bytes()
                == (out / f"{prefix}evaluation_raw.csv").read_bytes())
    # the same bytes as formatting and scoring the reconciled forecasts anew
    monkeypatch.setattr(pipeline, "_same_bits", lambda a, b: False)
    _assert_same_tree(out, pipeline_run(cfg, data_dir / "formatted"))
    assert written[2:] == ["forecasts_raw.csv", "forecasts_reconciled.csv",
                           "baseline_forecasts_raw.csv", "baseline_forecasts_reconciled.csv"]


def test_run_writes_a_reconciliation_that_turns_negative_zeros_positive(data_dir, monkeypatch):
    """A -0.0 forecast is equal to, but not the same bits as, its reconciled +0.0."""
    series = data_dir / "series.csv"
    lines = series.read_text().splitlines()
    # every asset reads -0 at noon of the second test day, so the persistence
    # forecasts issued then, fleet and bundle sums included, are -0.0
    at = next(i for i, line in enumerate(lines) if line.startswith("2019-01-14T12:00:00Z,"))
    lines[at] = lines[at].split(",")[0] + ",-0.000000" * (len(lines[0].split(",")) - 1)
    series.write_text("\n".join(lines) + "\n")
    cfg = write_run_config(data_dir, model="persistence", out="negative_zero")
    written = _counting_forecast_writes(monkeypatch)
    out = pipeline_run(cfg)
    assert written == ["forecasts_raw.csv", "forecasts_reconciled.csv"]
    raw, rec = ((out / name).read_text() for name in ("forecasts_raw.csv",
                                                          "forecasts_reconciled.csv"))
    assert raw != rec and raw.replace(",-0\n", ",0\n") == rec
    monkeypatch.setattr(pipeline, "_same_bits", lambda a, b: False)
    _assert_same_tree(out, pipeline_run(cfg, data_dir / "formatted"))


def test_cli_run_determinism(data_dir):
    cfg = write_run_config(data_dir, out="det1")
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(data_dir / "det2")]) == 0
    d1, d2 = data_dir / "det1", data_dir / "det2"
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS caps its thread count at the CPU count")
def test_cli_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """An N=500, K=50 imcy run with persistence writes the same run directory
    with one and with two OpenBLAS threads."""
    synth = write_synth_config(tmp_path, n_assets=500, n_steps=432, seed=11, pairs=4,
                               regions=9)
    assert main(["synth", "--config", str(synth)]) == 0
    # 432 15-min steps: train on the first 4 days, test on the last 12 hours
    cfg = write_run_config(tmp_path, n_bundles=50, criterion="imcy", model="persistence",
                           seed=11, history_len=48, diameter_km="300", horizon=24,
                           train_end="2019-01-04T23:45:00Z", test_start="2019-01-05T00:00:00Z",
                           test_end="2019-01-05T11:45:00Z")
    outs = [tmp_path / f"threads_{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        # the variable is read when NumPy loads OpenBLAS, so it is set before the child starts
        subprocess.run([sys.executable, "-m", "bundlecast.cli", "run", "--config", str(cfg),
                        "--out", str(out)], env=_child_env(OPENBLAS_NUM_THREADS=str(n)),
                       capture_output=True, check=True, timeout=300)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert [name for name in names
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()] == []


def test_cli_run_cleans_up_on_failure(data_dir):
    cfg = write_run_config(data_dir, out="failed_run")
    (data_dir / "series.csv").rename(data_dir / "gone.csv")
    try:
        assert main(["run", "--config", str(cfg)]) == 1
        assert not (data_dir / "failed_run").exists()
    finally:
        (data_dir / "gone.csv").rename(data_dir / "series.csv")


def _raise_no_space(*args, **kwargs):
    raise OSError(28, "No space left on device")


def test_cli_run_empties_an_existing_out_dir_on_failure(data_dir, monkeypatch):
    out = data_dir / "claimed"
    out.mkdir()
    monkeypatch.setattr(pipeline, "write_report_csv", _raise_no_space)  # after five writes
    cfg = write_run_config(data_dir, out="claimed")
    assert main(["run", "--config", str(cfg)]) == 1
    assert out.is_dir() and list(out.iterdir()) == []  # claimed, so kept, and emptied


def test_cli_run_refuses_nonempty_out(data_dir):
    out = data_dir / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("do not clobber")
    cfg = write_run_config(data_dir, out="occupied")
    assert main(["run", "--config", str(cfg)]) == 1
    assert (out / "keep.txt").read_text() == "do not clobber"


def test_cli_stage_errors_are_tagged(data_dir, capsys):
    cfg = str(write_run_config(data_dir, out="tagged"))
    # reconcile before forecast: the missing-file error names the stage to run
    assert main(["reconcile", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "bundle" in err or "forecast" in err


def test_cli_bundle_computes_the_covariance_once(data_dir, capsys, monkeypatch):
    calls = []

    def counting_covariance(*args):
        calls.append(args)
        return covariance(*args)

    monkeypatch.setattr(pipeline, "covariance", counting_covariance)
    assert main(["bundle", "--config", str(write_run_config(data_dir))]) == 0
    assert len(calls) == 1
    train, kind = calls[0]
    bundling = read_bundling_csv(data_dir / "run_dir" / "bundling.csv", train.asset_ids)
    assert capsys.readouterr().out.startswith(
        f"objective[savar] = {objective(bundling, covariance(train, kind)):.6g}\n")


def test_cli_sweep(data_dir):
    cfg = str(write_run_config(data_dir, out="sweep_dir", diameters="200, 600, 1200"))
    assert main(["sweep", "--config", cfg]) == 0
    lines = (data_dir / "sweep_dir" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "diameter_km,criterion,objective,feasible"
    assert len(lines) == 1 + 2 * 3  # two criteria x three diameters
    assert {line.split(",")[1] for line in lines[1:]} == {"savar", "imcy"}


def test_cli_sweep_tags_a_one_timestamp_training_range_with_the_bundle_stage(data_dir,
                                                                            capsys):
    cfg = write_run_config(data_dir, out="short_sweep", diameters="200, 600",
                           train_end="2019-01-01T00:10:00Z")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "bundlecast sweep: [bundle] window [2019-01-01T00:00:00Z, 2019-01-01T00:10:00Z] "
        "covers 1 timestamps\n")
    assert not (data_dir / "short_sweep").exists()


def test_pipeline_run_returns_directory(data_dir):
    cfg = write_run_config(data_dir, out="api_run")
    out = pipeline_run(cfg)
    assert out == data_dir / "api_run"
    assert (out / "manifest.json").exists()


def test_run_and_stage_commands_agree(data_dir):
    cfg = str(write_run_config(data_dir, out="full"))
    assert main(["run", "--config", cfg]) == 0
    staged = data_dir / "staged"
    for command in ("bundle", "forecast", "reconcile", "evaluate"):
        assert main([command, "--config", cfg, "--out", str(staged)]) == 0
    full = data_dir / "full"
    # the moments are handed between stages exactly, so the weights agree bit for bit
    for name in ("bundling.csv", "forecasts_raw.csv", "residual_moments.csv", "diagnostics.csv"):
        assert (full / name).read_bytes() == (staged / name).read_bytes(), name

    # the stage path reconciles test forecasts read back from 12-digit CSVs
    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    bundling = read_bundling_csv(full / "bundling.csv", panel.asset_ids)
    a, b = (read_forecast_csv(d / "forecasts_reconciled.csv", panel.asset_ids,
                              bundling.n_bundles) for d in (full, staged))
    np.testing.assert_array_equal(a.origins, b.origins)
    assert np.max(np.abs(a.values - b.values)) <= 1e-9 * panel.fleet_capacity


def _rewrite_forecasts(out, asset_ids, names, horizon=None, shift=None):
    n_bundles = read_bundling_csv(out / "bundling.csv", asset_ids).n_bundles
    for name in names:
        fc = read_forecast_csv(out / name, asset_ids, n_bundles)
        origins = fc.origins if shift is None else fc.origins + shift
        write_forecast_csv(HierarchyForecast(origins, fc.values[:, :, :horizon],
                                             n_bundles, len(asset_ids)), asset_ids, out / name)


def _truncate_moments(out, asset_ids, horizon=7):
    """Keep the first ``horizon`` leads of residual_moments.csv."""
    n_rows = 1 + read_bundling_csv(out / "bundling.csv", asset_ids).n_bundles + len(asset_ids)
    lines = (out / "residual_moments.csv").read_text().splitlines(keepends=True)
    (out / "residual_moments.csv").write_text("".join(lines[:1 + horizon * n_rows]))


def _merge_bundles(out, asset_ids):
    """Relabel bundling.csv to one bundle fewer by folding the last bundle into the first."""
    bundling = read_bundling_csv(out / "bundling.csv", asset_ids)
    last = bundling.n_bundles - 1
    labels = np.where(bundling.labels == last, 0, bundling.labels)
    write_bundling_csv(Bundling(labels, asset_ids), out / "bundling.csv")


@pytest.mark.parametrize("command, corrupt", [
    ("forecast", lambda out, ids: (out / "bundling.csv").write_text(
        f"bundle_id,asset_id\n0 {ids[0]}\n")),
    ("forecast", _merge_bundles),
    ("reconcile", _truncate_moments),
    ("evaluate", lambda out, ids: _rewrite_forecasts(
        out, ids, ["forecasts_raw.csv", "forecasts_reconciled.csv"], horizon=7)),
    ("evaluate", lambda out, ids: _rewrite_forecasts(
        out, ids, ["forecasts_reconciled.csv"], shift=np.timedelta64(900, "s"))),
], ids=["malformed-bundling", "bundle-count", "reconcile-horizon", "evaluate-horizon",
        "evaluate-origins"])
def test_cli_stage_rejects_bad_inputs(data_dir, capsys, command, corrupt):
    cfg = str(write_run_config(data_dir, out="bad_inputs"))
    for stage in ("bundle", "forecast", "reconcile"):
        assert main([stage, "--config", cfg]) == 0
    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    corrupt(data_dir / "bad_inputs", panel.asset_ids)
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 1
    assert f"bundlecast {command}: [{command}] " in capsys.readouterr().err


def test_cli_no_insample_origin_fails_cleanly(data_dir, capsys):
    # 1,200 steps of history: no origin of the 1,152-step training range has them
    cfg = str(write_run_config(data_dir, model="persistence", history_len=1200,
                               out="no_origins"))
    out = data_dir / "no_origins"
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "bundlecast run: [forecast] " in err and "no origin" in err
    assert not out.exists()

    assert main(["bundle", "--config", cfg]) == 0
    assert main(["forecast", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "bundlecast forecast: [forecast] " in err and "no origin" in err
    assert main(["reconcile", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "bundlecast reconcile: [reconcile] " in err and "residual_moments.csv not found" in err
    assert {p.name for p in out.iterdir()} == {"bundling.csv"}


def test_cli_no_test_origin_fails_cleanly(data_dir, capsys, recwarn):
    # 5 test steps cannot hold one 8-step horizon
    cfg = write_run_config(data_dir, out="no_test_origins")
    cfg.write_text(cfg.read_text().replace("test_end = 2019-01-15T13:45:00Z",
                                           "test_end = 2019-01-13T01:00:00Z"))
    message = ("the test range has no origin with 24 samples of history and a full "
               "8-step horizon, so there is nothing to forecast\n")
    out = data_dir / "no_test_origins"
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"bundlecast run: [forecast] {message}"
    assert not out.exists()
    assert main(["bundle", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"bundlecast forecast: [forecast] {message}"
    assert {p.name for p in out.iterdir()} == {"bundling.csv"}
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_rejects_granularity_that_differs_from_the_panel(data_dir, capsys):
    # the synth panel has 15-minute steps; this config declares hourly ones
    cfg = write_run_config(data_dir, out="hourly", diameters="200, 600")
    cfg.write_text(cfg.read_text().replace("task = short_term", "task = day_ahead")
                   .replace("granularity_minutes = 15", "granularity_minutes = 60"))
    expected = (f"[ingest] {cfg}: granularity_minutes is 60, but "
                f"{data_dir / 'series.csv'} has a 15-minute step")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"bundlecast run: {expected}\n" == capsys.readouterr().err
    assert not (data_dir / "hourly").exists()
    for command in ("sweep", "bundle", "forecast", "reconcile", "evaluate"):
        assert main([command, "--config", str(cfg)]) == 1
        assert f"bundlecast {command}: {expected}\n" == capsys.readouterr().err
    assert not (data_dir / "hourly").exists()  # no stage command made the directory


def test_cli_stage_before_bundle_creates_no_directory(data_dir, capsys):
    cfg = str(write_run_config(data_dir, out="unbundled"))
    capsys.readouterr()
    for command in ("forecast", "reconcile", "evaluate"):
        assert main([command, "--config", cfg]) == 1
        assert "bundling.csv not found; run the 'bundle' stage first" in capsys.readouterr().err
    assert not (data_dir / "unbundled").exists()


def _missing_config(data_dir, command):
    cfg = data_dir / "missing.cfg"
    return ["--config", str(cfg)], f"{cfg}: No such file or directory"


def _directory_config(data_dir, command):
    return ["--config", str(data_dir)], f"{data_dir}: Is a directory"


def _latin1_config(data_dir, command):
    cfg = data_dir / "latin1.cfg"
    cfg.write_bytes(write_run_config(data_dir).read_bytes() + "# caf\xe9\n".encode("latin-1"))
    return ["--config", str(cfg)], f"{cfg}: not UTF-8 text (byte "


def _out_is_a_file(data_dir, command):
    blocker = data_dir / "blocker"
    blocker.write_text("not a directory")
    cfg = (write_synth_config(data_dir) if command == "synth"
           else write_run_config(data_dir, diameters="200, 600"))
    return (["--config", str(cfg), "--out", str(blocker)],
            f"cannot create directory {blocker}: File exists")


@pytest.mark.parametrize("command, arguments", [
    *[(command, _missing_config) for command in
      ("synth", "bundle", "forecast", "reconcile", "evaluate", "run", "sweep")],
    ("run", _directory_config),
    ("synth", _directory_config),
    ("run", _latin1_config),
    ("run", _out_is_a_file),
    ("sweep", _out_is_a_file),
    ("bundle", _out_is_a_file),
    ("synth", _out_is_a_file),
])
def test_cli_reports_unusable_paths_in_one_line(data_dir, capsys, command, arguments):
    argv, message = arguments(data_dir, command)
    capsys.readouterr()
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bundlecast {command}: ") and err.count("\n") == 1
    assert message in err


def test_module_entry_point_reports_a_missing_config_without_a_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bundlecast.cli", "run", "--config", str(tmp_path / "none.cfg")],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"bundlecast run: {tmp_path / 'none.cfg'}: No such file or directory\n"


def _halve_series(data_dir):
    """Round every series value down to a multiple of 1/2.

    The persistence forecasts' fleet and bundle sums are then exact, so the
    stage commands read back a raw file whose rows still add up bit for bit.
    """
    series = data_dir / "series.csv"
    lines = series.read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        stamp, *cells = line.split(",")
        lines[i] = ",".join([stamp, *(f"{np.floor(2 * float(c)) / 2:.6f}" for c in cells)])
    series.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("writer, name, stage", [
    ("write_forecast_csv", "forecasts_raw.csv", "forecast"),
    ("write_moments_csv", "residual_moments.csv", "forecast"),
    ("write_forecast_csv", "forecasts_reconciled.csv", "reconcile"),
    ("write_report_csv", "evaluation.csv", "evaluate"),
    # persistence of coherent input reconciles to the same bits: the raw file is copied
    ("copyfile", "forecasts_reconciled.csv", "reconcile"),
])
def test_cli_write_failure_is_tagged_with_its_stage(data_dir, capsys, monkeypatch,
                                                    writer, name, stage):
    model = "ridge"
    if writer == "copyfile":
        model = "persistence"
        _halve_series(data_dir)
    cfg = str(write_run_config(data_dir, model=model, out="unwritable"))
    stages = ["bundle", "forecast", "reconcile", "evaluate"]
    for command in stages[:stages.index(stage)]:
        assert main([command, "--config", cfg]) == 0
    real = getattr(pipeline, writer)

    def failing(*args):
        if Path(args[-1]).name == name:
            raise OSError(28, "No space left on device", str(args[-1]))
        return real(*args)

    monkeypatch.setattr(pipeline, writer, failing)
    capsys.readouterr()
    assert main([stage, "--config", cfg]) == 1
    cause = f"[Errno 28] No space left on device: '{data_dir / 'unwritable' / name}'"
    assert capsys.readouterr().err == f"bundlecast {stage}: [{stage}] {cause}\n"

    run_out = data_dir / "unwritable_run"
    assert main(["run", "--config", cfg, "--out", str(run_out)]) == 1
    cause = f"[Errno 28] No space left on device: '{run_out / name}'"
    assert capsys.readouterr().err == f"bundlecast run: [{stage}] {cause}\n"
    assert not run_out.exists()


@pytest.mark.parametrize("command, writer, stage", [
    ("run", "write_manifest", "ingest"),
    ("sweep", "write_manifest", "ingest"),
    ("run", "_write_comparison", "evaluate"),
    ("sweep", "open", "bundle"),  # sweep.csv is the one file pipeline opens itself in a sweep
])
def test_cli_run_and_sweep_writes_are_tagged_with_their_stage(data_dir, capsys, monkeypatch,
                                                              command, writer, stage):
    cfg = str(write_run_config(data_dir, baseline="true", diameters="200, 600",
                               out="unwritable"))
    monkeypatch.setattr(pipeline, writer, _raise_no_space, raising=False)
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"bundlecast {command}: [{stage}] [Errno 28] No space left on device\n")
    assert not (data_dir / "unwritable").exists()
