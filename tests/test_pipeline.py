"""CLI subcommands, run-directory contents, determinism, and cleanup."""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bundlecast import (
    Bundling,
    Criterion,
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

from oracles import read_moments_csv


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


def test_cli_synth_rejects_one_file_for_assets_and_series(tmp_path, capsys):
    """The series would overwrite the assets; the paths compared are the ones
    written, so two directories that ``--out`` folds into one also collide."""
    cfg = write_synth_config(tmp_path)
    text = cfg.read_text()
    cfg.write_text(text.replace(str(tmp_path / "assets.csv"), str(tmp_path / "series.csv")))
    assert main(["synth", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bundlecast synth: ") and err.count("\n") == 1
    assert "assets_file" in err and "series_file" in err
    assert not (tmp_path / "series.csv").exists()

    cfg.write_text(text.replace(str(tmp_path / "assets.csv"), str(tmp_path / "one" / "panel.csv"))
                   .replace(str(tmp_path / "series.csv"), str(tmp_path / "two" / "panel.csv")))
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "assets_file and series_file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_stagewise_pipeline(data_dir):
    cfg = str(write_run_config(data_dir))
    out = data_dir / "run_dir"
    for command in ("bundle", "forecast", "reconcile", "evaluate"):
        assert main([command, "--config", cfg]) == 0
    for name in ("bundling.csv", "forecasts_raw.csv", "residual_moments.csv",
                 "forecasts_raw.npz", "forecasts_reconciled.csv", "diagnostics.csv",
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
    """With one bundle the baseline pass has the bundled pass's bundling: it
    fits nothing, and every ``baseline_`` file is its twin's bytes."""
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
    # the fleet and each asset once; the bundle row is the fleet series, and the
    # baseline pass reuses all three
    assert fits_per_pass == [n_assets + 1, 0]
    twins = sorted(out.glob("baseline_*"))
    assert len(twins) == 8
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
    """The file names that ``pipeline.write_forecast_csv`` writes, in call order; a
    file that ``pipeline._splice_forecast_csv`` writes is listed as ``("splice", name)``."""
    names = []
    splice = pipeline._splice_forecast_csv

    def counting(forecast, asset_ids, path):
        names.append(Path(path).name)
        return write_forecast_csv(forecast, asset_ids, path)

    def counting_splice(forecast, asset_ids, path, source, source_path):
        names.append(("splice", Path(path).name))
        return splice(forecast, asset_ids, path, source, source_path)

    monkeypatch.setattr(pipeline, "write_forecast_csv", counting)
    monkeypatch.setattr(pipeline, "_splice_forecast_csv", counting_splice)
    return names


def _assert_same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert [name for name in names if (a / name).read_bytes() != (b / name).read_bytes()] == []


def test_run_copies_a_reconciliation_that_changes_no_bit(data_dir, monkeypatch):
    """Persistence input is coherent, so each pass formats its raw forecasts once; the
    baseline's raw file takes its fleet and asset lines from the bundled pass's."""
    cfg = write_run_config(data_dir, model="persistence", baseline="true", out="copied")
    written = _counting_forecast_writes(monkeypatch)
    out = pipeline_run(cfg)
    assert written == ["forecasts_raw.csv", ("splice", "baseline_forecasts_raw.csv")]
    for prefix in ("", "baseline_"):
        assert ((out / f"{prefix}forecasts_reconciled.csv").read_bytes()
                == (out / f"{prefix}forecasts_raw.csv").read_bytes())
        assert ((out / f"{prefix}evaluation.csv").read_bytes()
                == (out / f"{prefix}evaluation_raw.csv").read_bytes())
    # the same bytes as formatting and scoring the reconciled forecasts anew
    monkeypatch.setattr(pipeline, "_same_bits", lambda a, b: False)
    _assert_same_tree(out, pipeline_run(cfg, data_dir / "formatted"))
    assert written[2:] == ["forecasts_raw.csv", "forecasts_reconciled.csv",
                           ("splice", "baseline_forecasts_raw.csv"),
                           "baseline_forecasts_reconciled.csv"]


def test_run_splices_the_baseline_raw_file_and_builds_each_pass_actuals_once(data_dir,
                                                                             monkeypatch):
    """The baseline's raw file, spliced from the bundled pass's, has the bytes of
    writing it whole; each pass builds its realized values once for both scorings."""
    cfg = write_run_config(data_dir, baseline="true", out="spliced")
    built = []
    actuals = pipeline.hierarchy_actuals

    def counting(panel, bundling, origins, horizon):
        built.append(bundling.n_bundles)
        return actuals(panel, bundling, origins, horizon)

    monkeypatch.setattr(pipeline, "hierarchy_actuals", counting)
    written = _counting_forecast_writes(monkeypatch)
    out = pipeline_run(cfg)
    assert built == [2, 1]
    assert ("splice", "baseline_forecasts_raw.csv") in written
    monkeypatch.setattr(pipeline, "_splice_forecast_csv",
                        lambda forecast, asset_ids, path, source, source_path:
                        write_forecast_csv(forecast, asset_ids, path))
    _assert_same_tree(out, pipeline_run(cfg, data_dir / "written"))


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
    monkeypatch.setattr(pipeline, "write_report_csv", _raise_no_space)  # after three writes
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


def test_cli_rejects_a_wall_clock_stamp(tmp_path, capsys):
    """``nowZ`` and ``todayZ`` are not read as the time of the call, which would
    make the generated series, and a run's outputs, depend on when they ran."""
    synth = write_synth_config(tmp_path)
    synth.write_text(synth.read_text().replace("start = 2019-01-01T00:00:00Z", "start = nowZ"))
    assert main(["synth", "--config", str(synth)]) == 1
    assert capsys.readouterr().err == "bundlecast synth: [synth] unparsable timestamp 'nowZ'\n"
    cfg = write_run_config(tmp_path, test_end="todayZ")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"bundlecast run: {cfg}: test_end: unparsable timestamp 'todayZ'\n")


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
    # no two assets lie within 1 km, so the greedy cannot reach 2 bundles there
    cfg = str(write_run_config(data_dir, out="sweep_dir", diameters="1, 200, 600, 1200"))
    assert main(["sweep", "--config", cfg]) == 0
    lines = (data_dir / "sweep_dir" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "diameter_km,criterion,objective,feasible"
    assert len(lines) == 1 + 2 * 4  # two criteria x four diameters
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [d, c] for c in ("savar", "imcy") for d in ("1", "200", "600", "1200")]
    assert lines[1] == "1,savar,,false" and lines[5] == "1,imcy,,false"
    for line in lines[2:5] + lines[6:]:
        _, _, value, feasible = line.split(",")
        assert feasible == "true" and float(value) > 0.0


def test_cli_sweep_computes_each_covariance_once(data_dir, monkeypatch):
    """One covariance per criterion serves every diameter of a sweep."""
    calls = []

    def counting_covariance(panel, kind):
        calls.append(kind)
        return covariance(panel, kind)

    monkeypatch.setattr(pipeline, "covariance", counting_covariance)
    cfg = write_run_config(data_dir, out="sweep_once", diameters="1, 200, 600, 1200")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert [Criterion(kind) for kind in calls] == [Criterion.SAVAR, Criterion.IMCY]


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
    # the forecast stage hands its test forecasts and moments on as exact arrays, so the
    # stage path reconciles the bits run reconciles; it scores the raw forecasts it holds
    # in memory, as run does
    for name in ("bundling.csv", "forecasts_raw.csv", "residual_moments.csv",
                 "forecasts_raw.npz", "forecasts_reconciled.csv", "diagnostics.csv",
                 "evaluation_raw.csv"):
        assert (full / name).read_bytes() == (staged / name).read_bytes(), name
    # the readable moments hold the bits of the moments the stages hand on
    with np.load(full / "forecasts_raw.npz", allow_pickle=False) as arrays:
        moments = arrays["second_moment"]
    np.testing.assert_array_equal(
        read_moments_csv(full / "residual_moments.csv", *moments.shape[::-1]), moments)


def _rewrite_forecasts(out, asset_ids, names, horizon=None, shift=None):
    n_bundles = read_bundling_csv(out / "bundling.csv", asset_ids).n_bundles
    for name in names:
        fc = read_forecast_csv(out / name, asset_ids, n_bundles)
        origins = fc.origins if shift is None else fc.origins + shift
        write_forecast_csv(HierarchyForecast(origins, fc.values[:, :, :horizon],
                                             n_bundles, len(asset_ids)), asset_ids, out / name)


def _edit_arrays(edit):
    """A corruption of forecasts_raw.npz: ``edit`` takes its arrays as a dict and
    returns the arrays to save in their place."""
    def corrupt(out, asset_ids):
        path = out / "forecasts_raw.npz"
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        np.savez(path, **edit(arrays))
    return corrupt


def _replace_array(name, change):
    return _edit_arrays(lambda arrays: {**arrays, name: change(arrays[name])})


def _rewrite_arrays_file(change):
    def corrupt(out, asset_ids):
        path = out / "forecasts_raw.npz"
        path.write_bytes(change(path.read_bytes()))
    return corrupt


def _shorten_values_header(data):
    """Drop 16 bytes of padding from the array header of values.npy: numpy then reads
    them as data and stops 16 bytes before the entry ends, where the zip checksum of
    the entry is tested."""
    at = data.index(b"\x93NUMPY", data.index(b"values.npy")) + 8
    length = int.from_bytes(data[at:at + 2], "little")
    return data[:at] + (length - 16).to_bytes(2, "little") + data[at + 2:]


def _save_one_array(out, asset_ids):
    """A plain ``.npy`` array under the archive's name."""
    with open(out / "forecasts_raw.npz", "wb") as fh:
        np.save(fh, np.zeros(3))


def _negative_moment(moments):
    moments = moments.copy()
    moments[2, 1] = -1.0
    return moments


def _nan_value(values):
    values = values.copy()
    values[3, 0, 1] = np.nan
    return values


# each corruption of forecasts_raw.npz the reconcile stage must reject: (id, corruption)
BAD_ARRAYS = [
    ("reconcile-horizon", _replace_array("second_moment", lambda m: m[:7])),
    ("reconcile-earlier-origins",
     _replace_array("origins", lambda o: o - np.timedelta64(900, "s"))),
    ("reconcile-later-origins", _replace_array("origins", lambda o: o + np.timedelta64(900, "s"))),
    ("reconcile-fewer-origins", _edit_arrays(
        lambda a: {**a, "origins": a["origins"][1:], "values": a["values"][1:]})),
    ("reconcile-short-values", _replace_array("values", lambda v: v[:, :, :7])),
    ("reconcile-rows", _edit_arrays(lambda a: {**a, "values": a["values"][:, 1:],
                                               "second_moment": a["second_moment"][:, 1:]})),
    ("reconcile-moments-rows", _replace_array("second_moment", lambda m: m[:, 1:])),
    ("reconcile-flat-values", _replace_array("values", np.ravel)),
    ("reconcile-float32", _replace_array("values", lambda v: v.astype(np.float32))),
    ("reconcile-minute-origins", _replace_array("origins", lambda o: o.astype("datetime64[m]"))),
    ("reconcile-object-array", _replace_array("second_moment", lambda m: m.astype(object))),
    ("reconcile-missing-member", _edit_arrays(
        lambda a: {k: v for k, v in a.items() if k != "second_moment"})),
    ("reconcile-extra-member", _edit_arrays(lambda a: {**a, "extra": np.zeros(2)})),
    ("reconcile-nan-value", _replace_array("values", _nan_value)),
    ("reconcile-negative-moment", _replace_array("second_moment", _negative_moment)),
    ("reconcile-truncated", _rewrite_arrays_file(lambda data: data[:len(data) // 2])),
    ("reconcile-empty", _rewrite_arrays_file(lambda data: b"")),
    ("reconcile-text", _rewrite_arrays_file(lambda data: b"origin,level,series_id,lead,value\n")),
    ("reconcile-short-header", _rewrite_arrays_file(_shorten_values_header)),
    ("reconcile-npy", _save_one_array),
    ("reconcile-directory", lambda out, ids: ((out / "forecasts_raw.npz").unlink(),
                                              (out / "forecasts_raw.npz").mkdir())),
]


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
    *[("reconcile", corrupt) for _, corrupt in BAD_ARRAYS],
    ("evaluate", lambda out, ids: _rewrite_forecasts(
        out, ids, ["forecasts_raw.csv", "forecasts_reconciled.csv"], horizon=7)),
    ("evaluate", lambda out, ids: _rewrite_forecasts(
        out, ids, ["forecasts_reconciled.csv"], shift=np.timedelta64(900, "s"))),
    ("evaluate", lambda out, ids: _rewrite_forecasts(
        out, ids, ["forecasts_reconciled.csv"], shift=np.timedelta64(-900, "s"))),
], ids=["malformed-bundling", "bundle-count", *[name for name, _ in BAD_ARRAYS],
        "evaluate-horizon", "evaluate-origins", "evaluate-earlier-origins"])
def test_cli_stage_rejects_bad_inputs(data_dir, capsys, command, corrupt):
    cfg = str(write_run_config(data_dir, out="bad_inputs"))
    for stage in ("bundle", "forecast", "reconcile"):
        assert main([stage, "--config", cfg]) == 0
    panel = ingest_panel(data_dir / "assets.csv", data_dir / "series.csv")
    corrupt(data_dir / "bad_inputs", panel.asset_ids)
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bundlecast {command}: [{command}] ") and err.count("\n") == 1
    if command == "reconcile":
        assert "forecasts_raw.npz" in err


@pytest.fixture
def staged_arrays(data_dir):
    """A run directory after ``run``, and one after the bundle and forecast stages,
    with the config; persistence, so that only the handoff costs time."""
    cfg = str(write_run_config(data_dir, model="persistence", out="staged"))
    assert main(["run", "--config", cfg, "--out", str(data_dir / "full")]) == 0
    for command in ("bundle", "forecast"):
        assert main([command, "--config", cfg]) == 0
    return data_dir / "full", data_dir / "staged", cfg


def _archive_offsets(path):
    """Offsets of the bytes that say how forecasts_raw.npz is laid out: the first
    256 bytes of each entry (zip and array headers) and the central directory on."""
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    size = path.stat().st_size
    end = max(info.header_offset + 30 + len(info.filename) + info.compress_size
              for info in infos)
    return sorted({*range(end, size),
                   *(o for info in infos for o in range(info.header_offset,
                                                        min(info.header_offset + 256, size)))})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_reconcile_rejects_or_reads_exactly_an_edited_arrays_file(staged_arrays, capsys,
                                                                       data):
    """One byte of forecasts_raw.npz changed, or the file cut at any offset: reconcile
    exits 1 with one tagged line naming the file, or exits 0 with run's bytes."""
    full, out, cfg = staged_arrays
    path = out / "forecasts_raw.npz"
    original = (full / "forecasts_raw.npz").read_bytes()
    edited = bytearray(original)
    anywhere = st.integers(0, len(original) - 1)
    if data.draw(st.booleans(), label="truncate"):
        edited = edited[:data.draw(anywhere, label="length")]
    else:
        layout = st.sampled_from(_archive_offsets(full / "forecasts_raw.npz"))
        offset = data.draw(st.one_of(layout, anywhere), label="offset")
        edited[offset] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(edited))
    (out / "forecasts_reconciled.csv").unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["reconcile", "--config", cfg])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert ((out / "forecasts_reconciled.csv").read_bytes()
                == (full / "forecasts_reconciled.csv").read_bytes())
    else:
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"bundlecast reconcile: [reconcile] {path}: ")
        assert not (out / "forecasts_reconciled.csv").exists()


def test_cli_reconcile_reads_only_the_bundling_and_the_forecast_arrays(staged_arrays):
    full, out, cfg = staged_arrays
    for name in ("forecasts_raw.csv", "residual_moments.csv", "evaluation_raw.csv"):
        (out / name).unlink()
    assert main(["reconcile", "--config", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "bundling.csv", "diagnostics.csv", "forecasts_raw.npz", "forecasts_reconciled.csv"]
    for name in ("forecasts_reconciled.csv", "diagnostics.csv"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def test_cli_reconcile_formats_the_arrays_whatever_the_raw_csv_holds(staged_arrays):
    """Persistence reconciles to the same bits, so run copies its raw file; the
    reconcile command reads no raw CSV and writes the text of the arrays it read."""
    full, out, cfg = staged_arrays
    raw = out / "forecasts_raw.csv"
    lines = raw.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rpartition(",")[0] + ",123456\n"
    raw.write_text("".join(lines))
    assert main(["reconcile", "--config", cfg]) == 0
    reconciled = (out / "forecasts_reconciled.csv").read_bytes()
    assert reconciled == (full / "forecasts_reconciled.csv").read_bytes()
    assert reconciled == (full / "forecasts_raw.csv").read_bytes() != raw.read_bytes()


def test_cli_failed_forecast_rerun_leaves_no_arrays(staged_arrays, capsys, monkeypatch):
    """The arrays are removed before and written after the CSVs, so a rerun that fails
    leaves none beside newer CSVs, and reconcile asks for the forecast stage."""
    _, out, cfg = staged_arrays
    monkeypatch.setattr(pipeline, "write_moments_csv", _raise_no_space)
    assert main(["forecast", "--config", cfg]) == 1
    assert not (out / "forecasts_raw.npz").exists()
    capsys.readouterr()
    assert main(["reconcile", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"bundlecast reconcile: [reconcile] {out / 'forecasts_raw.npz'} not found; "
        f"run the 'forecast' stage first\n")


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
    assert "bundlecast reconcile: [reconcile] " in err and "forecasts_raw.npz not found" in err
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


def test_cli_evaluate_reads_only_the_bundling_and_the_reconciled_forecasts(data_dir):
    cfg = str(write_run_config(data_dir, out="evaluated"))
    out = data_dir / "evaluated"
    for command in ("bundle", "forecast", "reconcile"):
        assert main([command, "--config", cfg]) == 0
    raw_scores = (out / "evaluation_raw.csv").read_text()
    for name in ("forecasts_raw.csv", "residual_moments.csv", "forecasts_raw.npz",
                 "evaluation_raw.csv", "diagnostics.csv"):
        (out / name).unlink()
    assert main(["evaluate", "--config", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "bundling.csv", "evaluation.csv", "forecasts_reconciled.csv"]
    assert (out / "evaluation.csv").read_text() != raw_scores  # ridge: reconciling moves them


@pytest.mark.parametrize("key, value, edge", [
    ("train_start", "2018-06-01T00:00:00Z", "before the first timestamp of {series}, "
                                            "2019-01-01T00:00:00Z"),
    ("test_end", "2019-02-20T00:00:00Z", "after the last timestamp of {series}, "
                                         "2019-01-15T13:45:00Z"),
], ids=["train_start", "test_end"])
def test_cli_rejects_a_range_the_series_file_does_not_cover(data_dir, capsys, key, value, edge):
    """The window is not shortened to the data: each command stops at ingest."""
    cfg = write_run_config(data_dir, out="uncovered", diameters="200, 600")
    text = cfg.read_text()
    start = text.index(f"{key} = ")
    cfg.write_text(text[:start] + f"{key} = {value}" + text[text.index("\n", start):])
    expected = (f"[ingest] {cfg}: {key} is {value}, "
                + edge.format(series=data_dir / "series.csv"))
    for command in ("run", "sweep", "bundle", "forecast", "reconcile", "evaluate"):
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"bundlecast {command}: {expected}\n"
        assert not (data_dir / "uncovered").exists()


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


@pytest.mark.parametrize("writer, name, stage", [
    ("write_forecast_csv", "forecasts_raw.csv", "forecast"),
    ("write_moments_csv", "residual_moments.csv", "forecast"),
    ("write_forecast_arrays", "forecasts_raw.npz", "forecast"),
    ("write_forecast_csv", "forecasts_reconciled.csv", "reconcile"),
    ("write_report_csv", "evaluation_raw.csv", "forecast"),
    ("write_report_csv", "evaluation.csv", "evaluate"),
    # run reconciles persistence forecasts to the same bits, so it copies the raw file
    # it wrote; the reconcile command reads no raw file, so it copies none
    ("copyfile", "forecasts_reconciled.csv", "reconcile"),
])
def test_cli_write_failure_is_tagged_with_its_stage(data_dir, capsys, monkeypatch,
                                                    writer, name, stage):
    model = "persistence" if writer == "copyfile" else "ridge"
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
    if writer == "copyfile":
        assert main([stage, "--config", cfg]) == 0
    else:
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
