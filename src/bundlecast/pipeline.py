"""End-to-end orchestration: bundle, predict, reconcile, evaluate.

A run consumes one config plus the assets/series CSV pair and produces a
run directory holding the bundling, raw and reconciled forecasts, the
in-sample residual moments, the evaluation reports, reconciler diagnostics,
and a manifest of input hashes. Outputs are a pure function of (config,
input files): no wall-clock time or machine state leaks into any file, so
identical runs are byte-identical. Every fleet and bundle sum is
``Bundling.aggregate``, which uses no BLAS; the covariance and ridge
products still go through BLAS, whose thread count can move a covariance
entry by an ulp. So a file moves with the BLAS thread count only when a
greedy choice is within an ulp of a tie.

Bundling is :func:`make_bundling`; each later stage is one body that computes
its products from in-memory inputs, writes them and returns what the next
stage needs (``_forecast``, ``_reconcile``). One ``_score`` body scores the
raw forecasts in the forecast stage (``evaluation_raw.csv``) and the
reconciled ones in the evaluate stage (``evaluation.csv``). ``run`` ingests
and bundles once, then calls the bodies in order; it scores a pass's raw and
reconciled forecasts after reconciling them, against one build of the
realized values. For the no-bundling baseline (all assets in one bundle,
``baseline_`` files) it calls them again, but the baseline's forecast body
copies the fleet and asset rows from the bundled pass and its one bundle row
from its fleet row, so no series is fitted twice, and it copies the lines of
those rows from the bundled raw file into its own; then ``run`` compares the
two passes. With ``n_bundles = 1`` the two passes have the same bundling, so
the baseline pass fits nothing and writes the bundled pass's bytes. The
forecast stage saves its test forecasts and residual moments twice: as CSVs
to read, and as exact arrays (``forecasts_raw.npz``) that the reconcile
stage loads, so the stage path reconciles the same bits as ``run``. When
reconciliation changes no bit of the raw forecasts (persistence input is
coherent), ``run``'s ``_reconcile`` copies the raw forecast file it wrote
from them; bits, not values, decide (``forecast.same_bits``). The
``reconcile`` command does not read the raw CSV, so it formats its output:
a hand-edited raw CSV changes nothing it writes. A stage command loads its
inputs from the run directory, then calls the same body.
Each product file is written by one body inside ``_stage``, so a failure
while computing or writing it is tagged with its stage whichever command
runs it (the manifest counts as ingest, ``sweep.csv`` as bundle).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from shutil import copyfile, rmtree

import numpy as np

from . import __version__
from .bundling import (
    Bundling,
    check_feasible,
    greedy_merge,
    kmeans_bundle,
    objective,
    read_bundling_csv,
    write_bundling_csv,
)
from .config import RunConfig, load_run_config, load_synth_config
from .core import (
    AssetPanel,
    Criterion,
    covariance,
    format_utc_timestamp,
    haversine_matrix,
    ingest_panel,
)
from .errors import BundlecastError, ConfigError, InfeasibleMergeError, ShapeMismatchError
from .forecast import (
    FLOAT_FORMAT,
    LEVELS,
    HierarchyForecast,
    RollingForecasts,
    _splice_forecast_csv,
    forecast_origins,
    hierarchy_actuals,
    hierarchy_capacities,
    read_forecast_arrays,
    read_forecast_csv,
    rolling_forecast,
    same_bits,
    write_forecast_arrays,
    write_forecast_csv,
    write_moments_csv,
)
from .metrics import EvaluationReport, evaluate, write_report_csv
from .reconcile import (
    build_reconciler,
    count_bound_violations,
    estimate_weights,
    reconcile,
    write_diagnostics_csv,
)
from .synth import write_synth_csv

Reports = dict[str, EvaluationReport]  # per level
Truth = tuple[HierarchyForecast, np.ndarray]  # realized values, capacity per row

WEIGHT_FLOOR_REL = 1e-8  # of squared fleet capacity

BUNDLING_FILE = "bundling.csv"
FORECAST_TEST_FILE = "forecasts_raw.csv"
MOMENTS_FILE = "residual_moments.csv"
FORECAST_ARRAYS_FILE = "forecasts_raw.npz"
RECONCILED_FILE = "forecasts_reconciled.csv"
REPORT_FILE = "evaluation.csv"
REPORT_RAW_FILE = "evaluation_raw.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
COMPARISON_FILE = "comparison.csv"
MANIFEST_FILE = "manifest.json"

# the stage that writes each file a stage command reads
_PRODUCER = {BUNDLING_FILE: "bundle", FORECAST_ARRAYS_FILE: "forecast",
             RECONCILED_FILE: "reconcile"}


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise BundlecastError(f"[{name}] {exc}") from exc


def load_panel(config: RunConfig) -> AssetPanel:
    """Ingest the configured files, restricted to the train..test range.

    The panel's time step must be the config's ``granularity_minutes``, and
    the series file must cover ``train_start`` through ``test_end``.
    """
    panel = ingest_panel(config.assets_file, config.series_file)
    task = config.forecast_task
    if panel.step != task.step:
        raise ConfigError(
            f"{config.path}: granularity_minutes is {task.granularity_minutes}, but "
            f"{config.series_file} has a {panel.step / np.timedelta64(60, 's'):g}-minute step")
    first, last = panel.timestamps[0], panel.timestamps[-1]
    if config.train_start < first:
        raise ConfigError(
            f"{config.path}: train_start is {format_utc_timestamp(config.train_start)}, before "
            f"the first timestamp of {config.series_file}, {format_utc_timestamp(first)}")
    if config.test_end > last:
        raise ConfigError(
            f"{config.path}: test_end is {format_utc_timestamp(config.test_end)}, after "
            f"the last timestamp of {config.series_file}, {format_utc_timestamp(last)}")
    return panel.window(config.train_start, config.test_end)


def make_bundling(config: RunConfig, panel: AssetPanel,
                  distances: np.ndarray) -> tuple[Bundling, np.ndarray | None]:
    """The config's ``n_bundles`` bundles, learned on the training range only.

    ``train_end`` bounds only this window and ``sweep``'s: the forecast stage
    fits on every origin whose T targets end before ``test_start``.

    A covariance criterion runs the greedy on the training window (test data
    stays unseen), which enforces the diameter cutoff or raises
    InfeasibleMergeError. ``kmeans`` clusters the coordinates and ignores the
    cutoff, so each pair it breaks is counted in one UserWarning. Returns the
    bundling and the criterion matrix it minimized (None for kmeans).
    """
    train = panel.window(config.train_start, config.train_end)  # checks the range for kmeans too
    if config.criterion == "kmeans":
        bundling = kmeans_bundle(panel.assets, config.n_bundles, config.seed)
        violations = check_feasible(bundling, distances, config.diameter_km)
        if violations:
            warnings.warn(f"kmeans bundling violates the {config.diameter_km} km diameter "
                          f"cutoff in {len(violations)} asset pair(s)", stacklevel=2)
        return bundling, None
    sigma = covariance(train, config.criterion)
    bundling = greedy_merge(sigma, distances, config.n_bundles, config.diameter_km, panel.asset_ids)
    return bundling, sigma


def _truth(panel: AssetPanel, bundling: Bundling,
           forecast: HierarchyForecast) -> Truth:
    """The realized values at a forecast's origins and the capacity of every row."""
    return (hierarchy_actuals(panel, bundling, forecast.origins, forecast.horizon),
            hierarchy_capacities(panel, bundling))


def _score(truth: Truth, forecast: HierarchyForecast, path: Path) -> Reports:
    """Score test forecasts against realized values; writes the report and returns it."""
    actuals, capacities = truth
    reports = evaluate(actuals, forecast, capacities)
    write_report_csv(reports, path)
    return reports


def _forecast(config: RunConfig, panel: AssetPanel, bundling: Bundling, out: Path,
              prefix: str = "", shared: RollingForecasts | None = None) -> RollingForecasts:
    """Rolling test forecasts and in-sample residual moments; writes both as
    CSVs, then as the exact arrays the reconcile stage reads.

    ``shared`` is the bundled pass's forecasts, whose fleet and asset rows
    are reused (see :func:`rolling_forecast`); their lines are then copied
    from its raw file too, and only the bundle rows are formatted. An old
    arrays file is removed before the CSVs are written, so a write that fails
    leaves no arrays beside newer CSVs.
    """
    forecasts = rolling_forecast(panel, bundling, config.forecast_task, config.specs,
                                 config.test_start, shared)
    arrays = out / (prefix + FORECAST_ARRAYS_FILE)
    arrays.unlink(missing_ok=True)
    path = out / (prefix + FORECAST_TEST_FILE)
    if shared is None:
        write_forecast_csv(forecasts.test, panel.asset_ids, path)
    else:
        _splice_forecast_csv(forecasts.test, panel.asset_ids, path, shared.test,
                             out / FORECAST_TEST_FILE)
    write_moments_csv(forecasts.second_moment, out / (prefix + MOMENTS_FILE))
    write_forecast_arrays(forecasts, arrays)
    return forecasts


def _reconcile(panel: AssetPanel, bundling: Bundling, second_moment: np.ndarray,
               test: HierarchyForecast, out: Path, prefix: str = "",
               raw_file: Path | None = None) -> HierarchyForecast:
    """Per-lead WLS reconciliation; writes the reconciled forecasts and the diagnostics.

    ``raw_file`` is the raw forecast file this process wrote from ``test``, if
    any. Reconciled forecasts bitwise equal to ``test`` are its bytes, so it
    is copied rather than formatted again; without it they are formatted.
    """
    variances = estimate_weights(second_moment,
                                 eps_floor=WEIGHT_FLOOR_REL * panel.fleet_capacity ** 2)
    reconciled = reconcile(build_reconciler(bundling, variances), test)
    if raw_file is not None and same_bits(reconciled.values, test.values):
        copyfile(raw_file, out / (prefix + RECONCILED_FILE))
    else:
        write_forecast_csv(reconciled, panel.asset_ids, out / (prefix + RECONCILED_FILE))
    violations = count_bound_violations(reconciled, hierarchy_capacities(panel, bundling))
    write_diagnostics_csv(second_moment, variances, out / (prefix + DIAGNOSTICS_FILE),
                          violations)
    return reconciled


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(config: RunConfig, out_dir: Path) -> None:
    manifest = {
        "package": "bundlecast",
        "version": __version__,
        "config_sha256": _sha256(config.path),
        "assets_sha256": _sha256(config.assets_file),
        "series_sha256": _sha256(config.series_file),
    }
    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_comparison(bundled: Reports, baseline: Reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,metric,bundled,baseline\n")
        for level in LEVELS:
            for name in ("nmae", "rmse", "ed", "vs"):
                b, k1 = getattr(bundled[level], name), getattr(baseline[level], name)
                if b is not None and k1 is not None:
                    fh.write(f"{level},{name},{FLOAT_FORMAT % b},{FLOAT_FORMAT % k1}\n")


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror or exc}") from exc


@contextmanager
def _fresh_out_dir(out: Path):
    """Create (or claim an empty) run directory; remove what was written on failure."""
    created = not out.exists()
    _make_dir(out)
    if not created and any(out.iterdir()):
        raise ConfigError(f"output directory {out} exists and is not empty")
    try:
        yield out
    except BaseException:
        if created:
            rmtree(out, ignore_errors=True)
        else:
            for child in out.iterdir():
                child.unlink()
        raise


def run(config_path, out_dir=None) -> Path:
    """Execute a full run from a config file; returns the run directory.

    Partial outputs are removed when any stage fails.
    """
    config = load_run_config(config_path)
    with _fresh_out_dir(Path(out_dir or config.output_dir)) as out:
        panel = _stage("ingest", load_panel, config)
        bundling, _ = _stage("bundle", make_bundling, config, panel, haversine_matrix(panel.assets))
        passes = {"": bundling}
        if config.baseline:
            passes["baseline_"] = Bundling.single_bundle(panel.asset_ids)
        forecasts, reports = None, []
        for prefix, pass_bundling in passes.items():
            _stage("bundle", write_bundling_csv, pass_bundling, out / (prefix + BUNDLING_FILE))
            # the baseline copies the bundled pass's fleet and asset rows; rebinding
            # the name then frees them before the baseline reconciles
            forecasts = _stage("forecast", _forecast, config, panel, pass_bundling, out, prefix,
                               forecasts)
            reconciled = _stage("reconcile", _reconcile, panel, pass_bundling,
                                forecasts.second_moment, forecasts.test, out, prefix,
                                out / (prefix + FORECAST_TEST_FILE))
            # both scorings follow reconciliation, so the realized values are built
            # once and are not held while it runs
            truth = _stage("forecast", _truth, panel, pass_bundling, forecasts.test)
            _stage("forecast", _score, truth, forecasts.test, out / (prefix + REPORT_RAW_FILE))
            reports.append(_stage("evaluate", _score, truth, reconciled,
                                  out / (prefix + REPORT_FILE)))
            del reconciled, truth  # the next pass holds neither
        if config.baseline:
            _stage("evaluate", _write_comparison, *reports, out / COMPARISON_FILE)
        _stage("ingest", write_manifest, config, out)
    return out


# --- stage-wise commands (build one run directory incrementally) -------------

def _open_stage(config_path, out_dir) -> tuple[RunConfig, Path, AssetPanel]:
    """The config, run directory and panel of a stage command; creates no directory."""
    config = load_run_config(config_path)
    return config, Path(out_dir or config.output_dir), _stage("ingest", load_panel, config)


def _load_inputs(config: RunConfig, out: Path, panel: AssetPanel, *names):
    """``(bundling, *products)`` read from a run directory, checked against the config.

    The forecast arrays are read as RollingForecasts and a forecast CSV as a
    HierarchyForecast; either's test forecasts must hold the config's horizon
    at the test origins the forecast stage issues.
    """
    for name in (BUNDLING_FILE, *names):
        if not (out / name).exists():
            raise ConfigError(f"{out / name} not found; run the '{_PRODUCER[name]}' stage first")
    bundling = read_bundling_csv(out / BUNDLING_FILE, panel.asset_ids)
    if bundling.n_bundles != config.n_bundles:
        raise ShapeMismatchError(f"{out / BUNDLING_FILE}: {bundling.n_bundles} bundles, but "
                                 f"the config's n_bundles is {config.n_bundles}")
    horizon = config.forecast_task.horizon
    products = []
    for name in names:
        if name == FORECAST_ARRAYS_FILE:
            product = read_forecast_arrays(out / name, bundling.n_bundles, panel.n_assets)
            forecast = product.test
        else:
            product = forecast = read_forecast_csv(out / name, panel.asset_ids,
                                                   bundling.n_bundles)
        if forecast.horizon != horizon:
            raise ShapeMismatchError(f"{out / name}: {forecast.horizon} leads, but the "
                                     f"config's horizon is {horizon}")
        origins = panel.timestamps[forecast_origins(panel, config.forecast_task,
                                                    config.test_start)]
        if not np.array_equal(forecast.origins, origins):
            raise ShapeMismatchError(f"{out / name}: {forecast.n_origins} origins, but not the "
                                     f"{origins.size} test origins of the config")
        products.append(product)
    return (bundling, *products)


def stage_synth(config_path, out_dir=None) -> tuple[Path, Path]:
    """Generate the assets/series CSV pair named in a generator config."""
    cfg, assets_file, series_file = load_synth_config(config_path)
    assets, series = Path(assets_file), Path(series_file)
    if out_dir is not None:
        assets, series = Path(out_dir) / assets.name, Path(out_dir) / series.name
    # realpath, unlike Path.resolve, does not raise on a symlink loop
    if os.path.realpath(assets) == os.path.realpath(series):
        raise ConfigError(f"{config_path}: assets_file and series_file both name {series}, "
                          f"so the series would overwrite the assets")
    for target in (assets, series):
        _make_dir(target.parent)
    _stage("synth", write_synth_csv, cfg, assets, series)
    return assets, series


def stage_bundle(config_path, out_dir=None) -> Path:
    """Learn bundles and write bundling.csv into the run directory."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling, sigma = _stage("bundle", make_bundling, config, panel, haversine_matrix(panel.assets))
    _make_dir(out)  # the one stage that may create the run directory
    _stage("bundle", write_bundling_csv, bundling, out / BUNDLING_FILE)
    if sigma is not None:
        print(f"objective[{config.criterion}] = {objective(bundling, sigma):.6g}")
    return out / BUNDLING_FILE


def stage_forecast(config_path, out_dir=None) -> Path:
    """Produce test forecasts and in-sample residual moments for a learned bundling."""
    config, out, panel = _open_stage(config_path, out_dir)
    (bundling,) = _stage("forecast", _load_inputs, config, out, panel)
    test = _stage("forecast", _forecast, config, panel, bundling, out).test
    truth = _stage("forecast", _truth, panel, bundling, test)
    _stage("forecast", _score, truth, test, out / REPORT_RAW_FILE)
    return out / FORECAST_TEST_FILE


def stage_reconcile(config_path, out_dir=None) -> Path:
    """Reconcile the raw forecasts the forecast stage saved as exact arrays."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling, forecasts = _stage("reconcile", _load_inputs, config, out, panel,
                                 FORECAST_ARRAYS_FILE)
    _stage("reconcile", _reconcile, panel, bundling, forecasts.second_moment, forecasts.test,
           out)
    return out / RECONCILED_FILE


def stage_evaluate(config_path, out_dir=None) -> Path:
    """Score the reconciled forecasts against realized values."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling, reconciled = _stage("evaluate", _load_inputs, config, out, panel, RECONCILED_FILE)
    truth = _stage("evaluate", _truth, panel, bundling, reconciled)
    _stage("evaluate", _score, truth, reconciled, out / REPORT_FILE)
    return out / REPORT_FILE


def _sweep(config: RunConfig, train: AssetPanel, path: Path) -> None:
    """Write the greedy objective at each configured diameter, per criterion.

    Each criterion matrix is computed once for all diameters, and freed
    before the next one is built. A diameter at
    which the greedy cannot reach ``n_bundles`` gets an empty objective and
    ``false``.
    """
    distances = haversine_matrix(train.assets)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("diameter_km,criterion,objective,feasible\n")
        for criterion in (Criterion.SAVAR, Criterion.IMCY):
            sigma = covariance(train, criterion)
            for diameter in config.diameters:
                try:
                    bundling = greedy_merge(sigma, distances, config.n_bundles, diameter,
                                            train.asset_ids)
                except InfeasibleMergeError:
                    result = ",false"
                else:
                    result = f"{FLOAT_FORMAT % objective(bundling, sigma)},true"
                fh.write(f"{FLOAT_FORMAT % diameter},{criterion.value},{result}\n")
            del sigma  # before the next criterion's matrix is built


def run_sweep(config_path, out_dir=None) -> Path:
    """Greedy objective vs. diameter for the savar and imcy criteria."""
    config = load_run_config(config_path)
    if config.diameters is None:
        raise ConfigError(f"{config_path}: sweep needs a 'diameters' key")
    with _fresh_out_dir(Path(out_dir or config.output_dir)) as out:
        # windowed under the bundle stage, as in make_bundling; no name keeps the
        # whole panel alive while the sweep runs
        train = _stage("bundle", _stage("ingest", load_panel, config).window,
                       config.train_start, config.train_end)
        _stage("bundle", _sweep, config, train, out / "sweep.csv")
        _stage("ingest", write_manifest, config, out)
    return out
