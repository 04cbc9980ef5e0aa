"""End-to-end orchestration: bundle, predict, reconcile, evaluate.

A run consumes one config plus the assets/series CSV pair and produces a run
directory, whose files :mod:`.rundir` lays out. Outputs are a pure function
of (config, input files): no wall-clock time or machine state leaks into any
file, so identical runs are byte-identical. Every fleet and bundle sum is
``Bundling.aggregate``, which uses no BLAS; the covariance and ridge
products still go through BLAS, whose thread count can move a covariance
entry by an ulp. So a file moves with the BLAS thread count only when a
greedy choice is within an ulp of a tie.

Bundling is :func:`make_bundling`; each later stage is one body that
computes its products from in-memory inputs, writes them and returns what
the next stage needs (``_forecast``, ``_reconcile``, ``_score``). ``_score``
builds the realized values it scores against; the forecast body ends by
scoring its raw forecasts with it (``evaluation_raw.csv``), and the evaluate
stage is ``_score`` of the reconciled ones (``evaluation.csv``). ``run``
ingests and bundles once, then runs each pass as the stage commands' calls
in their order, each under its own stage tag: it writes the bundling, then
calls the forecast, reconcile and evaluate bodies. For the no-bundling
baseline (all assets in one bundle, ``baseline_`` files) it calls them
again, but the baseline's forecast body copies the fleet and asset rows from
the bundled pass and its one bundle row from its fleet row, so no series is
fitted twice, and it copies the lines of those rows from the bundled raw
file into its own; then ``run`` compares the two passes. With
``n_bundles = 1`` the two passes have the same bundling, so the baseline pass
fits nothing and writes the bundled pass's bytes. The forecast stage saves
its test forecasts and residual moments as CSVs and as exact arrays, which
the reconcile stage loads. When reconciliation changes no bit of the raw
forecasts (persistence input is coherent), ``run``'s ``_reconcile`` copies
the raw forecast file it wrote from them; bits, not values, decide
(``forecast.same_bits``). The ``reconcile`` command does not read the raw
CSV, so it formats its output: a hand-edited raw CSV changes nothing it
writes. A stage command loads its inputs with the loaders of :mod:`.rundir`,
which names each file and the stage that writes it, then calls the same
body. Each product file is written by one body inside ``_stage``, so a
failure while computing or writing it is tagged with that stage whichever
command runs it.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from shutil import copyfile, rmtree

import numpy as np

from . import rundir
from .bundling import (Bundling, check_feasible, greedy_merge, kmeans_bundle, objective,
                       write_bundling_csv)
from .config import RunConfig, load_run_config, load_synth_config
from .core import (
    AssetPanel,
    Criterion,
    covariance,
    format_utc_timestamp,
    haversine_matrix,
    ingest_panel,
)
from .errors import BundlecastError, ConfigError, InfeasibleMergeError
from .forecast import (FLOAT_FORMAT, HierarchyForecast, RollingForecasts, _splice_forecast_csv,
                       hierarchy_actuals, hierarchy_capacities, rolling_forecast, same_bits,
                       write_forecast_csv)
from .metrics import EvaluationReport, evaluate
from .reconcile import build_reconciler, count_bound_violations, estimate_weights, reconcile
from .synth import write_synth_csv

WEIGHT_FLOOR_REL = 1e-8  # of squared fleet capacity


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


def _score(panel: AssetPanel, bundling: Bundling, forecast: HierarchyForecast,
           path: Path) -> dict[str, EvaluationReport]:
    """Score test forecasts against realized values; writes the report and returns it."""
    reports = evaluate(hierarchy_actuals(panel, bundling, forecast.origins, forecast.horizon),
                       forecast, hierarchy_capacities(panel, bundling))
    rundir.write_report_csv(reports, path)
    return reports


def _forecast(config: RunConfig, panel: AssetPanel, bundling: Bundling, out: Path,
              prefix: str = "", shared: RollingForecasts | None = None) -> RollingForecasts:
    """Rolling test forecasts and in-sample residual moments; writes both as
    CSVs, then as the exact arrays the reconcile stage reads, then scores the
    test forecasts.

    ``shared`` is the bundled pass's forecasts, whose fleet and asset rows
    are reused (see :func:`rolling_forecast`); their lines are then copied
    from its raw file too, and only the bundle rows are formatted. An old
    arrays file is removed before the CSVs are written, so a write that fails
    leaves no arrays beside newer CSVs.
    """
    forecasts = rolling_forecast(panel, bundling, config.forecast_task, config.specs,
                                 config.test_start, shared)
    arrays = out / (prefix + rundir.FORECAST_ARRAYS_FILE)
    arrays.unlink(missing_ok=True)
    path = out / (prefix + rundir.FORECAST_TEST_FILE)
    if shared is None:
        write_forecast_csv(forecasts.test, panel.asset_ids, path)
    else:
        _splice_forecast_csv(forecasts.test, panel.asset_ids, path, shared.test,
                             out / rundir.FORECAST_TEST_FILE)
    rundir.write_moments_csv(forecasts.second_moment, out / (prefix + rundir.MOMENTS_FILE))
    rundir.write_forecast_arrays(forecasts, arrays)
    _score(panel, bundling, forecasts.test, out / (prefix + rundir.REPORT_RAW_FILE))
    return forecasts


def _reconcile(panel: AssetPanel, bundling: Bundling, forecasts: RollingForecasts, out: Path,
               prefix: str = "", raw_file: Path | None = None) -> HierarchyForecast:
    """Per-lead WLS reconciliation; writes the reconciled forecasts and the diagnostics.

    ``raw_file`` is the raw forecast file this process wrote from the test
    forecasts, if any. Reconciled forecasts bitwise equal to them are its
    bytes, so it is copied rather than formatted again; without it they are
    formatted.
    """
    second_moment, test = forecasts.second_moment, forecasts.test
    variances = estimate_weights(second_moment,
                                 eps_floor=WEIGHT_FLOOR_REL * panel.fleet_capacity ** 2)
    reconciled = reconcile(build_reconciler(bundling, variances), test)
    if raw_file is not None and same_bits(reconciled.values, test.values):
        copyfile(raw_file, out / (prefix + rundir.RECONCILED_FILE))
    else:
        write_forecast_csv(reconciled, panel.asset_ids, out / (prefix + rundir.RECONCILED_FILE))
    violations = count_bound_violations(reconciled, hierarchy_capacities(panel, bundling))
    rundir.write_diagnostics_csv(second_moment, variances,
                                 out / (prefix + rundir.DIAGNOSTICS_FILE), violations)
    return reconciled


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
            _stage("bundle", write_bundling_csv, pass_bundling,
                   out / (prefix + rundir.BUNDLING_FILE))
            # the baseline copies the bundled pass's fleet and asset rows; rebinding
            # the name then frees them before the baseline reconciles
            forecasts = _stage("forecast", _forecast, config, panel, pass_bundling, out, prefix,
                               forecasts)
            reconciled = _stage("reconcile", _reconcile, panel, pass_bundling, forecasts, out,
                                prefix, out / (prefix + rundir.FORECAST_TEST_FILE))
            reports.append(_stage("evaluate", _score, panel, pass_bundling, reconciled,
                                  out / (prefix + rundir.REPORT_FILE)))
            del reconciled  # the next pass does not hold it
        if config.baseline:
            _stage("evaluate", rundir.write_comparison, *reports, out / rundir.COMPARISON_FILE)
        _stage("ingest", rundir.write_manifest, config, out)
    return out


# --- stage-wise commands (build one run directory incrementally) -------------

def _open_stage(config_path, out_dir) -> tuple[RunConfig, Path, AssetPanel]:
    """The config, run directory and panel of a stage command; creates no directory."""
    config = load_run_config(config_path)
    return config, Path(out_dir or config.output_dir), _stage("ingest", load_panel, config)


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
    _stage("bundle", write_bundling_csv, bundling, out / rundir.BUNDLING_FILE)
    if sigma is not None:
        print(f"objective[{config.criterion}] = {objective(bundling, sigma):.6g}")
    return out / rundir.BUNDLING_FILE


def stage_forecast(config_path, out_dir=None) -> Path:
    """Produce test forecasts and in-sample residual moments for a learned bundling."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling = _stage("forecast", rundir.load_bundling, config, out, panel)
    _stage("forecast", _forecast, config, panel, bundling, out)
    return out / rundir.FORECAST_TEST_FILE


def stage_reconcile(config_path, out_dir=None) -> Path:
    """Reconcile the raw forecasts the forecast stage saved as exact arrays."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling = _stage("reconcile", rundir.load_bundling, config, out, panel)
    forecasts = _stage("reconcile", rundir.load_forecast_arrays, config, out, panel)
    _stage("reconcile", _reconcile, panel, bundling, forecasts, out)
    return out / rundir.RECONCILED_FILE


def stage_evaluate(config_path, out_dir=None) -> Path:
    """Score the reconciled forecasts against realized values."""
    config, out, panel = _open_stage(config_path, out_dir)
    bundling = _stage("evaluate", rundir.load_bundling, config, out, panel)
    reconciled = _stage("evaluate", rundir.load_reconciled, config, out, panel)
    _stage("evaluate", _score, panel, bundling, reconciled, out / rundir.REPORT_FILE)
    return out / rundir.REPORT_FILE


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
        _stage("bundle", _sweep, config, train, out / rundir.SWEEP_FILE)
        _stage("ingest", rundir.write_manifest, config, out)
    return out
