"""Persistence, direct multi-horizon ridge, and the rolling harness."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve

from bundlecast import (
    Bundling,
    ForecastTask,
    HierarchyForecast,
    ModelSpec,
    build_reconciler,
    estimate_weights,
    hierarchy_actuals,
    hierarchy_capacities,
    hierarchy_series,
    reconcile,
    rolling_forecast,
)
from bundlecast.core import format_utc_timestamp
from bundlecast.forecast import (
    _VALUE_FORMAT,
    FLOAT_FORMAT,
    _calendar_features,
    _forecast_series,
    _ridge_features,
    read_forecast_csv,
    ridge_fit,
    read_moments_csv,
    write_forecast_csv,
    write_moments_csv,
)
from bundlecast.errors import (
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)

from conftest import make_panel, random_panel


def hourly_timestamps(n, start="2019-03-01T00:00:00"):
    return np.datetime64(start, "s") + np.timedelta64(3600, "s") * np.arange(n)


def windows(values, history_len, horizon):
    """(lags, targets) of every origin whose H lags and T targets lie in ``values``."""
    n_rows = values.shape[0] - history_len - horizon + 1
    lags = np.stack([values[j:j + history_len] for j in range(n_rows)])
    targets = np.stack([values[j + history_len:j + history_len + horizon]
                        for j in range(n_rows)])
    return lags, targets


def standardized(lags, mean, scale):
    return np.hstack([(lags - mean) / scale, np.ones((lags.shape[0], 1))])


# --- ridge features and fit ----------------------------------------------------------

def test_ridge_features_are_lags_then_calendar(rng):
    values = rng.uniform(0.0, 30.0, size=80)
    ts = hourly_timestamps(80)
    h = 5
    plain = _ridge_features(values, ts, h, use_calendar=False)
    feats = _ridge_features(values, ts, h, use_calendar=True)
    assert plain.shape == (76, h) and feats.shape == (76, h + 4)
    for j in range(76):
        expect = np.concatenate([values[j:j + h], _calendar_features(ts[j + h - 1:j + h])[0]])
        assert feats[j].tobytes() == expect.tobytes(), j
        assert plain[j].tobytes() == values[j:j + h].tobytes(), j


def test_ridge_recovers_exact_linear_map():
    # y_t = 2 * y_{t-1}, lambda=0, H=1, T=1: lag coefficient must be 2
    _, scale, w = ridge_fit(*windows(2.0 ** np.arange(12), 1, 1), ridge_lambda=0.0)
    # the solution acts on standardized features; divide by the scale for the raw map
    assert w[0, 0] / scale[0] == pytest.approx(2.0, abs=1e-8)


def test_ridge_matches_pseudo_inverse_oracle(rng):
    lags, targets = windows(rng.uniform(0.0, 50.0, size=120), 6, 3)
    mean, scale, w = ridge_fit(lags, targets, ridge_lambda=0.0)
    expect, *_ = np.linalg.lstsq(standardized(lags, mean, scale), targets, rcond=None)
    np.testing.assert_allclose(w[:6], expect[:6], rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(w[6], expect[6], rtol=1e-8, atol=1e-10)


def test_ridge_matches_closed_form_at_positive_lambda(rng):
    lam = 3.7
    lags, targets = windows(rng.uniform(0.0, 10.0, size=90), 4, 2)
    mean, scale, w = ridge_fit(lags, targets, ridge_lambda=lam)
    xa = standardized(lags, mean, scale)
    penalty = np.diag([lam] * 4 + [0.0])
    expect = np.linalg.inv(xa.T @ xa + penalty) @ xa.T @ targets
    np.testing.assert_allclose(w[:4], expect[:4], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(w[4], expect[4], rtol=1e-9, atol=1e-12)


def test_ridge_shrinkage_limit(rng):
    values = rng.uniform(0.0, 1.0, size=200)
    task = ForecastTask(5, 2, 60)
    lags, targets = windows(values, 5, 2)
    _, _, w = ridge_fit(lags, targets, ridge_lambda=1e9)
    assert np.all(np.abs(w[:-1]) < 1e-5)
    origins = np.arange(4, 4 + lags.shape[0])  # every training origin
    (preds,) = _forecast_series(values, hourly_timestamps(200), [origins],
                                ModelSpec("ridge", 1e9), task, 200, cap=1.0)
    np.testing.assert_allclose(preds, np.tile(targets.mean(axis=0), (preds.shape[0], 1)),
                               atol=1e-4)


def test_ridge_insufficient_data(rng):
    # 8 training samples leave one persistence origin but are too few to fit H=4, T=4
    panel = random_panel(rng, 3, 50)
    b = Bundling.single_bundle(panel.asset_ids)
    specs = {**persistence_specs(), "bundle": ModelSpec("ridge")}
    rolling_forecast(panel, b, ForecastTask(4, 4, 15), persistence_specs(), panel.timestamps[8])
    with pytest.raises(InsufficientDataError, match="need at least 9 training samples for "
                                                    "H=4, T=4; got 8"):
        rolling_forecast(panel, b, ForecastTask(4, 4, 15), specs, panel.timestamps[8])


def test_ridge_singular_at_lambda_zero():
    # constant series: zero-variance lag columns are degenerate at lambda=0
    lags, targets = windows(np.full(30, 5.0), 3, 1)
    with pytest.raises(InsufficientDataError, match="normal equations singular"):
        ridge_fit(lags, targets, ridge_lambda=0.0)
    # any positive penalty restores solvability
    ridge_fit(lags, targets, ridge_lambda=1.0)


@pytest.mark.parametrize("lam", [0.0, 1e-30])
def test_ridge_singular_solve_is_insufficient_data(lam):
    # a repeated column; without the pivot test, np.linalg.solve finds the system
    # singular (seed 4) or returns split weights (5 at both lambdas, 6 and 16 at 1e-30)
    for seed in (4, 5, 6, 16):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((50, 4))
        features[:, 3] = features[:, 0]
        with pytest.raises(InsufficientDataError, match=rf"normal equations singular at "
                                                        rf"lambda={lam} \(50 rows, 4 features\)"):
            ridge_fit(features, rng.standard_normal((50, 2)), ridge_lambda=lam)


def test_ridge_rejects_the_lags_of_a_straight_line():
    # two lags of a line are one column after centring, but rounding leaves a smallest
    # squared pivot of 5e-16 of its diagonal entry, above eps and below n * eps
    lags, targets = windows(np.linspace(50.0, 1.0, 60), 2, 4)
    with pytest.raises(InsufficientDataError, match="normal equations singular at lambda=0.0"):
        ridge_fit(lags, targets, ridge_lambda=0.0)


# --- ridge predict ------------------------------------------------------------------

def test_ridge_predict_constant_series():
    task = ForecastTask(4, 3, 60)
    (preds,) = _forecast_series(np.full(40, 8.25), hourly_timestamps(40), [np.arange(3, 40)],
                                ModelSpec("ridge", 1.0), task, 40, cap=10.0)
    np.testing.assert_allclose(preds, np.full((37, 3), 8.25), atol=1e-9)


def test_ridge_predict_clips_to_range():
    # downtrend: extrapolating below zero from the last origin must clip at 0; the
    # wiggle keeps the two lags independent, which a straight line would not
    values = np.linspace(50.0, 1.0, 60) + 0.5 * (-1.0) ** np.arange(60)
    lags, targets = windows(values, 2, 4)
    mean, scale, w = ridge_fit(lags, targets, ridge_lambda=0.0)
    raw = standardized(values[None, 58:], mean, scale) @ w
    assert raw.min() < 0.0
    (clipped,) = _forecast_series(values, hourly_timestamps(60), [np.array([59])],
                                  ModelSpec("ridge", 0.0), ForecastTask(2, 4, 60), 60,
                                  cap=50.0)
    assert clipped.min() == 0.0
    assert clipped.max() <= 50.0
    np.testing.assert_allclose(clipped, np.clip(raw, 0.0, 50.0), rtol=1e-12, atol=1e-12)


# --- hierarchy assembly ----------------------------------------------------------------

def test_hierarchy_series_and_capacities(rng):
    panel = random_panel(rng, 4, 12)
    b = Bundling([0, 1, 0, 1], panel.asset_ids)
    series = hierarchy_series(panel, b)
    assert series.shape == (7, 12)
    np.testing.assert_allclose(series[0], panel.values.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(series[1], panel.values[[0, 2]].sum(axis=0), rtol=1e-12)
    caps = hierarchy_capacities(panel, b)
    assert caps[0] == pytest.approx(panel.fleet_capacity)
    assert caps[1] == pytest.approx(panel.assets[0].capacity_mw + panel.assets[2].capacity_mw)


def test_hierarchy_actuals_matches_slices(rng):
    panel = random_panel(rng, 3, 30)
    b = Bundling.single_bundle(panel.asset_ids)
    origins = panel.timestamps[[10, 11, 12]]
    actual = hierarchy_actuals(panel, b, origins, horizon=4)
    series = hierarchy_series(panel, b)
    np.testing.assert_array_equal(actual.values[0], series[:, 11:15])
    np.testing.assert_array_equal(actual.values[2], series[:, 13:17])
    scattered = [25, 3, 12]  # any order, up to the last full horizon
    got = hierarchy_actuals(panel, b, panel.timestamps[scattered], horizon=4).values
    for m, o in enumerate(scattered):
        np.testing.assert_array_equal(got[m], series[:, o + 1:o + 5])
    with pytest.raises(ShapeMismatchError):
        hierarchy_actuals(panel, b, panel.timestamps[[28]], horizon=4)


# --- rolling harness --------------------------------------------------------------------

def persistence_specs():
    spec = ModelSpec("persistence")
    return {"fleet": spec, "bundle": spec, "asset": spec}


def test_rolling_persistence_is_coherent(rng):
    panel = random_panel(rng, 5, 60)
    b = Bundling([0, 1, 0, 1, 0], panel.asset_ids)
    task = ForecastTask(4, 6, 15)
    rf = rolling_forecast(panel, b, task, persistence_specs(), panel.timestamps[40])
    gap = np.abs(rf.test.fleet[:, 0, :] - rf.test.assets.sum(axis=1))
    assert gap.max() < 1e-9 * panel.fleet_capacity
    # every lead repeats the series value at the origin
    series = hierarchy_series(panel, b)
    at_origin = series[:, np.searchsorted(panel.timestamps, rf.test.origins)].T
    np.testing.assert_array_equal(
        rf.test.values, np.broadcast_to(at_origin[:, :, None], rf.test.values.shape))
    # so the lead-tau in-sample moment is the mean of (y[o] - y[o+tau])^2 over
    # origins o with 4 samples of history and a horizon inside the training range
    origins = np.arange(task.history_len - 1, 40 - task.horizon)
    for tau in range(1, task.horizon + 1):
        # summed origin by origin, the order np.mean takes down an (M, T) array's rows
        expect = sum((series[:, o] - series[:, o + tau]) ** 2 for o in origins) / origins.size
        np.testing.assert_array_equal(rf.second_moment[tau - 1], expect)


def test_rolling_shapes_and_k1_duplication(rng):
    panel = random_panel(rng, 4, 40)
    b = Bundling.single_bundle(panel.asset_ids)
    task = ForecastTask(3, 1, 15)
    rf = rolling_forecast(panel, b, task, persistence_specs(), panel.timestamps[38])
    # single test origin (last step has no horizon), T=1
    assert rf.test.values.shape == (1, 6, 1)
    np.testing.assert_array_equal(rf.test.values[:, 0, :], rf.test.values[:, 1, :])

    # ridge at N=200: the K=1 bundle row is the fleet series bit for bit, so its raw
    # and reconciled forecasts are too
    panel = random_panel(rng, 200, 120)
    b = Bundling.single_bundle(panel.asset_ids)
    specs = dict.fromkeys(("fleet", "bundle", "asset"), ModelSpec("ridge", 1.0, False))
    rf = rolling_forecast(panel, b, ForecastTask(6, 4, 15), specs, panel.timestamps[90])
    reconciled = reconcile(build_reconciler(b, estimate_weights(rf.second_moment, 1e-9)),
                           rf.test)
    for forecast in (rf.test, reconciled):
        np.testing.assert_array_equal(forecast.fleet, forecast.bundles)


def test_rolling_skips_exactly_short_history_origins(rng):
    panel = random_panel(rng, 3, 50)
    b = Bundling.single_bundle(panel.asset_ids)
    task = ForecastTask(8, 2, 15)
    rf = rolling_forecast(panel, b, task, persistence_specs(), panel.timestamps[30])
    # origins 0..6 lack 8 prior samples; origins 7..27: 28 + 2 leads stay before the split
    series = hierarchy_series(panel, b)
    origins = np.arange(7, 28)
    for tau in (1, 2):
        expect = sum((series[:, o] - series[:, o + tau]) ** 2 for o in origins) / origins.size
        np.testing.assert_array_equal(rf.second_moment[tau - 1], expect)
    assert rf.test.origins[0] == panel.timestamps[30]  # no test origin is skipped
    assert not np.isnan(rf.test.values).any()
    assert rf.second_moment.shape == (2, 5)


def test_rolling_without_insample_origin_raises(rng):
    panel = random_panel(rng, 3, 50)
    b = Bundling.single_bundle(panel.asset_ids)
    # 20 samples of history and a 2-step horizon leave no origin before step 20
    with pytest.raises(InsufficientDataError, match="no origin"):
        rolling_forecast(panel, b, ForecastTask(20, 2, 15), persistence_specs(),
                         panel.timestamps[20])


def test_rolling_is_deterministic(rng):
    panel = random_panel(rng, 4, 120)
    b = Bundling([0, 0, 1, 1], panel.asset_ids)
    task = ForecastTask(6, 4, 15)
    specs = {"fleet": ModelSpec("ridge", 1.0, False),
             "bundle": ModelSpec("ridge", 0.5, False),
             "asset": ModelSpec("persistence")}
    a = rolling_forecast(panel, b, task, specs, panel.timestamps[90])
    c = rolling_forecast(panel, b, task, specs, panel.timestamps[90])
    np.testing.assert_array_equal(a.test.values, c.test.values)
    np.testing.assert_array_equal(a.second_moment, c.second_moment)


def test_rolling_fits_each_ridge_row_once(rng, monkeypatch):
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args[0].shape)
        return ridge_fit(*args, **kwargs)

    monkeypatch.setattr("bundlecast.forecast.ridge_fit", counting_fit)
    panel = random_panel(rng, 4, 120)
    b = Bundling([0, 0, 1, 1], panel.asset_ids)
    specs = {"fleet": ModelSpec("ridge", 1.0, False),
             "bundle": ModelSpec("ridge", 0.5, True),
             "asset": ModelSpec("persistence")}
    rf = rolling_forecast(panel, b, ForecastTask(6, 4, 15), specs, panel.timestamps[90])
    assert len(calls) == 1 + b.n_bundles  # fleet and bundle rows; assets use persistence
    assert rf.test.n_origins > 0


@pytest.mark.parametrize("bundle_spec, bundle_fits", [
    (ModelSpec("ridge", 1.0, True), 0),      # the fleet's spec: the bundle row copies it
    (ModelSpec("ridge", 0.3, True), 1),
    (ModelSpec("persistence"), 0),
])
def test_rolling_shared_rows_equal_fresh_fits(rng, monkeypatch, bundle_spec, bundle_fits):
    """Oracle: a K=1 backtest sharing another bundling's rows holds the bits of one
    without sharing, and each of those rows is its series forecast on its own."""
    panel = random_panel(rng, 5, 160)
    task, split_idx = ForecastTask(6, 4, 15), 120
    specs = {"fleet": ModelSpec("ridge", 1.0, True), "bundle": bundle_spec,
             "asset": ModelSpec("ridge", 0.7, False)}
    bundled = rolling_forecast(panel, Bundling([0, 1, 0, 2, 1], panel.asset_ids),
                               task, specs, panel.timestamps[split_idx])
    single = Bundling.single_bundle(panel.asset_ids)
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args[0].shape)
        return ridge_fit(*args, **kwargs)

    monkeypatch.setattr("bundlecast.forecast.ridge_fit", counting_fit)
    shared = rolling_forecast(panel, single, task, specs, panel.timestamps[split_idx], bundled)
    assert len(calls) == bundle_fits
    monkeypatch.undo()
    fresh = rolling_forecast(panel, single, task, specs, panel.timestamps[split_idx])
    np.testing.assert_array_equal(shared.test.values, fresh.test.values)
    np.testing.assert_array_equal(shared.second_moment, fresh.second_moment)

    series, caps = hierarchy_series(panel, single), hierarchy_capacities(panel, single)
    origins = np.searchsorted(panel.timestamps, fresh.test.origins)
    for r, level in enumerate(["fleet", "bundle"] + ["asset"] * panel.n_assets):
        alone = _forecast_series(series[r], panel.timestamps, [origins], specs[level], task,
                                 split_idx, caps[r])[0]
        np.testing.assert_array_equal(fresh.test.values[:, r], alone)
    train_origins = np.arange(task.history_len - 1, split_idx - task.horizon)
    err = (_insample_tensor(panel, single, task, specs, split_idx, train_origins)
           - hierarchy_actuals(panel, single, panel.timestamps[train_origins],
                               task.horizon).values)
    np.testing.assert_array_equal(fresh.second_moment, np.mean(err * err, axis=0).T)

    with pytest.raises(ShapeMismatchError, match="shared forecasts"):
        rolling_forecast(panel, single, task, specs, panel.timestamps[split_idx + 1], bundled)


def test_rolling_ridge_predictions_respect_capacity(rng):
    task = ForecastTask(8, 4, 15)
    specs = {"fleet": ModelSpec("ridge", 0.1, True),
             "bundle": ModelSpec("ridge", 0.1, True),
             "asset": ModelSpec("ridge", 0.1, True)}
    panel = random_panel(rng, 3, 150)
    b = Bundling.single_bundle(panel.asset_ids)
    rf = rolling_forecast(panel, b, task, specs, panel.timestamps[120])
    caps = hierarchy_capacities(panel, b)
    assert (rf.test.values >= 0.0).all()
    assert (rf.test.values <= caps[None, :, None] + 1e-9).all()

    # an idle asset of large capacity, alone in bundle 1: bundle 0's series is the
    # fleet series bit for bit, but its forecasts are clipped to its own capacity
    flat_topped = np.minimum(1.0, 0.6 + 0.6 * np.sin(2 * np.pi * np.arange(150) / 24))
    panel = make_panel(np.vstack([np.zeros(150), 50.0 * flat_topped, 80.0 * flat_topped]),
                       caps=[1000.0, 50.0, 80.0])
    b = Bundling([1, 0, 0], panel.asset_ids)
    series = hierarchy_series(panel, b)
    assert np.array_equal(series[1].view(np.int64), series[0].view(np.int64))
    rf = rolling_forecast(panel, b, task, specs, panel.timestamps[120])
    assert (rf.test.bundles[:, 0] == 130.0).any()
    assert (rf.test.values <= hierarchy_capacities(panel, b)[None, :, None]).all()


def _cholesky_ridge_forecasts(series, timestamps, task, spec, train_len, origins, cap):
    """Oracle: one row's ridge forecasts at ``origins``, the normal equations
    solved by scipy's Cholesky factorization."""
    h = task.history_len
    lags, targets = windows(series[:train_len], h, task.horizon)

    def features(windows, at):
        calendar = [_calendar_features(timestamps[at])] if spec.use_calendar else []
        return np.hstack([windows, *calendar])

    feats = features(lags, np.arange(h - 1, h - 1 + lags.shape[0]))
    mean, scale = feats.mean(axis=0), feats.std(axis=0)
    scale[scale < 1e-12] = 1.0
    xa = np.hstack([(feats - mean) / scale, np.ones((feats.shape[0], 1))])
    penalty = np.append(np.full(feats.shape[1], spec.ridge_lambda), 0.0)
    w = cho_solve(cho_factor(xa.T @ xa + np.diag(penalty)), xa.T @ targets)
    x = (features(sliding_window_view(series, h)[origins - h + 1], origins) - mean) / scale
    return np.clip(x @ w[:-1] + w[-1], 0.0, cap)


def test_rolling_ridge_matches_scipy_cholesky_oracle(rng):
    panel = random_panel(rng, 5, 200)
    b = Bundling([0, 1, 0, 2, 1], panel.asset_ids)
    task = ForecastTask(8, 6, 15)
    specs = {"fleet": ModelSpec("ridge", 0.5, True),
             "bundle": ModelSpec("ridge", 2.0, False),
             "asset": ModelSpec("ridge", 0.1, True)}
    split_idx = 150
    rf = rolling_forecast(panel, b, task, specs, panel.timestamps[split_idx])

    series, caps = hierarchy_series(panel, b), hierarchy_capacities(panel, b)
    levels = ["fleet"] + ["bundle"] * b.n_bundles + ["asset"] * panel.n_assets
    origins = np.searchsorted(panel.timestamps, rf.test.origins)
    expected = np.stack([
        _cholesky_ridge_forecasts(series[r], panel.timestamps, task, specs[level], split_idx,
                                  origins, caps[r])
        for r, level in enumerate(levels)], axis=1)
    np.testing.assert_allclose(rf.test.values, expected, rtol=1e-12, atol=0.0)


def _insample_tensor(panel, b, task, specs, split_idx, origins):
    """The (M, R, T) in-sample forecasts, each row fitted and predicted on its own."""
    series = hierarchy_series(panel, b)
    caps = hierarchy_capacities(panel, b)
    levels = ["fleet"] + ["bundle"] * b.n_bundles + ["asset"] * panel.n_assets
    return np.stack([
        _forecast_series(series[r], panel.timestamps, [origins], specs[level], task,
                         split_idx, caps[r])[0]
        for r, level in enumerate(levels)], axis=1)


@pytest.mark.parametrize("model, use_calendar, horizon", [
    ("ridge", False, 4), ("ridge", True, 4), ("persistence", False, 4),
    ("ridge", True, 1), ("persistence", False, 1),
])
def test_rolling_moments_match_insample_tensor(rng, model, use_calendar, horizon):
    """Oracle: the streamed moments are the mean over an (M, R, T) in-sample error tensor."""
    panel = random_panel(rng, 5, 160)
    b = Bundling([0, 1, 0, 2, 1], panel.asset_ids)
    task = ForecastTask(6, horizon, 15)
    spec = ModelSpec(model, 0.7, use_calendar)
    specs = {"fleet": spec, "bundle": spec, "asset": spec}
    split_idx = 120
    rf = rolling_forecast(panel, b, task, specs, panel.timestamps[split_idx])

    origins = np.arange(task.history_len - 1, split_idx - horizon)
    forecasts = _insample_tensor(panel, b, task, specs, split_idx, origins)
    actuals = hierarchy_actuals(panel, b, panel.timestamps[origins], horizon).values
    err = forecasts - actuals
    expect = np.mean(err * err, axis=0).T
    if horizon > 1:
        np.testing.assert_array_equal(rf.second_moment, expect)
    else:
        # one lead: each row's mean runs down a single contiguous column, which
        # numpy sums pairwise, while the tensor's mean adds origin by origin
        np.testing.assert_allclose(rf.second_moment, expect,
                                   rtol=origins.size * np.finfo(np.float64).eps, atol=0.0)


# --- forecast CSV -------------------------------------------------------------------------

def test_forecast_csv_round_trip(tmp_path, rng):
    panel = random_panel(rng, 3, 40)
    b = Bundling([0, 1, 0], panel.asset_ids)
    task = ForecastTask(4, 5, 15)
    rf = rolling_forecast(panel, b, task, persistence_specs(), panel.timestamps[30])
    path = tmp_path / "forecast.csv"
    write_forecast_csv(rf.test, panel.asset_ids, path)
    header = path.read_text().splitlines()[0]
    assert header == "origin,level,series_id,lead,value"
    back = read_forecast_csv(path, panel.asset_ids, b.n_bundles)
    np.testing.assert_array_equal(back.origins, rf.test.origins)
    np.testing.assert_allclose(back.values, rf.test.values, rtol=1e-11)
    printed = np.array([float(f"{v:.12g}") for v in rf.test.values.ravel()])
    assert back.values.tobytes() == printed.reshape(back.values.shape).tobytes()


def test_write_forecast_csv_golden_bytes(tmp_path):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(4)
    values = np.array([[[1 / 3, 0.0], [1e-5, 123456789012.5], [-2.75, 1234567890123.0]],
                       [[2 / 3, 1.0], [100.0, 0.1], [1e16, -12345.678901234]],
                       # 0.0 then -0.0; runs across the fleet/bundle and bundle/asset rows
                       [[0.0, -0.0], [-0.0, 7.25], [7.25, 7.25]],
                       np.full((3, 2), 0.5)])  # one run over the whole block
    path = tmp_path / "forecast.csv"
    write_forecast_csv(HierarchyForecast(origins, values, 1, 1), ("w1",), path)
    assert path.read_bytes() == (
        b"origin,level,series_id,lead,value\n"
        b"2019-01-08T00:00:00Z,fleet,,1,0.333333333333\n"
        b"2019-01-08T00:00:00Z,fleet,,2,0\n"
        b"2019-01-08T00:00:00Z,bundle,0,1,1e-05\n"
        b"2019-01-08T00:00:00Z,bundle,0,2,123456789012\n"
        b"2019-01-08T00:00:00Z,asset,w1,1,-2.75\n"
        b"2019-01-08T00:00:00Z,asset,w1,2,1.23456789012e+12\n"
        b"2019-01-08T00:15:00Z,fleet,,1,0.666666666667\n"
        b"2019-01-08T00:15:00Z,fleet,,2,1\n"
        b"2019-01-08T00:15:00Z,bundle,0,1,100\n"
        b"2019-01-08T00:15:00Z,bundle,0,2,0.1\n"
        b"2019-01-08T00:15:00Z,asset,w1,1,1e+16\n"
        b"2019-01-08T00:15:00Z,asset,w1,2,-12345.6789012\n"
        b"2019-01-08T00:30:00Z,fleet,,1,0\n"
        b"2019-01-08T00:30:00Z,fleet,,2,-0\n"
        b"2019-01-08T00:30:00Z,bundle,0,1,-0\n"
        b"2019-01-08T00:30:00Z,bundle,0,2,7.25\n"
        b"2019-01-08T00:30:00Z,asset,w1,1,7.25\n"
        b"2019-01-08T00:30:00Z,asset,w1,2,7.25\n"
        b"2019-01-08T00:45:00Z,fleet,,1,0.5\n"
        b"2019-01-08T00:45:00Z,fleet,,2,0.5\n"
        b"2019-01-08T00:45:00Z,bundle,0,1,0.5\n"
        b"2019-01-08T00:45:00Z,bundle,0,2,0.5\n"
        b"2019-01-08T00:45:00Z,asset,w1,1,0.5\n"
        b"2019-01-08T00:45:00Z,asset,w1,2,0.5\n"
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_forecast_csv_matches_the_per_cell_reference(tmp_path_factory, data):
    """Blocks drawn from a few values (0.0 and -0.0 among them) repeat within
    and across rows; the file must equal formatting every cell on its own."""
    n_origins, k, n, horizon = (data.draw(st.integers(1, 3)) for _ in range(4))
    pool = [0.0, -0.0] + data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=n_origins * (1 + k + n) * horizon,
                               max_size=n_origins * (1 + k + n) * horizon))
    values = np.array([pool[i] for i in picks]).reshape(n_origins, 1 + k + n, horizon)
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(n_origins))
    # "%" in an id must reach the file as written, not act on the writer's template
    asset_ids = tuple(f"w{j}" + data.draw(st.sampled_from(["", "%s", "100%", "%%"]))
                      for j in range(n))
    path = tmp_path_factory.getbasetemp() / "per_cell_reference.csv"
    write_forecast_csv(HierarchyForecast(origins, values, k, n), asset_ids, path)

    keys = ([("fleet", "")] + [("bundle", str(b)) for b in range(k)]
            + [("asset", a) for a in asset_ids])
    expected = "origin,level,series_id,lead,value\n" + "".join(
        f"{format_utc_timestamp(origin)},{level},{sid},{tau},{FLOAT_FORMAT.format(float(v))}\n"
        for origin, block in zip(origins, values)
        for (level, sid), row in zip(keys, block)
        for tau, v in enumerate(row, start=1))
    assert path.read_text(encoding="utf-8") == expected


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e308)
@example(1.7976931348623157e308)
def test_value_format_matches_float_format(x):
    """The writer formats with ``%``; every finite float gets FLOAT_FORMAT's text."""
    assert _VALUE_FORMAT % x == FLOAT_FORMAT.format(x)


def test_write_forecast_csv_rejects_origins_out_of_order(tmp_path):
    origins = np.array(["2019-01-08T00:15:00", "2019-01-08T00:00:00"], dtype="datetime64[s]")
    with pytest.raises(ValueOutOfRangeError, match="not strictly ascending"):
        write_forecast_csv(HierarchyForecast(origins, np.ones((2, 3, 2)), 1, 1), ("a0",),
                           tmp_path / "forecast.csv")


MALFORMED_FORECAST_ROWS = [  # (origin, rest of the appended row, expected message)
    pytest.param(origin, row, message, id=f"{row}-{message}") for origin, row, message in [
        ("2019-01-08T00:00:00Z", "fleet,,1", "expected 5 fields"),
        ("2019-01-08T00:00:00Z", "fleet,,x,1.5", "not an integer"),
        ("2019-01-08T00:00:00Z", "fleet,,0,1.5", "below 1"),  # lead 0 would overwrite the last
        ("2019-01-08T00:00:00Z", "fleet,,1,abc", "not a number"),
        ("2019-01-08T00:00:00Z", "fleet,,1,1.5", "duplicate cell"),
        ("2019-13-13T00:00:00Z", "fleet,,1,1.5", "unparsable timestamp"),
    ]
] + [
    # the first origin's instant spelled another way must not become a third origin
    pytest.param("2019-01-08T00:00:00+00:00", "fleet,,1,1.5", "duplicate cell",
                 id="utc-offset-duplicate cell"),
    pytest.param("2019-01-08T00:30:00Z", "fleet,,1,nan", "value 'nan' is not finite", id="nan"),
    pytest.param("2019-01-08T00:30:00Z", "fleet,,1,-inf", "value '-inf' is not finite",
                 id="inf"),
]


@pytest.mark.parametrize("origin, row, message", MALFORMED_FORECAST_ROWS)
def test_read_forecast_csv_rejects_malformed_rows(tmp_path, origin, row, message):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    forecast = HierarchyForecast(origins, np.ones((2, 3, 2)), 1, 1)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(forecast, ("a0",), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{origin},{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_forecast_csv(path, ("a0",), 1)
    assert f"{path}:14:" in str(info.value)  # header + 2 origins x 3 rows x 2 leads


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _duplicate(lines, i):
    lines[i + 1] = lines[i]
    return lines


# lines[0] is the header, so lines[i] is file line i + 1; each origin block is 6 lines
DISORDERED_FORECAST_LINES = [  # (edit of the writer's lines, where, message)
    pytest.param(lambda lines: _swap(lines, 3, 4), ":4:", "line out of order", id="swapped-leads"),
    pytest.param(lambda lines: _swap(lines, 1, 2), ":2:", "line out of order", id="swapped-fleet"),
    pytest.param(lambda lines: lines[:1] + lines[7:] + lines[1:7], ":8:",
                 "out of order: expected an origin after 2019-01-08T00:15:00Z",
                 id="descending-origins"),
    pytest.param(lambda lines: lines[:-1], ":13:", "ends inside the block of origin "
                 "2019-01-08T00:15:00Z, after 5 of its 6 lines", id="truncated-block"),
    pytest.param(lambda lines: _duplicate(lines, 3), ":5:", "duplicate cell",
                 id="duplicate-in-block"),
    pytest.param(lambda lines: lines[:4] + ["\n"] + lines[4:], ":5:", "expected 5 fields, got 1",
                 id="blank-line-inside"),
    pytest.param(lambda lines: lines[:1], ": ", "no forecast rows", id="header-only"),
]


@pytest.mark.parametrize("edit, where, message", DISORDERED_FORECAST_LINES)
def test_read_forecast_csv_rejects_lines_out_of_order(tmp_path, edit, where, message):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(HierarchyForecast(origins, np.arange(12.0).reshape(2, 3, 2), 1, 1),
                       ("a0",), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(FormatError, match=message) as info:
        read_forecast_csv(path, ("a0",), 1)
    assert str(info.value).startswith(f"{path}{where}")


def test_read_forecast_csv_takes_crlf_endings_and_trailing_blank_lines(tmp_path):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    forecast = HierarchyForecast(origins, np.arange(12.0).reshape(2, 3, 2), 1, 1)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(forecast, ("a0",), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n  \n\n")
    back = read_forecast_csv(path, ("a0",), 1)
    np.testing.assert_array_equal(back.origins, forecast.origins)
    np.testing.assert_array_equal(back.values, forecast.values)


def test_moments_csv_round_trip_is_exact(tmp_path, rng):
    moments = rng.uniform(0.0, 50.0, size=(3, 4)) ** 3  # all 17 significant digits in use
    moments[1, 2] = 0.0
    path = tmp_path / "moments.csv"
    write_moments_csv(moments, path)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["lead,row,second_moment", f"1,0,{float(moments[0, 0])!r}"]
    np.testing.assert_array_equal(read_moments_csv(path, 4, 3), moments)


HEADER = "lead,row,second_moment"
CELLS = ["1,0,1.5", "1,1,1.5", "2,0,1.5", "2,1,1.5"]  # 2 leads x 2 hierarchy rows


def _cells(n_leads, n_rows):
    return [f"{tau},{r},1.5" for tau in range(1, n_leads + 1) for r in range(n_rows)]


MALFORMED_MOMENTS = [  # (header, cell lines, line number named, message)
    pytest.param("lead,row,value", CELLS, 1, "expected header", id="header"),
    pytest.param(HEADER, ["1,0,1.5", "1,1"] + CELLS[2:], 3, "expected 3 fields",
                 id="field-count"),
    pytest.param(HEADER, ["x,0,1.5"] + CELLS[1:], 2, "not an integer", id="lead-text"),
    pytest.param(HEADER, ["1,0.0,1.5"] + CELLS[1:], 2, "not an integer", id="row-text"),
    pytest.param(HEADER, ["1,0,abc"] + CELLS[1:], 2, "not a number", id="value-text"),
    pytest.param(HEADER, ["1,0,nan"] + CELLS[1:], 2, "not finite", id="nan"),
    pytest.param(HEADER, ["1,0,inf"] + CELLS[1:], 2, "not finite", id="inf"),
    pytest.param(HEADER, ["1,0,-0.5"] + CELLS[1:], 2, "non-negative", id="negative"),
    pytest.param(HEADER, ["1,0,1.5", "1,0,1.5"] + CELLS[2:], 3, "duplicate cell",
                 id="duplicate"),
    pytest.param(HEADER, ["1,1,1.5", "1,0,1.5"] + CELLS[2:], 2,
                 "missing or out of order", id="out-of-order"),
    pytest.param(HEADER, CELLS[:1] + CELLS[2:], 3, "missing or out of order",
                 id="missing-cell"),
    pytest.param(HEADER, CELLS[:3], 5, "file ends before lead 2, row 1", id="truncated"),
    pytest.param(HEADER, _cells(2, 3), 4, "row 2 outside", id="more-rows"),
    pytest.param(HEADER, _cells(4, 1), 3, "expected lead 1, row 1", id="fewer-rows"),
    pytest.param(HEADER, _cells(3, 2), 6, "lead 3 outside the horizon", id="more-leads"),
    pytest.param(HEADER, _cells(1, 2), 4, "file ends before lead 2", id="fewer-leads"),
]


@pytest.mark.parametrize("header, cells, line_number, message", MALFORMED_MOMENTS)
def test_read_moments_csv_rejects_malformed_files(tmp_path, header, cells, line_number,
                                                  message):
    path = tmp_path / "moments.csv"
    path.write_text("\n".join([header, *cells]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=message) as info:
        read_moments_csv(path, 2, 2)
    assert f"{path}:{line_number}:" in str(info.value)


def test_hierarchy_forecast_rejects_nan():
    with pytest.raises(ValueOutOfRangeError):
        HierarchyForecast(
            np.array(["2019-01-08T00:00:00"], dtype="datetime64[s]"),
            np.full((1, 3, 2), np.nan), 1, 1,
        )


def test_hierarchy_forecast_leaves_the_callers_arrays_writeable():
    origins = np.array(["2019-01-08T00:00:00", "2019-01-08T00:15:00"], dtype="datetime64[s]")
    values = np.arange(12.0).reshape(2, 3, 2)
    fc = HierarchyForecast(origins, values, 1, 1)
    assert origins.flags.writeable and values.flags.writeable
    assert not fc.origins.flags.writeable and not fc.values.flags.writeable
    np.testing.assert_array_equal(fc.values, values)
    np.testing.assert_array_equal(fc.origins, origins)
    with pytest.raises(ValueError):
        fc.values[0, 0, 0] = -1.0
    values[0, 0, 0] = -1.0  # the caller may still write its own array
