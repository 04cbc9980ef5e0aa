"""Persistence, direct multi-horizon ridge, and the rolling harness."""

import io
import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
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
from bundlecast import forecast as forecast_module
from bundlecast.core import format_utc_timestamp, parse_utc_timestamp
from bundlecast.forecast import (
    FLOAT_FORMAT,
    RollingForecasts,
    _calendar_features,
    _splice_forecast_csv,
    read_forecast_arrays,
    read_forecast_csv,
    ridge_fit,
    same_bits,
    write_forecast_arrays,
    write_forecast_csv,
    write_moments_csv,
)
from bundlecast.errors import (
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)

from conftest import make_panel, random_bundling_labels, random_panel
from oracles import per_row_forecasts, read_moments_csv


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

def one_asset_panel(values, cap):
    """A panel of one hourly asset: its fleet and bundle rows are its series."""
    return make_panel(np.asarray(values)[None], caps=[cap], start="2019-03-01T00:00:00",
                      step_minutes=60)


def ridge_specs(lam):
    return dict.fromkeys(("fleet", "bundle", "asset"), ModelSpec("ridge", lam))


def test_ridge_features_are_lags_then_calendar(rng, monkeypatch):
    """``rolling_forecast`` fits a ridge row on feature row j = the H samples ending at
    index j+H-1, then, with calendar encodings, the encodings of that origin."""
    values = rng.uniform(0.0, 30.0, size=80)
    ts = hourly_timestamps(80)
    h, t, split_idx = 5, 2, 70
    fitted = []

    def recording(features, targets, ridge_lambda):
        fitted.append(features.copy())  # the level's feature map is overwritten per row
        return ridge_fit(features, targets, ridge_lambda)

    monkeypatch.setattr(forecast_module, "ridge_fit", recording)
    # two fits: the bundle row copies the fleet row, and the asset row has its own spec
    specs = {"fleet": ModelSpec("ridge", 1.0, True), "bundle": ModelSpec("ridge", 1.0, True),
             "asset": ModelSpec("ridge", 1.0, False)}
    rolling_forecast(one_asset_panel(values, 30.0), Bundling.single_bundle(("a0",)),
                     ForecastTask(h, t, 60), specs, ts[split_idx])
    n_fit = split_idx - h - t + 1
    feats, plain = fitted
    assert feats.shape == (n_fit, h + 4) and plain.shape == (n_fit, h)
    for j in range(n_fit):
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
    values = rng.uniform(0.0, 1.0, size=230)
    lags, targets = windows(values[:200], 5, 2)
    _, _, w = ridge_fit(lags, targets, ridge_lambda=1e9)
    assert np.all(np.abs(w[:-1]) < 1e-5)
    # so every forecast is the mean training target of its lead
    rf = rolling_forecast(one_asset_panel(values, 1.0), Bundling.single_bundle(("a0",)),
                          ForecastTask(5, 2, 60), ridge_specs(1e9), hourly_timestamps(230)[200])
    preds = rf.test.values[:, 0]
    assert preds.shape == (28, 2)
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


def _features(kind, n, n_feat, seed, scale_exp, offset_exp):
    """(n, F) features of one kind, several of them rank-deficient."""
    rng = np.random.default_rng(seed)
    if kind == "line-lags":
        line = np.linspace(50.0, 1.0, n + n_feat)
        base = np.stack([line[j:j + n] for j in range(n_feat)], axis=1)
    elif kind == "rank-two":
        base = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n_feat))
    else:
        base = rng.standard_normal((n, n_feat))
        if kind == "repeated-column":
            base[:, 1:] = base[:, :1]
        elif kind == "constant-columns":
            base[:, ::2] = 1.0
    return 10.0 ** offset_exp + 10.0 ** scale_exp * base


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["random", "repeated-column", "constant-columns", "line-lags",
                             "rank-two"]),
       n=st.integers(2, 120), n_feat=st.integers(1, 90), seed=st.integers(0, 2 ** 32 - 1),
       scale_exp=st.integers(-6, 6), offset_exp=st.integers(-3, 6),
       factor=st.floats(1.01, 1e6))
def test_ridge_rank_test_passes_where_lambda_dominates_the_trace(kind, n, n_feat, seed,
                                                                 scale_exp, offset_exp, factor):
    """Where lambda exceeds 2 n eps times the trace of the penalized block, the rank
    test that ``ridge_fit`` runs on every fit cannot fail, whatever the features: the
    factorization succeeds and every squared pivot exceeds n eps times its diagonal
    entry. Standardized features have a trace of at most n F, so this range holds
    every lambda = 1 fit while 2 n^2 F eps < 1: the test rejects a fit only where
    lambda is small enough for rounding noise to decide its weights."""
    features = _features(kind, n, n_feat, seed, scale_exp, offset_exp)
    targets = np.random.default_rng(seed).standard_normal((n, 2))
    mean, scale, _ = ridge_fit(features, targets, ridge_lambda=1.0)  # the standardization
    xa = standardized(features, mean, scale)
    gram = xa.T @ xa
    # lambda > c (trace + F lambda) for c = 2 n eps, with the trace taken without lambda
    c = 2 * n * np.finfo(np.float64).eps
    lam = max(factor * c * np.trace(gram[:n_feat, :n_feat]) / (1 - c * n_feat), 1e-300)
    gram[np.diag_indices(n_feat)] += lam
    assert lam > c * np.trace(gram[:n_feat, :n_feat])
    pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
    assert np.all(pivots > n * np.finfo(np.float64).eps * np.diagonal(gram))
    ridge_fit(features, targets, ridge_lambda=lam)


def test_ridge_factors_the_gram_once_per_fit(rng, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    lags, targets = windows(rng.uniform(0.0, 50.0, size=120), 6, 3)
    # 112 rows of 6 standardized features: lambda dominates the trace above
    # 2 * 112 * eps * 6 * 112 = 3.34e-11, and the lambdas span that point up to 1e308
    lambdas = (0.0, 3.3e-11, 3.4e-11, 1.0, 1e200, 1e300, 1e308)
    for lam in lambdas:
        ridge_fit(lags, targets, ridge_lambda=lam)
    assert calls == [(7, 7)] * len(lambdas)


@pytest.mark.parametrize("lam", [1e200, 1e300, 1e308])
def test_ridge_at_a_huge_lambda_is_the_shrinkage_limit(rng, lam):
    # the Gram's diagonal is near the float limit, yet the factor, its squared pivots
    # and the solve stay finite: no RuntimeWarning (an error under the test settings)
    lags, targets = windows(rng.uniform(0.0, 50.0, size=120), 6, 3)
    _, _, w = ridge_fit(lags, targets, ridge_lambda=lam)
    assert np.all(np.abs(w[:-1]) < 1e-150)
    np.testing.assert_allclose(w[-1], targets.mean(axis=0), rtol=1e-12)


# --- ridge predict ------------------------------------------------------------------

def test_ridge_predict_constant_series():
    rf = rolling_forecast(one_asset_panel(np.full(60, 8.25), 10.0),
                          Bundling.single_bundle(("a0",)), ForecastTask(4, 3, 60),
                          ridge_specs(1.0), hourly_timestamps(60)[40])
    np.testing.assert_allclose(rf.test.values, np.full((17, 3, 3), 8.25), atol=1e-9)
    np.testing.assert_allclose(rf.second_moment, 0.0, atol=1e-15)


def test_ridge_predict_clips_to_range():
    # downtrend: extrapolating below zero from the one test origin, 60, must clip at 0;
    # the wiggle keeps the two lags independent, which a straight line would not
    values = np.concatenate([np.linspace(50.0, 1.0, 60) + 0.5 * (-1.0) ** np.arange(60),
                             [0.67, 0.0, 0.0, 0.0, 0.0]])  # the next value, then its horizon
    lags, targets = windows(values[:60], 2, 4)
    mean, scale, w = ridge_fit(lags, targets, ridge_lambda=0.0)
    raw = standardized(values[None, 59:61], mean, scale) @ w
    assert raw.min() < 0.0
    rf = rolling_forecast(one_asset_panel(values, 51.0), Bundling.single_bundle(("a0",)),
                          ForecastTask(2, 4, 60), ridge_specs(0.0), hourly_timestamps(65)[60])
    clipped = rf.test.values[:, 0]
    assert clipped.shape == (1, 4)
    assert clipped.min() == 0.0
    assert clipped.max() <= 51.0
    np.testing.assert_allclose(clipped, np.clip(raw, 0.0, 51.0), rtol=1e-12, atol=1e-12)


def test_rolling_rejects_a_straight_line_asset_at_lambda_zero(rng):
    """The lags of a straight line are rank-deficient (see
    ``test_ridge_rejects_the_lags_of_a_straight_line``); fitted as an asset row at
    lambda 0, the line raises instead of returning split weights."""
    line = np.concatenate([np.linspace(50.0, 1.0, 60), np.full(5, 0.5)])
    panel = make_panel(np.vstack([rng.uniform(0.0, 50.0, size=65), line]), caps=[50.0, 50.0],
                       start="2019-03-01T00:00:00", step_minutes=60)
    specs = {**persistence_specs(), "asset": ModelSpec("ridge", 0.0)}
    with pytest.raises(InsufficientDataError, match="normal equations singular at lambda=0.0"):
        rolling_forecast(panel, Bundling([0, 1], panel.asset_ids), ForecastTask(2, 4, 60),
                         specs, panel.timestamps[60])


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


@pytest.mark.parametrize("horizon", [1, 6])
def test_rolling_persistence_is_coherent(rng, horizon):
    panel = random_panel(rng, 5, 60)
    b = Bundling([0, 1, 0, 1, 0], panel.asset_ids)
    task = ForecastTask(4, horizon, 15)
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
        # summed origin by origin, also for one lead, whose column numpy would sum pairwise
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

    values, moments = per_row_forecasts(panel, single, task, specs, split_idx)
    np.testing.assert_array_equal(fresh.test.values, values)
    np.testing.assert_array_equal(fresh.second_moment, moments)

    with pytest.raises(ShapeMismatchError, match="shared forecasts"):
        rolling_forecast(panel, single, task, specs, panel.timestamps[split_idx + 1], bundled)


@pytest.mark.parametrize("asset_spec, fits", [
    (ModelSpec("ridge", 0.7, True), 1 + 3 + 5 - 2),  # the bundle's spec: each series once
    (ModelSpec("ridge", 0.3, True), 1 + 3 + 5),      # another spec: the singletons are fitted
])
def test_rolling_fits_a_singleton_bundle_once(rng, monkeypatch, asset_spec, fits):
    """Bundles 1 and 2 hold one asset each. With the bundle spec for the assets too,
    each singleton asset row copies its bundle row; either way every row holds the bits
    of its series forecast on its own."""
    panel = random_panel(rng, 5, 160)
    bundling = Bundling([0, 1, 0, 2, 0], panel.asset_ids)
    task, split_idx = ForecastTask(6, 4, 15), 120
    specs = {"fleet": ModelSpec("ridge", 1.0, False), "bundle": ModelSpec("ridge", 0.7, True),
             "asset": asset_spec}
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args[0].shape)
        return ridge_fit(*args, **kwargs)

    monkeypatch.setattr("bundlecast.forecast.ridge_fit", counting_fit)
    rf = rolling_forecast(panel, bundling, task, specs, panel.timestamps[split_idx])
    assert len(calls) == fits
    monkeypatch.undo()

    values, moments = per_row_forecasts(panel, bundling, task, specs, split_idx)
    np.testing.assert_array_equal(rf.test.values, values)
    np.testing.assert_array_equal(rf.second_moment, moments)


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
    # the in-sample forecasts, clipped the same way, give the oracle's moments
    values, moments = per_row_forecasts(panel, b, task, specs, 120)
    assert rf.test.values.tobytes() == values.tobytes()
    assert rf.second_moment.tobytes() == moments.tobytes()


def test_rolling_encodes_the_calendar_once_per_call(rng, monkeypatch):
    """One ``rolling_forecast`` call encodes the panel's calendar once for all its
    ridge rows, and each row holds the bits of appending those encodings to its own
    lags, fitting and predicting on its own."""
    panel = random_panel(rng, 5, 160)
    bundling = Bundling([0, 1, 0, 2, 1], panel.asset_ids)
    task, split_idx = ForecastTask(6, 4, 15), 120
    specs = {"fleet": ModelSpec("ridge", 1.0, True), "bundle": ModelSpec("ridge", 0.7, True),
             "asset": ModelSpec("ridge", 0.3, False)}
    calls = []

    def counting(origins):
        calls.append(len(origins))
        return _calendar_features(origins)

    monkeypatch.setattr(forecast_module, "_calendar_features", counting)
    rf = rolling_forecast(panel, bundling, task, specs, panel.timestamps[split_idx])
    h, t = task.history_len, task.horizon
    assert calls == [panel.n_steps - h + 1]
    monkeypatch.undo()

    series, caps = hierarchy_series(panel, bundling), hierarchy_capacities(panel, bundling)
    n_fit = split_idx - h - t + 1
    origins = np.searchsorted(panel.timestamps, rf.test.origins)
    for r, level in enumerate(["fleet"] + ["bundle"] * 3 + ["asset"] * 5):
        spec = specs[level]
        feats = sliding_window_view(series[r], h)
        if spec.use_calendar:
            feats = np.hstack([feats, _calendar_features(panel.timestamps[h - 1:])])
        mean, scale, w = ridge_fit(feats[:n_fit], sliding_window_view(series[r], t)[h:h + n_fit],
                                   spec.ridge_lambda)
        expect = np.clip((feats[origins - h + 1] - mean) / scale @ w[:-1] + w[-1], 0.0, caps[r])
        assert rf.test.values[:, r].tobytes() == expect.tobytes(), r


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
    _, expect = per_row_forecasts(panel, b, task, specs, split_idx)
    np.testing.assert_array_equal(rf.second_moment, expect)


@pytest.mark.parametrize("horizon", [1, 4])
@pytest.mark.parametrize("bundling_kind", ["one-bundle", "singletons", "shared"])
@pytest.mark.parametrize("persistence_levels", [
    ("fleet",), ("bundle",), ("asset",), ("fleet", "bundle"), ("fleet", "asset"),
    ("bundle", "asset"), ("fleet", "bundle", "asset"),
])
def test_rolling_persistence_levels_match_the_per_row_oracle(rng, persistence_levels,
                                                             bundling_kind, horizon):
    """Oracle: persistence levels, each forecast as one slice of the hierarchy series,
    and ridge levels around them hold the bits of forecasting every row on its own, in
    values and moments. The bundlings: one bundle, whose row repeats the fleet; two
    singleton bundles, whose asset rows repeat them; and the one-bundle pass that copies
    its fleet and asset rows from a three-bundle call."""
    panel = random_panel(rng, 5, 160)
    task, split_idx = ForecastTask(6, horizon, 15), 120
    split = panel.timestamps[split_idx]
    specs = {level: ModelSpec("persistence") if level in persistence_levels
             else ModelSpec("ridge", 0.7, True) for level in ("fleet", "bundle", "asset")}
    single = Bundling.single_bundle(panel.asset_ids)
    if bundling_kind == "one-bundle":
        bundling, rf = single, rolling_forecast(panel, single, task, specs, split)
    elif bundling_kind == "singletons":
        bundling = Bundling([0, 1, 0, 2, 0], panel.asset_ids)
        rf = rolling_forecast(panel, bundling, task, specs, split)
    else:
        bundled = rolling_forecast(panel, Bundling([0, 1, 0, 2, 1], panel.asset_ids), task,
                                   specs, split)
        bundling, rf = single, rolling_forecast(panel, single, task, specs, split, bundled)
    values, moments = per_row_forecasts(panel, bundling, task, specs, split_idx)
    assert rf.test.values.tobytes() == values.tobytes()
    assert rf.second_moment.tobytes() == moments.tobytes()


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
    asset_ids = tuple(f"w{j}" + data.draw(st.sampled_from(["", "%s", "100%", "%%", "\0"]))
                      for j in range(n))
    path = tmp_path_factory.getbasetemp() / "per_cell_reference.csv"
    forecast = HierarchyForecast(origins, values, k, n)
    write_forecast_csv(forecast, asset_ids, path)
    assert path.read_text(encoding="utf-8") == per_cell_text(forecast, asset_ids)


def per_cell_text(forecast, asset_ids):
    """The forecast CSV formatted one cell at a time."""
    keys = ([("fleet", "")] + [("bundle", str(b)) for b in range(forecast.n_bundles)]
            + [("asset", a) for a in asset_ids])
    return "origin,level,series_id,lead,value\n" + "".join(
        f"{format_utc_timestamp(origin)},{level},{sid},{tau},{FLOAT_FORMAT % float(v)}\n"
        for origin, block in zip(forecast.origins, forecast.values)
        for (level, sid), row in zip(keys, block)
        for tau, v in enumerate(row, start=1))


def _runs(*lengths):
    """A (3, 4) block of runs of the given lengths, each a new value; 0.0 and -0.0
    are two of them, next to each other."""
    values = [0.0, -0.0, 1 / 3, 2.5, 1e-7, -4.25, 1e15 / 7, 0.1, 33.0, 7.0, 1e-300, 5.5]
    return np.repeat(values[:len(lengths)], lengths).reshape(3, 4)


@pytest.mark.parametrize("block", [
    pytest.param(np.random.default_rng(3).uniform(-1e6, 1e6, (3, 4)), id="all-distinct"),
    pytest.param(np.repeat([[0.0], [7.25], [-0.0]], 4, axis=1), id="persistence"),
    pytest.param(_runs(2, 2, 2, 2, 2, 2), id="half-start-a-run"),
    pytest.param(_runs(2, 2, 2, 2, 2, 1, 1), id="one-more-starts-a-run"),
    # ridge fleet and bundle rows over persistence asset rows
    pytest.param(np.vstack([[1 / 3, 2.5, 1e-7, -4.25], [0.1, 33.0, 7.0, 5.5],
                            np.repeat([[0.0], [7.25], [1e15 / 7], [-0.0], [0.5], [2.5]], 4,
                                      axis=1)]),
                 id="varying-over-constant-rows"),
    pytest.param(np.array([[-0.0] * 4, [0.0, 0.0, -0.0, 0.0], [5.5] * 4]), id="signed-zeros"),
    pytest.param(np.array([[7.25] * 4, [7.25, 7.25, 1.0, 1.0], [1.0] * 4]),
                 id="runs-across-rows"),
    pytest.param(np.array([[0.0], [0.0], [-0.0], [-0.0]]), id="one-lead"),
    pytest.param(np.array([[0.0], [-0.0], [7.25], [0.5]]), id="one-lead-all-distinct"),
])
def test_write_forecast_csv_routes_match_the_per_cell_reference(tmp_path, block):
    """Rows of one bit pattern are formatted once, and any other row through a
    template of its T values whose line starts are put in after formatting. Both
    give the bytes of formatting every cell on its own, and ids holding ``%`` or a
    NUL reach the file as written."""
    origins = np.array(["2019-01-08T00:00:00", "2019-01-08T00:15:00"], dtype="datetime64[s]")
    n_assets = block.shape[0] - 2
    asset_ids = ("a%s", "w\0", "w0%%", "100%", "%d%%", "a5")[:n_assets]
    forecast = HierarchyForecast(origins, np.stack([block, block[::-1]]), 1, n_assets)
    write_forecast_csv(forecast, asset_ids, tmp_path / "forecast.csv")
    assert (tmp_path / "forecast.csv").read_text(encoding="utf-8") == per_cell_text(
        forecast, asset_ids)


@pytest.mark.parametrize("n_bundles", [2, 3])
@pytest.mark.parametrize("model", ["ridge", "persistence"])
def test_spliced_forecast_csv_equals_the_written_file(tmp_path, rng, n_bundles, model):
    """The K=1 file spliced from a K-bundle file has the bytes ``write_forecast_csv``
    writes for it; ``%`` in an asset id reaches both files as written."""
    panel = random_panel(rng, 5, 160)
    task, split = ForecastTask(6, 4, 15), panel.timestamps[120]
    spec = ModelSpec(model, 0.7, True)
    specs = {"fleet": spec, "bundle": ModelSpec(model, 0.3), "asset": spec}
    bundled = rolling_forecast(panel, Bundling(random_bundling_labels(rng, 5, n_bundles),
                                               panel.asset_ids), task, specs, split)
    single = rolling_forecast(panel, Bundling.single_bundle(panel.asset_ids), task, specs,
                              split, bundled)
    asset_ids = ("a%s", "100%", "%%", "a3", "a%d4")
    write_forecast_csv(bundled.test, asset_ids, tmp_path / "bundled.csv")
    write_forecast_csv(single.test, asset_ids, tmp_path / "written.csv")
    _splice_forecast_csv(single.test, asset_ids, tmp_path / "spliced.csv", bundled.test,
                         tmp_path / "bundled.csv")
    assert ((tmp_path / "spliced.csv").read_bytes()
            == (tmp_path / "written.csv").read_bytes())


@pytest.mark.parametrize("row", [0, 3])  # the fleet row, and the first asset row
def test_splice_rejects_a_copied_row_that_differs_in_one_bit(tmp_path, row):
    """0.0 and -0.0 are equal numbers but different lines (``0`` and ``-0``)."""
    origins = np.array(["2019-01-08T00:00:00", "2019-01-08T00:15:00"], dtype="datetime64[s]")
    source = HierarchyForecast(origins, np.zeros((2, 5, 3)), 2, 2)  # fleet, 2 bundles, 2 assets
    write_forecast_csv(source, ("a0", "a1"), tmp_path / "source.csv")
    values = np.zeros((2, 4, 3))
    values[1, row, 2] = -0.0
    with pytest.raises(ShapeMismatchError, match="not the same bits"):
        _splice_forecast_csv(HierarchyForecast(origins, values, 1, 2), ("a0", "a1"),
                             tmp_path / "spliced.csv", source, tmp_path / "source.csv")
    assert not (tmp_path / "spliced.csv").exists()


def test_same_bits_tells_signed_zeros_apart():
    """Equal bits agree, strided or not; 0.0 and -0.0, which the writer writes as
    ``0`` and ``-0``, differ, and so do arrays of different shapes."""
    a = np.array([[0.0, 1.5], [np.pi, -2.0]])
    assert same_bits(a, a.copy())
    assert same_bits(a[:, ::-1], np.ascontiguousarray(a[:, ::-1]))
    signed = a.copy()
    signed[0, 0] = -0.0
    assert signed[0, 0] == a[0, 0] and not same_bits(signed, a)
    assert not same_bits(a, a.ravel())
    assert not same_bits(a[:1], a)


def test_write_forecast_csv_rejects_origins_out_of_order(tmp_path):
    origins = np.array(["2019-01-08T00:15:00", "2019-01-08T00:00:00"], dtype="datetime64[s]")
    with pytest.raises(ValueOutOfRangeError, match="not strictly ascending"):
        write_forecast_csv(HierarchyForecast(origins, np.ones((2, 3, 2)), 1, 1), ("a0",),
                           tmp_path / "forecast.csv")


NOT_AFTER_00_15 = "is not after the previous origin 2019-01-08T00:15:00Z"
EXPECTED_00_30 = "expected '2019-01-08T00:30:00Z,fleet,,1,' and a finite value, got "
MALFORMED_FORECAST_ROWS = [  # (id, origin, rest of the appended row, expected message)
    pytest.param(origin, row, message, id=id_) for id_, origin, row, message in [
        # a third origin that opens with a malformed fleet line
        ("fleet,,1-expected 5 fields", "2019-01-08T00:30:00Z", "fleet,,1",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,1'"),
        ("fleet,,x,1.5-not an integer", "2019-01-08T00:30:00Z", "fleet,,x,1.5",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,x,1.5'"),
        ("fleet,,0,1.5-below 1", "2019-01-08T00:30:00Z", "fleet,,0,1.5",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,0,1.5'"),
        ("fleet,,1,abc-not a number", "2019-01-08T00:30:00Z", "fleet,,1,abc",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,1,abc'"),
        ("nan", "2019-01-08T00:30:00Z", "fleet,,1,nan",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,1,nan'"),
        ("inf", "2019-01-08T00:30:00Z", "fleet,,1,-inf",
         f"{EXPECTED_00_30}'2019-01-08T00:30:00Z,fleet,,1,-inf'"),
        # the first origin again, a duplicate of its first cell
        ("fleet,,1,1.5-duplicate cell", "2019-01-08T00:00:00Z", "fleet,,1,1.5",
         f"origin 2019-01-08T00:00:00Z {NOT_AFTER_00_15}"),
        # the previous origin's instant spelled another way is not a later origin
        ("repeated-origin", "2019-01-08T00:15:00+00:00", "fleet,,1,1.5",
         f"origin 2019-01-08T00:15:00+00:00 {NOT_AFTER_00_15}"),
        # the first origin's instant spelled another way must not become a third origin
        ("utc-offset-duplicate cell", "2019-01-08T00:00:00+00:00", "fleet,,1,1.5",
         f"origin 2019-01-08T00:00:00+00:00 {NOT_AFTER_00_15}"),
        ("fleet,,1,1.5-unparsable timestamp", "2019-13-13T00:00:00Z", "fleet,,1,1.5",
         "unparsable timestamp '2019-13-13T00:00:00Z'"),
        ("fleet,,1,1.5-is not a whole second", "2019-01-08T00:30:00.5Z", "fleet,,1,1.5",
         "timestamp '2019-01-08T00:30:00.5Z' is not a whole second"),
        ("fleet,,1,1.5-unparsable timestamp 'NaTZ'", "NaTZ", "fleet,,1,1.5",
         "unparsable timestamp 'NaTZ'"),
        # no word numpy reads as the wall clock, no digits it reads as a year, no
        # offset it shifts the instant by
        ("now", "nowZ", "fleet,,1,1.5", "unparsable timestamp 'nowZ'"),
        ("basic-date", "20190108Z", "fleet,,1,1.5", "unparsable timestamp '20190108Z'"),
        ("offset-then-z", "2019-01-08T00:30:00+01:00Z", "fleet,,1,1.5",
         "unparsable timestamp '2019-01-08T00:30:00+01:00Z'"),
    ]
]


@pytest.mark.parametrize("origin, row, message", MALFORMED_FORECAST_ROWS)
def test_read_forecast_csv_rejects_malformed_rows(tmp_path, origin, row, message):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    forecast = HierarchyForecast(origins, np.ones((2, 3, 2)), 1, 1)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(forecast, ("a0",), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{origin},{row}\n")
    with pytest.raises(FormatError) as info:
        read_forecast_csv(path, ("a0",), 1)
    # header + 2 origins x 3 rows x 2 leads
    assert str(info.value) == f"{path}:14: {message}"


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _duplicate(lines, i):
    lines[i + 1] = lines[i]
    return lines


# lines[0] is the header, so lines[i] is file line i + 1; each origin block is 6 lines
DISORDERED_FORECAST_LINES = [  # (edit of the writer's lines, where, message)
    pytest.param(lambda lines: _swap(lines, 3, 4), ":4:",
                 "expected '2019-01-08T00:00:00Z,bundle,0,1,' and a finite value, "
                 "got '2019-01-08T00:00:00Z,bundle,0,2,3'", id="swapped-leads"),
    # fleet lead 1 does not open the file, so T is read as 1
    pytest.param(lambda lines: _swap(lines, 1, 2), ":2:",
                 "expected '2019-01-08T00:00:00Z,fleet,,1,' and a finite value, "
                 "got '2019-01-08T00:00:00Z,fleet,,2,1'", id="swapped-fleet"),
    pytest.param(lambda lines: lines[:1] + lines[7:] + lines[1:7], ":8:",
                 "origin 2019-01-08T00:00:00Z is not after the previous origin "
                 "2019-01-08T00:15:00Z", id="descending-origins"),
    pytest.param(lambda lines: lines[:-1], ":13:", "the file ends inside the block of origin "
                 "2019-01-08T00:15:00Z, after 5 of its 6 lines", id="truncated-block"),
    pytest.param(lambda lines: _duplicate(lines, 3), ":5:",
                 "expected '2019-01-08T00:00:00Z,bundle,0,2,' and a finite value, "
                 "got '2019-01-08T00:00:00Z,bundle,0,1,2'", id="duplicate-in-block"),
    pytest.param(lambda lines: lines[:4] + ["\n"] + lines[4:], ":5:",
                 "expected '2019-01-08T00:00:00Z,bundle,0,2,' and a finite value, got ''",
                 id="blank-line-inside"),
    pytest.param(lambda lines: lines[:1], ":", "no forecast rows", id="header-only"),
    pytest.param(lambda lines: lines[:9] + [lines[9].replace(",8\n", ",1e999\n")] + lines[10:],
                 ":10:", "expected '2019-01-08T00:15:00Z,bundle,0,1,' and a finite value, "
                 "got '2019-01-08T00:15:00Z,bundle,0,1,1e999'", id="infinite-in-block"),
]


@pytest.mark.parametrize("edit, where, message", DISORDERED_FORECAST_LINES)
def test_read_forecast_csv_rejects_lines_out_of_order(tmp_path, edit, where, message):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(HierarchyForecast(origins, np.arange(12.0).reshape(2, 3, 2), 1, 1),
                       ("a0",), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(FormatError) as info:
        read_forecast_csv(path, ("a0",), 1)
    assert str(info.value) == f"{path}{where} {message}"


def test_read_forecast_csv_takes_crlf_endings_and_trailing_blank_lines(tmp_path):
    origins = np.datetime64("2019-01-08T00:00:00", "s") + np.timedelta64(900, "s") * np.arange(2)
    forecast = HierarchyForecast(origins, np.arange(12.0).reshape(2, 3, 2), 1, 1)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(forecast, ("a0",), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n  \n\n")
    back = read_forecast_csv(path, ("a0",), 1)
    np.testing.assert_array_equal(back.origins, forecast.origins)
    np.testing.assert_array_equal(back.values, forecast.values)


EDIT_KINDS = ("replace", "insert", "drop", "swap", "delete", "duplicate", "blank", "none")
EDIT_TOKENS = {  # field -> tokens an edit puts in or next to it
    0: ("2019-01-08T00:00:00Z", "2019-01-08T00:00:00+00:00", "2019-01-08T00:15:00Z",
        "2019-01-08T00:30:00Z", "NaTZ", "nowZ", "2019-01-08T00:00Z", ""),
    4: ("nan", "inf", "-inf", "1e999", "-0", " 2 ", "1.5", "x", ""),
}
FIELD_TOKENS = ("fleet", "bundle", "asset", "w0", "0", "1", "3", "-1", "x", "")


def edited_lines(lines, kind, i, j, field, token):
    """``lines`` with one edit of ``kind`` at ``lines[i]``: ``lines[j]`` is the other
    line of a swap, and ``token`` goes into, in place of or next to ``field``."""
    lines = list(lines)
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines.insert(i + 1, "\n")
    elif kind != "none":
        fields = lines[i].rstrip("\n").split(",")
        if kind == "replace":
            fields[field] = token
        elif kind == "drop":
            del fields[field]
        else:
            fields.insert(field, token)
        lines[i] = ",".join(fields) + "\n"
    return lines


def cell_by_cell(lines, asset_ids, n_bundles):
    """What the reader must make of ``lines``, parsed one cell at a time.

    T is the number of fleet lines, with leads 1, 2, ..., that the first origin
    opens with, and each origin takes the next (1 + K + N) * T lines. Returns
    (origins, values) if every line is its origin, its canonical
    ``,level,series_id,lead,`` and a finite value, with origins that parse
    and ascend; else the number of the first line that is not, or of the line
    after a block that the file ends inside (0: no line at all)."""
    body = lines[1:]
    while body and not body[-1].strip():
        body.pop()  # blank lines may follow the last block
    if not body:
        return 0
    stamp = body[0].partition(",")[0]
    horizon = 0
    while horizon < len(body) and body[horizon].startswith(f"{stamp},fleet,,{horizon + 1},"):
        horizon += 1
    horizon = max(horizon, 1)
    keys = ([("fleet", "")] + [("bundle", str(k)) for k in range(n_bundles)]
            + [("asset", a) for a in asset_ids])
    suffixes = [f",{level},{sid},{tau}," for level, sid in keys for tau in range(1, horizon + 1)]
    origins, values = [], []
    for first in range(0, len(body), len(suffixes)):
        block = body[first:first + len(suffixes)]
        ln = 2 + first
        stamp = block[0].partition(",")[0]
        try:
            origin = parse_utc_timestamp(stamp)
        except FormatError:
            return ln
        if origins and origin <= origins[-1]:
            return ln
        for i, (line, suffix) in enumerate(zip(block, suffixes)):
            if not line.startswith(stamp + suffix):
                return ln + i
            try:
                value = float(line[len(stamp + suffix):])
            except ValueError:
                return ln + i
            if not math.isfinite(value):
                return ln + i
            values.append(value)
        if len(block) < len(suffixes):
            return ln + len(block)
        origins.append(origin)
    return (np.array(origins, dtype="datetime64[s]"),
            np.array(values).reshape(len(origins), len(keys), horizon))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_read_forecast_csv_reads_or_rejects_like_a_cell_by_cell_parse(tmp_path_factory, data):
    """After one edit of one line of a written file, the reader returns the
    values of a cell-by-cell parse, or raises FormatError at the line where that
    parse stops: the first line that is not the writer's line, or the end of a
    block the file ends inside."""
    n_origins, k, n, horizon = (data.draw(st.integers(lo, 3)) for lo in (2, 1, 1, 2))
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).choice(
        [0.0, -0.0, 1 / 3, 2.5, 1e-7, 123456.75], (n_origins, 1 + k + n, horizon))
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(n_origins))
    asset_ids = tuple(f"w{j}" for j in range(n))
    path = tmp_path_factory.getbasetemp() / "edited_forecast.csv"
    write_forecast_csv(HierarchyForecast(origins, values, k, n), asset_ids, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # a block's first line, where the origin is read, and the last line, where the
    # file ends, are drawn as often as any other line
    ends = st.sampled_from(list(range(1, len(lines), (1 + k + n) * horizon)) + [len(lines) - 1])
    i, j = (data.draw(st.one_of(ends, st.integers(1, len(lines) - 1))) for _ in range(2))
    field = data.draw(st.one_of(st.just(0), st.just(4), st.integers(0, 4)))  # origin, value
    lines = edited_lines(lines, data.draw(st.sampled_from(EDIT_KINDS)), i, j, field,
                         data.draw(st.sampled_from(EDIT_TOKENS.get(field, FIELD_TOKENS))))
    path.write_text("".join(lines), encoding="utf-8")
    expected = cell_by_cell(lines, asset_ids, k)
    if isinstance(expected, tuple):
        back = read_forecast_csv(path, asset_ids, k)
        assert back.origins.tobytes() == expected[0].tobytes()
        assert back.values.view(np.int64).tobytes() == expected[1].view(np.int64).tobytes()
    else:
        with pytest.raises(FormatError) as info:
            read_forecast_csv(path, asset_ids, k)
        assert str(info.value).startswith(f"{path}:{expected}: " if expected else f"{path}: ")


def test_moments_csv_round_trip_is_exact(tmp_path, rng):
    moments = rng.uniform(0.0, 50.0, size=(3, 4)) ** 3  # all 17 significant digits in use
    moments[1, 2] = 0.0
    path = tmp_path / "moments.csv"
    write_moments_csv(moments, path)
    assert path.read_text() == "lead,row,second_moment\n" + "".join(
        f"{tau},{r},{float(v)!r}\n" for tau, row in enumerate(moments, start=1)
        for r, v in enumerate(row))
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


def test_forecast_arrays_round_trip_keeps_every_bit(tmp_path, rng):
    """The archive gives back the arrays' bits, -0.0 included, in the moments' layout,
    and saving the same arrays again writes the same bytes."""
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(3))
    values = rng.uniform(0.0, 50.0, size=(3, 4, 2)) ** 3
    values[1, 2, 0] = -0.0
    moments = rng.uniform(0.0, 5.0, size=(4, 2)).T  # (T, R) as a transposed view, as run has it
    forecasts = RollingForecasts(HierarchyForecast(origins, values, 1, 2), moments)
    paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for path in paths:
        write_forecast_arrays(forecasts, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    back = read_forecast_arrays(paths[0], 1, 2)
    np.testing.assert_array_equal(back.test.origins, origins)
    assert back.test.values.tobytes() == values.tobytes()
    assert back.second_moment.tobytes(order="A") == moments.tobytes(order="A")
    assert back.second_moment.flags.f_contiguous


def _entry_bytes(array):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array)
    return buffer.getvalue()


SMALL_ARRAYS = {"origins": np.datetime64("2019-01-08T00:00:00", "s") + np.arange(3) * 900,
                "values": np.ones((3, 4, 2)), "second_moment": np.ones((2, 4))}


@pytest.mark.parametrize("kind", ["npy", "prefixed", "first-header"])
def test_read_forecast_arrays_names_a_file_that_is_no_archive(tmp_path, kind):
    """A file whose first bytes are no zip's is one FormatError that names it: a
    plain ``.npy`` array, and a whole archive behind one other byte or with its first
    header damaged, which zipfile would find from the archive's end."""
    path = tmp_path / "forecasts_raw.npz"
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in SMALL_ARRAYS.items():
            archive.writestr(f"{name}.npy", _entry_bytes(array))
    read_forecast_arrays(path, 1, 2)
    data = bytearray(path.read_bytes())
    if kind == "npy":
        data = _entry_bytes(np.zeros(3))
    elif kind == "prefixed":
        data = b"#" + data
    else:
        data[1] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as info:
        read_forecast_arrays(path, 1, 2)
    assert str(info.value) == f"{path}: not a readable array archive: File is not a zip file"


def test_read_forecast_arrays_names_an_entry_that_is_no_array(tmp_path):
    """An entry that does not start as a ``.npy`` array, in an archive whose checksums
    hold, is named, as np.load would hand back its bytes."""
    path = tmp_path / "forecasts_raw.npz"
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in SMALL_ARRAYS.items():
            archive.writestr(f"{name}.npy",
                             b"\x93NUMP" if name == "values" else _entry_bytes(array))
    with pytest.raises(FormatError) as info:
        read_forecast_arrays(path, 1, 2)
    assert str(info.value) == f"{path}: values is not an array of dtype float64"


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
