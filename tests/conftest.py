"""Shared fixtures: small seeded panels and random-instance helpers."""

import numpy as np
import pytest

from bundlecast import (
    AssetMeta,
    AssetPanel,
    HierarchyForecast,
    SynthConfig,
    evaluate,
    reconcile,
    synth_panel,
)


def make_panel(values, lats=None, lons=None, caps=None, start="2019-01-08T00:00:00",
               step_minutes=15):
    """Panel from a raw (N, T) array with auto-generated metadata."""
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    lats = lats if lats is not None else [40.0 + 0.1 * i for i in range(n)]
    lons = lons if lons is not None else [-100.0 + 0.1 * i for i in range(n)]
    caps = caps if caps is not None else [max(10.0, float(values[i].max()) * 2) for i in range(n)]
    assets = tuple(
        AssetMeta(f"a{i}", lats[i], lons[i], caps[i]) for i in range(n)
    )
    timestamps = np.datetime64(start, "s") + np.timedelta64(step_minutes * 60, "s") * np.arange(t)
    return AssetPanel(assets, timestamps, values)


def random_panel(rng, n, t, step_minutes=15):
    """Bounded random panel with spread-out coordinates."""
    caps = rng.uniform(20.0, 200.0, size=n)
    values = caps[:, None] * rng.uniform(0.05, 0.95, size=(n, t))
    lats = rng.uniform(35.0, 47.0, size=n)
    lons = rng.uniform(-104.0, -88.0, size=n)
    return make_panel(values, lats=list(lats), lons=list(lons), caps=list(caps),
                      step_minutes=step_minutes)


def random_bundling_labels(rng, n, k):
    """Labels covering all k bundles (each bundle non-empty)."""
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return labels


LABEL_KINDS = ("one", "singletons", "grouped", "unsorted")


def labels_of_kind(rng, n, kind):
    """Labels of a bundling whose sums take one route of ``Bundling.aggregate``:
    one bundle, N singletons numbered out of asset order, bundles whose assets
    lie together in bundle order, or random bundles."""
    if kind == "one":
        return np.zeros(n, dtype=np.int64)
    if kind == "singletons":
        return rng.permutation(n)
    labels = random_bundling_labels(rng, n, int(rng.integers(1, n + 1)))
    return np.sort(labels) if kind == "grouped" else labels


def assert_bits_equal(got, expected):
    """Same dtype, shape and bits of 8-byte values, so ``-0.0`` differs from ``0.0``."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def signed_zeros(rng, values, share):
    """``values`` with about ``share`` of its entries set to ``-0.0``, in place."""
    values[rng.random(values.shape) < share] = -0.0
    return values


def forecast_of(values, n_bundles, n_assets):
    """Wrap an (M, R, T) array with synthetic origins."""
    values = np.asarray(values, dtype=float)
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(values.shape[0]))
    return HierarchyForecast(origins, values, n_bundles, n_assets)


def score_block(actuals, forecasts, capacities=None):
    """``evaluate``'s scores of an (M, N, T) block: the asset level of a
    one-bundle hierarchy whose fleet and bundle rows are the block's sums.

    ``capacities`` are the N series' (all 1 if None); the totals' are their sum.
    """
    a, f = np.asarray(actuals, dtype=float), np.asarray(forecasts, dtype=float)
    n = a.shape[1]
    caps = np.ones(n) if capacities is None else np.asarray(capacities, dtype=float)

    def hierarchy(block):
        total = block.sum(axis=1, keepdims=True)
        return forecast_of(np.concatenate([total, total, block], axis=1), 1, n)

    return evaluate(hierarchy(a), hierarchy(f), np.concatenate([[caps.sum()] * 2, caps]))["asset"]


def reconciler_gains(model):
    """G_tau as a (T, N, R) array: the reconciled assets' response to each unit forecast."""
    k, n = model.bundling.n_bundles, model.bundling.n_assets
    n_rows = 1 + k + n
    units = np.repeat(np.eye(n_rows)[:, :, None], model.horizon, axis=2)
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(n_rows))
    rec = reconcile(model, HierarchyForecast(origins, units, k, n))
    return rec.assets.transpose(2, 1, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20190108)


@pytest.fixture
def small_panel():
    cfg = SynthConfig(n_assets=6, n_steps=600, granularity_minutes=15, seed=7,
                      n_regions=2, anticorrelated_pairs=1)
    return synth_panel(cfg)
