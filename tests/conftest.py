"""Shared fixtures: small seeded panels and random-instance helpers."""

import numpy as np
import pytest

from bundlecast import (
    AssetMeta,
    AssetPanel,
    HierarchyForecast,
    SynthConfig,
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
