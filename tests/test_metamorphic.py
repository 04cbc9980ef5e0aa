"""Metamorphic oracles over the whole pipeline (Chen et al. 1998): a transformation
of the inputs with a known effect on every product, checked without a reference
implementation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecast import (
    AssetMeta,
    AssetPanel,
    ForecastTask,
    ModelSpec,
    build_reconciler,
    covariance,
    estimate_weights,
    evaluate,
    greedy_merge,
    haversine_matrix,
    hierarchy_actuals,
    reconcile,
    rolling_forecast,
)
from bundlecast.forecast import LEVELS
from bundlecast.pipeline import WEIGHT_FLOOR_REL
from bundlecast.synth import SynthConfig, synth_panel

TASK = ForecastTask(history_len=6, horizon=4, granularity_minutes=60)
MODELS = {
    "persistence": ModelSpec("persistence"),
    "ridge": ModelSpec("ridge", 1.0, use_calendar=False),
    "ridge-calendar": ModelSpec("ridge", 1.0, use_calendar=True),
}


def scaled(panel: AssetPanel, factor: float) -> AssetPanel:
    """Every series value and capacity times ``factor``."""
    assets = tuple(AssetMeta(a.asset_id, a.latitude_deg, a.longitude_deg,
                             a.capacity_mw * factor) for a in panel.assets)
    return AssetPanel(assets, panel.timestamps, panel.values * factor)


def run_in_memory(panel: AssetPanel, n_bundles: int, spec: ModelSpec, split_idx: int):
    """What ``run`` computes, without files: the greedy bundling learned on the
    training range, raw and reconciled forecasts, moments and scores."""
    split = panel.timestamps[split_idx]
    train = panel.window(panel.timestamps[0], panel.timestamps[split_idx - 1])
    bundling = greedy_merge(covariance(train, "savar"), haversine_matrix(panel.assets),
                            n_bundles, math.inf, panel.asset_ids)
    forecasts = rolling_forecast(panel, bundling, TASK, dict.fromkeys(LEVELS, spec), split)
    weights = estimate_weights(forecasts.second_moment,
                               eps_floor=WEIGHT_FLOOR_REL * panel.fleet_capacity ** 2)
    reconciled = reconcile(build_reconciler(bundling, weights), forecasts.test)
    actuals = hierarchy_actuals(panel, bundling, forecasts.test.origins, TASK.horizon)
    reports = evaluate(actuals, reconciled, bundling, panel.capacities)
    return bundling, forecasts, reconciled, reports


def assert_bits_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("k", ["1", "2", "N"])
@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=12, deadline=None)
@given(n_assets=st.integers(2, 8), seed=st.integers(0, 2**16),
       exponent=st.sampled_from([-2, 1, 3]))
def test_scaling_every_value_and_capacity_by_a_power_of_two(model, k, n_assets, seed,
                                                           exponent):
    """Times 2^e, every product scales exactly: no step may hold an absolute
    threshold or round differently at another magnitude."""
    panel = synth_panel(SynthConfig(n_assets=n_assets, n_steps=240, granularity_minutes=60,
                                    seed=seed, n_regions=2,
                                    anticorrelated_pairs=n_assets // 4))
    n_bundles = {"1": 1, "2": 2, "N": n_assets}[k]
    factor = 2.0 ** exponent
    base = run_in_memory(panel, n_bundles, MODELS[model], 160)
    bundling, forecasts, reconciled, reports = run_in_memory(
        scaled(panel, factor), n_bundles, MODELS[model], 160)

    np.testing.assert_array_equal(bundling.labels, base[0].labels)
    assert_bits_equal(forecasts.test.origins, base[1].test.origins)
    assert_bits_equal(forecasts.test.values, factor * base[1].test.values)
    assert_bits_equal(reconciled.values, factor * base[2].values)
    assert_bits_equal(forecasts.second_moment, factor ** 2 * base[1].second_moment)
    for level in LEVELS:
        assert_bits_equal(reports[level].nmae, base[3][level].nmae)
