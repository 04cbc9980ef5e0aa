"""Metamorphic oracles over the whole pipeline (Chen et al. 1998): a transformation
of the inputs with a known effect on every product, checked without a reference
implementation. Scaling and shifting time must keep every bit; permuting the
assets moves the fleet and bundle sums by rounding only."""

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
    hierarchy_capacities,
    reconcile,
    rolling_forecast,
)
from bundlecast.forecast import LEVELS
from bundlecast.pipeline import WEIGHT_FLOOR_REL
from bundlecast.synth import SynthConfig, synth_panel

from conftest import assert_bits_equal

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


def run_in_memory(panel: AssetPanel, n_bundles: int, spec: ModelSpec, split_idx: int,
                  criterion: str = "savar"):
    """What ``run`` computes, without files: the greedy bundling learned on the
    training range, raw and reconciled forecasts, moments and scores."""
    split = panel.timestamps[split_idx]
    train = panel.window(panel.timestamps[0], panel.timestamps[split_idx - 1])
    bundling = greedy_merge(covariance(train, criterion), haversine_matrix(panel.assets),
                            n_bundles, math.inf, panel.asset_ids)
    forecasts = rolling_forecast(panel, bundling, TASK, dict.fromkeys(LEVELS, spec), split)
    variances = estimate_weights(forecasts.second_moment,
                                 eps_floor=WEIGHT_FLOOR_REL * panel.fleet_capacity ** 2)
    reconciled = reconcile(build_reconciler(bundling, variances), forecasts.test)
    actuals = hierarchy_actuals(panel, bundling, forecasts.test.origins, TASK.horizon)
    reports = evaluate(actuals, reconciled, hierarchy_capacities(panel, bundling))
    return bundling, forecasts, reconciled, reports


def small_panel(n_assets: int, seed: int) -> AssetPanel:
    return synth_panel(SynthConfig(n_assets=n_assets, n_steps=240, granularity_minutes=60,
                                   seed=seed, n_regions=2, anticorrelated_pairs=n_assets // 4))


@pytest.mark.parametrize("k", ["1", "2", "N"])
@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=12, deadline=None)
@given(n_assets=st.integers(2, 8), seed=st.integers(0, 2**16),
       exponent=st.sampled_from([-2, 1, 3]))
def test_scaling_every_value_and_capacity_by_a_power_of_two(model, k, n_assets, seed,
                                                           exponent):
    """Times 2^e, every product scales exactly: no step may hold an absolute
    threshold or round differently at another magnitude."""
    panel = small_panel(n_assets, seed)
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


def scores(reports) -> dict:
    """Every score of a run by (level, metric); VS exists at the fleet level only."""
    return {(level, name): getattr(reports[level], name) for level in LEVELS
            for name in ("nmae", "rmse", "ed", "vs") if getattr(reports[level], name) is not None}


def bundle_members(bundling) -> list[frozenset]:
    """Each bundle's asset ids, in bundle order."""
    ids = np.array(bundling.asset_order)
    return [frozenset(ids[np.flatnonzero(bundling.labels == k)])
            for k in range(bundling.n_bundles)]


# Permuting the assets reorders the sums behind every fleet and bundle value, so
# those move by rounding: at most 5e-15 of the fleet capacity (and 3e-15 of a
# score other than VS, relatively) over 2,700 probe runs. The bound leaves a
# factor of 1e4. VS takes the square root of each difference of two forecasts,
# which turns a rounding change d of a zero difference into d^(1/2): its bound
# is the bound's square root.
PERMUTED_SUM_TOL = 1e-10


@pytest.mark.parametrize("k", ["1", "2", "N"])
@pytest.mark.parametrize("model", ["persistence", "ridge"])
@settings(max_examples=12, deadline=None)
@given(n_assets=st.integers(2, 8), seed=st.integers(0, 2**16), data=st.data(),
       criterion=st.sampled_from(["savar", "imcy", "variance"]))
def test_permuting_the_assets(model, k, n_assets, seed, data, criterion):
    """In a new asset order, the partition is the same sets of ids, each asset's
    forecasts and moments are its own bits, and every sum agrees up to rounding.

    ``savar`` subtracts a cross-sectional mean summed in the new order, so a
    near-tie in the greedy could in principle flip its partition; none did in
    900 probe runs per criterion, so the partition is asserted for all three."""
    panel = small_panel(n_assets, seed)
    perm = np.array(data.draw(st.permutations(range(n_assets))))
    permuted = AssetPanel(tuple(panel.assets[i] for i in perm), panel.timestamps,
                          panel.values[perm])
    n_bundles = {"1": 1, "2": 2, "N": n_assets}[k]
    base = run_in_memory(panel, n_bundles, MODELS[model], 160, criterion)
    bundling, forecasts, reconciled, reports = run_in_memory(
        permuted, n_bundles, MODELS[model], 160, criterion)

    members = bundle_members(bundling)
    assert sorted(members, key=sorted) == sorted(bundle_members(base[0]), key=sorted)
    order = [bundle_members(base[0]).index(m) for m in members]  # base bundle of each
    rows = np.concatenate([[0], 1 + np.array(order), 1 + n_bundles + perm])
    assert_bits_equal(forecasts.test.origins, base[1].test.origins)
    assert_bits_equal(forecasts.test.assets, base[1].test.assets[:, perm])
    assert_bits_equal(forecasts.second_moment[:, 1 + n_bundles:],
                      base[1].second_moment[:, 1 + n_bundles:][:, perm])
    bound = PERMUTED_SUM_TOL * panel.fleet_capacity
    np.testing.assert_allclose(forecasts.test.values, base[1].test.values[:, rows],
                               rtol=0, atol=bound)
    np.testing.assert_allclose(reconciled.values, base[2].values[:, rows], rtol=0, atol=bound)
    got, expected = scores(reports), scores(base[3])
    assert got.keys() == expected.keys()
    for (level, name), value in expected.items():
        rtol = PERMUTED_SUM_TOL ** (0.5 if name == "vs" else 1.0)
        np.testing.assert_allclose(got[level, name], value, rtol=rtol, atol=0)


@pytest.mark.parametrize("k", ["1", "2", "N"])
@pytest.mark.parametrize("model", ["persistence", "ridge"])
@settings(max_examples=12, deadline=None)
@given(n_assets=st.integers(2, 8), seed=st.integers(0, 2**16),
       weeks=st.integers(-2000, 2000))
def test_shifting_time_by_whole_weeks(model, k, n_assets, seed, weeks):
    """Every timestamp and range moved by whole weeks, calendar encodings off:
    every forecast, moment and score keeps its bits, at origins moved as far."""
    panel = small_panel(n_assets, seed)
    shift = np.timedelta64(7 * 86400 * weeks, "s")
    shifted = AssetPanel(panel.assets, panel.timestamps + shift, panel.values)
    n_bundles = {"1": 1, "2": 2, "N": n_assets}[k]
    base = run_in_memory(panel, n_bundles, MODELS[model], 160)
    bundling, forecasts, reconciled, reports = run_in_memory(
        shifted, n_bundles, MODELS[model], 160)

    np.testing.assert_array_equal(bundling.labels, base[0].labels)
    np.testing.assert_array_equal(forecasts.test.origins, base[1].test.origins + shift)
    assert_bits_equal(forecasts.test.values, base[1].test.values)
    assert_bits_equal(forecasts.second_moment, base[1].second_moment)
    assert_bits_equal(reconciled.values, base[2].values)
    got, expected = scores(reports), scores(base[3])
    assert got.keys() == expected.keys()
    assert_bits_equal(list(got.values()), list(expected.values()))
