"""Memory bounds of the N x N and (M, R, T) kernels, read from ``tracemalloc``.

numpy reports each array buffer to ``tracemalloc``, so the traced peak of a
call counts the temporaries it holds at once, whatever the allocator keeps
resident. Each bound is a multiple of the result's bytes (of sigma's for
``objective``, whose result is one float, and of the scored values for
``evaluate``) and lies between the in-place code and the full-size
expressions in ``tests/oracles.py``.
"""

import tracemalloc

import numpy as np
import pytest

from bundlecast import (
    AssetMeta,
    Bundling,
    Criterion,
    build_reconciler,
    covariance,
    evaluate,
    haversine_matrix,
    objective,
    reconcile,
)

from conftest import forecast_of, make_panel, random_bundling_labels

N, K = 300, 30


def bundling_of(rng, grouped: bool) -> Bundling:
    """K bundles of the N assets, each bundle's assets together or spread."""
    labels = random_bundling_labels(rng, N, K)
    return Bundling(np.sort(labels) if grouped else labels, tuple(f"a{i}" for i in range(N)))


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_haversine_holds_three_matrices(rng):
    # the expression holds five (N, N) arrays at once
    assets = [AssetMeta(f"a{i}", float(lat), float(lon), 1.0) for i, (lat, lon)
              in enumerate(zip(rng.uniform(35.0, 47.0, N), rng.uniform(-104.0, -88.0, N)))]
    d, peak = traced_peak(haversine_matrix, assets)
    assert peak < 3.5 * d.nbytes


@pytest.mark.parametrize("kind", [Criterion.SAVAR, Criterion.IMCY])
def test_covariance_centres_its_fresh_rows_in_place(rng, kind):
    # (N, T) rows of 2/3 of sigma's bytes: the expression held two copies of
    # them beside three (N, N) arrays; in place one copy beside two
    panel = make_panel(rng.uniform(0.0, 10.0, (N, 200)))
    sigma, peak = traced_peak(covariance, panel, kind)
    assert peak < 3.1 * sigma.nbytes


@pytest.mark.parametrize("grouped, bound", [(True, 1.5), (False, 15.0)])
def test_aggregate_gathers_at_most_n_assets(rng, grouped, bound):
    # the (M, N, T) asset rows of an (M, R, T) forecast, about 10 times the
    # (M, 1+K, T) result: the 2N gather reached 21 times it
    b = bundling_of(rng, grouped)
    assets = rng.standard_normal((8, 1 + K + N, 12))[:, 1 + K:]
    sums, peak = traced_peak(b.aggregate, assets, axis=1)
    assert peak < bound * sums.nbytes


def test_objective_builds_the_bundle_rows_only(rng):
    # at most one N x N gather; the two 2N aggregates reached 2.1 times sigma
    b = bundling_of(rng, grouped=False)
    x = rng.standard_normal((N, N))
    sigma = x @ x.T
    _, peak = traced_peak(objective, b, sigma)
    assert peak < 1.5 * sigma.nbytes


@pytest.mark.parametrize("grouped", [True, False])
def test_reconcile_fills_one_output(rng, grouped):
    # the output and one (M, N, T) gather at a time; the concatenate reached 3.9
    b = bundling_of(rng, grouped)
    horizon, n_rows = 24, 1 + K + N
    model = build_reconciler(b, rng.uniform(0.1, 10.0, (horizon, n_rows)))
    forecasts = forecast_of(rng.uniform(0.0, 100.0, (16, n_rows, horizon)), K, N)
    reconciled, peak = traced_peak(reconcile, model, forecasts)
    assert peak < 3.0 * reconciled.values.nbytes


def test_evaluate_scores_each_level_from_one_error_block(rng):
    # fleet_n500's shape: the asset level's error block is 0.91 of the (M, R, T)
    # values; an error block and its square per metric reached 1.82 times them
    m, k, n, t = 24, 50, 500, 24
    n_rows = 1 + k + n
    actuals, forecasts = (forecast_of(rng.uniform(0.0, 100.0, (m, n_rows, t)), k, n)
                          for _ in range(2))
    _, peak = traced_peak(evaluate, actuals, forecasts, rng.uniform(1.0, 100.0, n_rows))
    assert peak < 1.2 * actuals.values.nbytes
