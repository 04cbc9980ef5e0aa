"""Summing matrix, residual weights, and the per-lead WLS projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from bundlecast import (
    Bundling,
    build_reconciler,
    coherence_gap,
    estimate_weights,
    reconcile,
    summing_matrix,
)
from bundlecast.rundir import write_diagnostics_csv
from bundlecast.errors import ShapeMismatchError, ValueOutOfRangeError

from conftest import (
    LABEL_KINDS,
    assert_bits_equal,
    forecast_of,
    labels_of_kind,
    random_bundling_labels,
    reconciler_gains,
    signed_zeros,
)
from oracles import reconcile_concatenate


def unit_weights(horizon, n_rows):
    return np.ones((horizon, n_rows))


def random_instance(rng, n=None, k=None, horizon=None, n_origins=2):
    n = n if n is not None else int(rng.integers(2, 11))
    k = k if k is not None else int(rng.integers(1, min(n, 4) + 1))
    horizon = horizon if horizon is not None else int(rng.integers(1, 7))
    labels = random_bundling_labels(rng, n, k)
    bundling = Bundling(labels, tuple(f"a{i}" for i in range(n)))
    s = summing_matrix(bundling)
    values = rng.uniform(0.0, 100.0, size=(n_origins, n + k + 1, horizon))
    weights = rng.uniform(0.1, 10.0, size=(horizon, n + k + 1))
    return bundling, s, forecast_of(values, k, n), weights


# --- summing matrix ---------------------------------------------------------------

def test_summing_matrix_hand_example():
    b = Bundling([0, 0], ("a", "b"))
    np.testing.assert_array_equal(
        summing_matrix(b), [[1, 1], [1, 1], [1, 0], [0, 1]])


def test_summing_matrix_identity_bundling():
    b = Bundling([0, 1, 2], ("a", "b", "c"))
    s = summing_matrix(b)
    np.testing.assert_array_equal(s[:1], np.ones((1, 3)))
    np.testing.assert_array_equal(s[1:4], np.eye(3))
    np.testing.assert_array_equal(s[4:], np.eye(3))


def test_summing_matrix_column_sums_are_three(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        b = Bundling(random_bundling_labels(rng, n, k), tuple(f"a{i}" for i in range(n)))
        np.testing.assert_array_equal(summing_matrix(b).sum(axis=0), np.full(n, 3.0))


# --- weight estimation -------------------------------------------------------------

def floored_counts(moments, variances, tmp_path):
    """The ``n_floored_weights`` column of the diagnostics written for these weights."""
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(moments, variances, path, np.zeros(len(variances), dtype=int))
    return [int(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]


def test_estimate_weights_hand_example(tmp_path):
    moments = np.array([[4.0, 4.0, 1.0, 1e-14]])
    w = estimate_weights(moments, eps_floor=1e-12)
    np.testing.assert_array_equal(w[0], [4.0, 4.0, 1.0, 1e-12])
    assert floored_counts(moments, w, tmp_path) == [1]


def test_estimate_weights_floor_on_perfect_forecasts(tmp_path):
    moments = np.zeros((2, 4))
    w = estimate_weights(moments, eps_floor=1e-6)
    np.testing.assert_array_equal(w, np.full((2, 4), 1e-6))
    assert floored_counts(moments, w, tmp_path) == [4, 4]


def test_estimate_weights_lead_independent_residuals(rng, tmp_path):
    # the same moments at every lead give the same weights at every lead
    row = rng.uniform(0.0, 3.0, size=4) ** 2
    row[1] = 0.0
    moments = np.tile(row, (3, 1))
    w = estimate_weights(moments, eps_floor=1e-12)
    np.testing.assert_array_equal(w, np.tile(np.maximum(row, 1e-12), (3, 1)))
    assert floored_counts(moments, w, tmp_path) == [1, 1, 1]


def test_estimate_weights_errors(rng):
    moments = rng.uniform(0, 1, size=(2, 4))
    for eps_floor in (0.0, -1e-9, np.nan):
        with pytest.raises(ValueOutOfRangeError, match="eps_floor must be positive"):
            estimate_weights(moments, eps_floor=eps_floor)
    # a negative moment is an error, not a value to floor
    with pytest.raises(ValueOutOfRangeError,
                       match="lead 1, row 0 is -1.0; it must be finite and non-negative"):
        estimate_weights([[-1.0, 1.0]], 1e-12)
    negative = moments.copy()
    negative[1, 3] = -1e-300
    with pytest.raises(ValueOutOfRangeError, match="lead 2, row 3 is -1e-300"):
        estimate_weights(negative, eps_floor=1e-9)
    for bad in (np.nan, np.inf):
        moments[1, 2] = bad
        with pytest.raises(ValueOutOfRangeError,
                           match=f"lead 2, row 2 is {bad}; it must be finite"):
            estimate_weights(moments, eps_floor=1e-9)
    pair = Bundling([0, 0], ("a", "b"))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueOutOfRangeError, match="finite and strictly positive"):
            build_reconciler(pair, np.full((1, 4), bad))
    for shape in ((4,), (1, 3), (1, 1, 4)):
        with pytest.raises(ShapeMismatchError, match="do not cover the hierarchy's 4 rows"):
            build_reconciler(pair, np.ones(shape))


def test_lead_weights_leave_the_callers_array_writeable(rng):
    for layout in (np.ascontiguousarray, np.asfortranarray):
        moments = layout(rng.uniform(0.1, 10.0, size=(3, 5)))
        variances = estimate_weights(moments, eps_floor=1e-12)
        assert moments.flags.writeable
        assert not variances.flags.writeable
        np.testing.assert_array_equal(variances, moments)
        with pytest.raises(ValueError):
            variances[0, 0] = 1.0
        moments[0, 0] = 1.0  # the caller may still write its own array
        assert variances[0, 0] != 1.0


def test_reconciler_bits_independent_of_weight_layout(rng):
    """C- and Fortran-ordered copies of one set of variances reconcile bit for bit alike."""
    bundling, _, fc, _ = random_instance(rng, n=200, k=20, horizon=48)
    variances = rng.uniform(0.1, 10.0, size=(48, 221))
    models = [build_reconciler(bundling, layout(variances))
              for layout in (np.ascontiguousarray, np.asfortranarray)]
    np.testing.assert_array_equal(models[0].gains, models[1].gains)
    np.testing.assert_array_equal(models[0].shares, models[1].shares)
    np.testing.assert_array_equal(reconcile(models[0], fc).values, reconcile(models[1], fc).values)


# --- projection construction ----------------------------------------------------------

def test_build_reconciler_hand_linear_algebra():
    b = Bundling([0, 0], ("a", "b"))
    s = summing_matrix(b)
    model = build_reconciler(b, unit_weights(1, 4))
    # (S'S)^-1 = inv([[3,2],[2,3]]) = (1/5) [[3,-2],[-2,3]]
    expect = np.array([[3.0, -2.0], [-2.0, 3.0]]) / 5.0 @ s.T
    np.testing.assert_allclose(reconciler_gains(model)[0], expect, atol=1e-12)


def test_gains_invariant_to_weight_rescaling(rng):
    bundling, _, _, weights = random_instance(rng, n=6, k=2, horizon=3)
    model = build_reconciler(bundling, weights)
    scaled = weights * np.array([[7.0], [0.003], [123.0]])
    model_scaled = build_reconciler(bundling, scaled)
    assert np.max(np.abs(reconciler_gains(model) - reconciler_gains(model_scaled))) < 1e-10


def test_gains_times_summing_is_identity(rng):
    instances = [random_instance(rng) for _ in range(20)]
    # N=1000, K=100, spread 1e8: exact fleet and bundle rows over inexact assets make
    # S'W^-1 S as badly conditioned as this allows (~1e11); a dense solve misses I by ~1e-7
    bundling, s, fc, _ = random_instance(rng, n=1000, k=100, horizon=1)
    variances = np.concatenate([np.ones(101), np.full(1000, 1e8)])[None, :]
    instances.append((bundling, s, fc, variances))
    for bundling, s, _, weights in instances:
        gains = reconciler_gains(build_reconciler(bundling, weights))
        n = s.shape[1]
        for tau in range(gains.shape[0]):
            np.testing.assert_allclose(gains[tau] @ s, np.eye(n), atol=1e-8)


def spread_weights(rng, horizon, n_rows, spread):
    """Log-uniform variances whose max/min is exactly ``spread`` at every lead."""
    v = 10.0 ** rng.uniform(0.0, np.log10(spread), size=(horizon, n_rows))
    for tau in range(horizon):
        lo, hi = rng.choice(n_rows, size=2, replace=False)
        v[tau, lo], v[tau, hi] = 1.0, spread
    return v


def test_reconcile_matches_dense_normal_solve(rng):
    """Oracle: the bottom level solves S'W^-1 S b = S'W^-1 h densely, lead by lead."""
    cases = [(1, 1), (7, 1), (7, 7), (60, 1), (60, 60), (60, 9), (33, 5), (12, 4)]
    for n, k in cases:
        for spread in (1.0, 1e4, 1e8):
            bundling, s, fc, _ = random_instance(rng, n=n, k=k, horizon=3)
            weights = spread_weights(rng, 3, n + k + 1, spread)
            rec = reconcile(build_reconciler(bundling, weights), fc)
            for tau in range(3):
                inv_w = 1.0 / weights[tau]
                normal = s.T @ (inv_w[:, None] * s)
                bottom = np.linalg.solve(normal, s.T @ (inv_w[:, None] * fc.values[:, :, tau].T))
                dense = s @ bottom
                assert np.max(np.abs(rec.values[:, :, tau].T - dense)) < 1e-9 * 100.0 * n, \
                    (n, k, spread, tau)


# --- reconciliation -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
       kind=st.sampled_from(LABEL_KINDS),
       horizon=st.integers(1, 6), n_origins=st.integers(1, 4))
def test_reconcile_keeps_the_bits_of_the_concatenated_rows(seed, n, kind, horizon, n_origins):
    """The one preallocated output holds the bits of the oracle that builds each
    step as a new array and concatenates the asset rows below their sums,
    whether the labels are grouped or not, with signed zeros in the forecasts."""
    rng = np.random.default_rng(seed)
    labels = labels_of_kind(rng, n, kind)
    bundling = Bundling(labels, tuple(f"a{i}" for i in range(n)))
    n_rows = 1 + bundling.n_bundles + n
    values = signed_zeros(rng, rng.uniform(-100.0, 100.0, (n_origins, n_rows, horizon)), 0.3)
    model = build_reconciler(bundling, rng.uniform(0.1, 10.0, (horizon, n_rows)))
    fc = forecast_of(values, bundling.n_bundles, n)
    assert_bits_equal(reconcile(model, fc).values, reconcile_concatenate(model, fc).values)


def test_reconcile_hand_case():
    b = Bundling([0, 0], ("a", "b"))
    model = build_reconciler(b, unit_weights(1, 4))
    fc = forecast_of(np.array([10.0, 10.0, 3.0, 5.0]).reshape(1, 4, 1), 1, 2)
    rec = reconcile(model, fc)
    np.testing.assert_allclose(rec.values[0, :, 0], [9.6, 9.6, 3.8, 5.8], atol=1e-10)


def test_reconcile_fixes_coherence_and_is_idempotent(rng):
    for _ in range(10):
        bundling, s, fc, weights = random_instance(rng)
        model = build_reconciler(bundling, weights)
        rec = reconcile(model, fc)
        fleet_cap = 100.0 * bundling.n_assets
        assert coherence_gap(rec, s) < 1e-9 * fleet_cap
        again = reconcile(model, rec)
        assert np.max(np.abs(again.values - rec.values)) < 1e-10 * max(1.0, np.abs(rec.values).max())


def test_reconcile_identity_on_coherent_input(rng):
    bundling, s, _, weights = random_instance(rng, n=5, k=2, horizon=2)
    bottom = rng.uniform(0, 50, size=(3, 5, 2))
    coherent = np.einsum("rn,mnt->mrt", s, bottom)
    fc = forecast_of(coherent, 2, 5)
    rec = reconcile(build_reconciler(bundling, weights), fc)
    assert np.max(np.abs(rec.values - fc.values)) < 1e-10 * coherent.max()


def test_reconciled_bottom_minimizes_weighted_least_squares(rng):
    """Independent optimality oracle: scipy minimizer on the WLS objective."""
    for _ in range(5):
        bundling, s, fc, weights = random_instance(rng, n=4, k=2, horizon=2, n_origins=1)
        model = build_reconciler(bundling, weights)
        rec = reconcile(model, fc)
        for tau in range(2):
            h = fc.values[0, :, tau]
            inv_w = 1.0 / weights[tau]

            def wls(bottom):
                r = h - s @ bottom
                return float(r @ (inv_w * r))

            x0 = fc.values[0, 1 + bundling.n_bundles:, tau]
            res = minimize(wls, x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
            ours = rec.values[0, 1 + bundling.n_bundles:, tau]
            assert wls(ours) <= res.fun + 1e-6
            np.testing.assert_allclose(ours, res.x, atol=1e-4)


def test_reconcile_shape_mismatch(rng):
    bundling, _, fc, weights = random_instance(rng, n=4, k=2, horizon=2)
    model = build_reconciler(bundling, weights)
    other = forecast_of(np.zeros((1, 9, 2)), 3, 5)
    with pytest.raises(ShapeMismatchError):
        reconcile(model, other)
