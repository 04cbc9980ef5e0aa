"""Minimum-trace reconciliation with per-lead WLS variance scaling.

Incoherent hierarchy forecasts h^ (fleet, bundles, assets predicted by
separate models) are projected onto the coherent subspace spanned by the
summing matrix S, h~ = S (S' W^-1 S)^-1 S' W^-1 h^, where W is the diagonal
of the in-sample error second moments at each lead: the "WLS_var" scaling of
Wickramasuriya, Athanasopoulos & Hyndman (2019, JASA 114). The forecast
stage hands over those moments, per lead and row, rather than the in-sample
forecasts they come from.

S is a tree (fleet -> bundles -> assets) and W is diagonal, so the
projection is one upward and one downward pass per lead. With variances
v_0, v_k, w_i and forecasts y_0, y_k, a_i of the fleet, bundle k, asset i:

* up: A_k, W_k = sums of a_i, w_i over bundle k; g_k = W_k / (v_k + W_k),
  y~_k = A_k + g_k (y_k - A_k), V_k = g_k v_k; U, V = sums of y~_k, V_k;
  g_0 = V / (v_0 + V), F = U + g_0 (y_0 - U);
* down: B_k = y~_k + (V_k / V)(F - U), b_i = a_i + (w_i / W_k)(B_k - A_k);
  the result is S b.

WLS is the best linear unbiased estimate when row errors are independent
with variances W. The up pass fuses each node's own forecast with its
children's estimate by inverse variance (V_k is the fused variance); the
down pass splits a node's correction among its independent children in
proportion to their variances. This is the closed form of Hyndman, Lee &
Wang (2016, CSDA 97) for a tree with diagonal W: coherent input passes
through unchanged and rescaling one lead's weights changes nothing. The
diagnostics report each lead's ``weight_ratio`` (max/min floored variance),
which bounds cond(S' W^-1 S) <= (2N + 1) * weight_ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundling import Bundling
from .errors import ShapeMismatchError, ValueOutOfRangeError
from .forecast import HierarchyForecast


def summing_matrix(bundling: Bundling) -> np.ndarray:
    """The (N+K+1) x N matrix stacking (ones row; the K x N 0/1 bundle matrix; identity)."""
    n = bundling.n_assets
    bundles = bundling.labels == np.arange(bundling.n_bundles)[:, None]
    return np.vstack([np.ones((1, n)), bundles, np.eye(n)])


def estimate_weights(second_moment: np.ndarray, eps_floor: float) -> np.ndarray:
    """Per-lead, per-row variances from the (T, R) mean squared in-sample errors.

    ``second_moment`` averages over the in-sample origins (see
    ``RollingForecasts``). A negative or non-finite moment is an error, not
    a value to floor. The floor guards against exactly-zero residuals (e.g.
    persistence over a constant stretch), which would make the weight matrix
    singular. Returns the floored variances as a new read-only array.
    """
    if not eps_floor > 0.0:
        raise ValueOutOfRangeError(f"eps_floor must be positive, got {eps_floor}")
    second_moment = np.asarray(second_moment, dtype=np.float64)
    bad = np.argwhere(~((second_moment >= 0.0) & (second_moment < np.inf)))  # NaN too
    if bad.size:
        tau, r = bad[0]
        raise ValueOutOfRangeError(f"second moment at lead {tau + 1}, row {r} is "
                                   f"{second_moment[tau, r]}; it must be finite and non-negative")
    variances = np.maximum(second_moment, eps_floor)
    variances.flags.writeable = False
    return variances


@dataclass(frozen=True)
class ReconcilerModel:
    """Per-lead, per-row weights of the two passes over the bundle tree."""

    bundling: Bundling
    gains: np.ndarray   # (horizon, n_rows) own-forecast weight g; 1 for assets
    shares: np.ndarray  # (horizon, n_rows) share of the parent's correction; 1 for the fleet

    @property
    def horizon(self) -> int:
        return int(self.gains.shape[0])


def build_reconciler(bundling: Bundling, variances) -> ReconcilerModel:
    """Gains and shares of every lead from the bundle tree and the (T, R) variances."""
    k, n = bundling.n_bundles, bundling.n_assets
    v = np.asarray(variances, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 1 + k + n:
        raise ShapeMismatchError(f"weights of shape {v.shape} do not cover the hierarchy's "
                                 f"{1 + k + n} rows")
    if not np.all((v > 0.0) & (v < np.inf)):
        raise ValueOutOfRangeError("lead weights must be finite and strictly positive")
    v_fleet, v_bundle, v_asset = v[:, :1], v[:, 1:1 + k], v[:, 1 + k:]
    w_bundle = bundling.aggregate(v_asset, axis=1)[:, 1:]
    g_bundle = w_bundle / (v_bundle + w_bundle)
    fused = g_bundle * v_bundle
    total = fused.sum(axis=1, keepdims=True)
    gains = np.hstack([total / (v_fleet + total), g_bundle, np.ones_like(v_asset)])
    shares = np.hstack([np.ones_like(v_fleet), fused / total,
                        v_asset / w_bundle[:, bundling.labels]])
    return ReconcilerModel(bundling, gains, shares)


def reconcile(model: ReconcilerModel, forecasts: HierarchyForecast) -> HierarchyForecast:
    """Project forecasts onto the coherent subspace, per origin and lead.

    The (M, R, T) result is one preallocated array: the asset rows are
    written into it and the fleet and bundle rows summed from them, so the
    only other arrays of that order are the gathers in ``Bundling.aggregate``,
    one at a time. Each expression keeps the operands of the closed form in
    the module docstring, so every bit is the same as evaluating it directly.
    """
    bundling, k = model.bundling, model.bundling.n_bundles
    expected = (k, bundling.n_assets)
    if (forecasts.n_bundles, forecasts.n_assets) != expected:
        raise ShapeMismatchError(f"forecast has {forecasts.n_bundles} bundles and "
                                 f"{forecasts.n_assets} assets, reconciler expects {expected}")
    if forecasts.horizon != model.horizon:
        raise ShapeMismatchError(
            f"forecast horizon {forecasts.horizon} != reconciler horizon {model.horizon}"
        )
    gains, shares = model.gains.T, model.shares.T      # (n_rows, horizon)
    asset_sums = bundling.aggregate(forecasts.assets, axis=1)[:, 1:]
    fused = asset_sums + gains[1:1 + k] * (forecasts.bundles - asset_sums)
    total = fused.sum(axis=1, keepdims=True)
    fleet = total + gains[:1] * (forecasts.fleet - total)
    correction = fused + shares[1:1 + k] * (fleet - total) - asset_sums  # bundles minus sums
    m, r, t = forecasts.values.shape
    out = np.empty((m, r, t))
    # each asset row starts as its bundle's correction, by one take into the whole
    # output: it is C-contiguous, so numpy writes it in place (mode="raise" would
    # buffer it). The 1+K upper rows take a placeholder and are summed below
    source = np.concatenate([np.zeros(1 + k, dtype=np.int64), bundling.labels])
    np.take(correction.reshape(m * k, t), (np.arange(m)[:, None] * k + source).ravel(),
            axis=0, out=out.reshape(m * r, t), mode="clip")
    bottom = out[:, 1 + k:]
    bottom *= shares[1 + k:]
    bottom += forecasts.assets
    out[:, :1 + k] = bundling.aggregate(bottom, axis=1)
    return HierarchyForecast(forecasts.origins, out, forecasts.n_bundles, forecasts.n_assets)


def coherence_gap(forecast: HierarchyForecast, summing: np.ndarray) -> float:
    """Largest absolute aggregation mismatch across rows, origins, and leads.

    Zero (up to numerics) iff every bundle row equals the sum of its member
    assets and the fleet row equals the sum of all assets, i.e. the stacked
    values equal S applied to the asset rows.
    """
    s = np.asarray(summing, dtype=np.float64)
    if forecast.values.shape[1] != s.shape[0] or forecast.n_assets != s.shape[1]:
        raise ShapeMismatchError(
            f"forecast rows {forecast.values.shape[1]}x{forecast.n_assets} do not "
            f"match summing matrix {s.shape}"
        )
    if forecast.values.size == 0:
        return 0.0
    implied = np.einsum("rn,mnt->mrt", s, forecast.assets)
    return float(np.max(np.abs(forecast.values - implied)))


def count_bound_violations(forecast: HierarchyForecast, capacities) -> np.ndarray:
    """Per-lead count of reconciled values outside [0, row capacity].

    Reconciled forecasts are deliberately not clipped (clipping would break
    coherence); this counter surfaces how often the projection leaves the
    physical range.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.shape != (forecast.values.shape[1],):
        raise ShapeMismatchError(
            f"{caps.shape} capacities for {forecast.values.shape[1]} hierarchy rows"
        )
    outside = (forecast.values < 0.0) | (forecast.values > caps[None, :, None])
    return outside.sum(axis=(0, 1))


def write_diagnostics_csv(second_moment, variances, path, bound_violations) -> None:
    """Per-lead weight ratio, floored weights (moment below variance), and range violations."""
    v = np.asarray(variances)
    ratio = v.max(axis=1) / v.min(axis=1)
    n_floored = (np.asarray(second_moment) < v).sum(axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lead,weight_ratio,n_floored_weights,n_bound_violations\n")
        for tau in range(v.shape[0]):
            fh.write(
                f"{tau + 1},{ratio[tau]:.6e},"
                f"{int(n_floored[tau])},{int(bound_violations[tau])}\n"
            )
