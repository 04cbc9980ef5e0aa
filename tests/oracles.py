"""Test oracles: slow reference solvers that the package's fast code is checked against.

:func:`exact_partition` finds an optimal bundling by exhaustive search, the
oracle for :func:`bundlecast.greedy_merge`. :func:`per_row_forecasts`
forecasts every hierarchy row on its own and takes the moments over the
whole in-sample error tensor, the oracle for
:func:`bundlecast.rolling_forecast`. :func:`read_moments_csv` is the strict
reader of ``residual_moments.csv``, the oracle that the text product holds
every bit of the moments the forecast stage hands on.

The direct expressions -- :func:`aggregate_2n`, :func:`haversine_expression`,
:func:`population_covariance_expression`, :func:`objective_trace` and
:func:`reconcile_concatenate` -- evaluate the same formulas as the package
with a full-size array for each intermediate. The package builds the same
values in place, so they are the bit-identity oracles for it.
:func:`nmae_expression`, :func:`rmse_expression` and
:func:`energy_distance_expression` each score one (M, N, T) block from its
own error block, the bit-identity oracles for :func:`bundlecast.evaluate`,
which scores each level from one.

No command runs any of them, so they live with the tests.
"""

import math

import numpy as np

from bundlecast import (
    Bundling,
    HierarchyForecast,
    hierarchy_actuals,
    hierarchy_capacities,
    hierarchy_series,
)
from bundlecast.core import EARTH_RADIUS_KM
from bundlecast.errors import (
    BundlecastError,
    FormatError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)
from bundlecast.forecast import _calendar_features, ridge_fit
from bundlecast.rundir import MOMENTS_HEADER

EXACT_MAX_ASSETS = 12


class InfeasiblePartitionError(BundlecastError):
    """No partition into K bundles satisfies the diameter constraint."""


def exact_partition(sigma, distances: np.ndarray, n_bundles: int, diameter_km: float,
                    asset_order) -> Bundling:
    """Optimal bundling by enumerating set partitions into K non-empty parts.

    Partitions are visited as restricted-growth strings (parts labeled by
    first appearance), so ties resolve to the lexicographically smallest
    canonical assignment. Guarded to N <= 12.
    """
    s = np.asarray(sigma, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    n = s.shape[0]
    if n > EXACT_MAX_ASSETS:
        raise ValueOutOfRangeError(
            f"exact enumeration is limited to {EXACT_MAX_ASSETS} assets, got {n}"
        )
    if distances.shape != (n, n) or len(asset_order) != n:
        raise ShapeMismatchError("sigma, distances, and asset_order sizes disagree")
    if not 1 <= n_bundles <= n:
        raise ValueOutOfRangeError(f"n_bundles must be in 1..{n}, got {n_bundles}")

    best_cost = math.inf
    best_labels: np.ndarray | None = None
    parts: list[list[int]] = []

    def recurse(i: int, cost: float) -> None:
        nonlocal best_cost, best_labels
        if i == n:
            if len(parts) == n_bundles and cost < best_cost:
                best_cost = cost
                best_labels = np.empty(n, dtype=np.int64)
                for k, p in enumerate(parts):
                    best_labels[p] = k
            return
        if len(parts) + (n - i) < n_bundles:
            return
        for p in parts:
            if np.all(distances[i, p] <= diameter_km):
                delta = s[i, i] + 2.0 * float(s[i, p].sum())
                p.append(i)
                recurse(i + 1, cost + delta)
                p.pop()
        if len(parts) < n_bundles:
            parts.append([i])
            recurse(i + 1, cost + s[i, i])
            parts.pop()

    recurse(0, 0.0)
    if best_labels is None:
        raise InfeasiblePartitionError(
            f"no partition of {n} assets into {n_bundles} bundles satisfies "
            f"the {diameter_km} km diameter cutoff"
        )
    return Bundling(best_labels, asset_order)


def series_forecasts(series, timestamps, origins, spec, task, train_len, cap) -> np.ndarray:
    """Forecasts (M, T) of one series at the origin indices ``origins``, on its own.

    Persistence repeats the value at each origin over the horizon. A ridge
    row's features at an origin are the H samples up to it, then, with
    calendar encodings, the encodings of its timestamp in ``timestamps``; the
    row is fitted by ``ridge_fit`` on every origin whose T targets lie in the
    first ``train_len`` samples, and its forecasts are clipped to [0, cap].
    """
    h, t = task.history_len, task.horizon
    if spec.model == "persistence":
        return np.repeat(series[origins][:, None], t, axis=1)

    def features(at):
        lags = np.stack([series[o - h + 1:o + 1] for o in at])
        return np.hstack([lags, _calendar_features(timestamps[at])]) if spec.use_calendar else lags

    fit_origins = np.arange(h - 1, train_len - t)
    targets = np.stack([series[o + 1:o + 1 + t] for o in fit_origins])
    mean, scale, w = ridge_fit(features(fit_origins), targets, spec.ridge_lambda)
    return np.clip((features(origins) - mean) / scale @ w[:-1] + w[-1], 0.0, cap)


def per_row_forecasts(panel, bundling, task, specs, split_idx) -> tuple[np.ndarray, np.ndarray]:
    """The test forecasts (M, R, T) and moments (T, R) that ``rolling_forecast``
    returns, each hierarchy row forecast on its own by :func:`series_forecasts`.

    The moments are ``np.mean`` over the (M', R, T) in-sample squared-error
    tensor, which adds its M' slices origin by origin.
    """
    series = hierarchy_series(panel, bundling)
    caps = hierarchy_capacities(panel, bundling)
    levels = ["fleet"] + ["bundle"] * bundling.n_bundles + ["asset"] * panel.n_assets
    h, t = task.history_len, task.horizon
    test_origins = np.arange(max(split_idx, h - 1), panel.n_steps - t)
    train_origins = np.arange(h - 1, split_idx - t)

    def tensor(origins):
        return np.stack([series_forecasts(series[r], panel.timestamps, origins, specs[level],
                                          task, split_idx, caps[r])
                         for r, level in enumerate(levels)], axis=1)

    err = tensor(train_origins) - hierarchy_actuals(
        panel, bundling, panel.timestamps[train_origins], t).values
    return tensor(test_origins), np.mean(err * err, axis=0).T


def read_moments_csv(path, n_rows: int, horizon: int) -> np.ndarray:
    """The (horizon, n_rows) moments written by :func:`bundlecast.rundir.write_moments_csv`.

    Every cell must appear once, in the writer's (lead, row) order, with a
    finite non-negative value; anything else raises FormatError at its line.
    """
    values = np.empty(horizon * n_rows)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != MOMENTS_HEADER:
            raise FormatError(f"{path}:1: expected header {MOMENTS_HEADER!r}, got {header!r}")
        i, ln = 0, 1
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise FormatError(f"{path}:{ln}: expected 3 fields, got {len(fields)}")
            try:
                lead, row = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError(f"{path}:{ln}: lead {fields[0]!r} or row {fields[1]!r} "
                                  f"is not an integer") from None
            expected = (i // n_rows + 1, i % n_rows)
            if (lead, row) != expected or i == values.size:
                if not 1 <= lead <= horizon:
                    problem = f"lead {lead} outside the horizon 1..{horizon}"
                elif not 0 <= row < n_rows:
                    problem = f"row {row} outside the hierarchy's rows 0..{n_rows - 1}"
                elif (lead, row) < expected:
                    problem = f"duplicate cell for lead {lead}, row {row}"
                else:
                    problem = (f"expected lead {expected[0]}, row {expected[1]}, got lead "
                               f"{lead}, row {row}: a cell is missing or out of order")
                raise FormatError(f"{path}:{ln}: {problem}")
            try:
                value = float(fields[2])
            except ValueError:
                raise FormatError(f"{path}:{ln}: value {fields[2]!r} is not a number") from None
            if not 0.0 <= value < np.inf:
                raise FormatError(f"{path}:{ln}: second moment {value} is not finite "
                                  f"and non-negative")
            values[i] = value
            i += 1
    if i < values.size:
        raise FormatError(f"{path}:{ln + 1}: the file ends before lead {i // n_rows + 1}, "
                          f"row {i % n_rows}; expected {horizon} leads of {n_rows} rows")
    return values.reshape(horizon, n_rows)


# --- direct expressions of the in-place kernels -----------------------------------

def aggregate_2n(bundling: Bundling, values, axis: int = 0) -> np.ndarray:
    """``Bundling.aggregate`` as one ``np.add.reduceat`` over a gather of 2N
    assets: all of them in order, then all of them grouped by bundle."""
    n = bundling.n_assets
    order = np.concatenate([np.arange(n), np.argsort(bundling.labels, kind="stable")])
    sizes = np.bincount(bundling.labels)
    starts = np.concatenate([[0], n + np.cumsum(sizes) - sizes])
    return np.add.reduceat(np.asarray(values).take(order, axis=axis), starts, axis=axis)


def haversine_expression(assets) -> np.ndarray:
    """``haversine_matrix`` as one expression over (N, N) temporaries."""
    lat = np.radians([a.latitude_deg for a in assets])
    lon = np.radians([a.longitude_deg for a in assets])
    dlat = 0.5 * (lat[:, None] - lat[None, :])
    dlon = 0.5 * (lon[:, None] - lon[None, :])
    h = np.sin(dlat) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(d, 0.0)
    return d


def population_covariance_expression(rows) -> np.ndarray:
    """``covariance`` of the criterion's (N, T) rows as one expression over
    fresh temporaries: the symmetrized row covariance dividing by T."""
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=1, keepdims=True)
    sigma = centered @ centered.T / rows.shape[1]
    return 0.5 * (sigma + sigma.T)


def objective_trace(bundling: Bundling, sigma) -> float:
    """``objective`` as the trace of L @ sigma @ L.T, built by two 2N aggregates."""
    s = np.asarray(sigma, dtype=np.float64)
    blocks = aggregate_2n(bundling, aggregate_2n(bundling, s)[1:], axis=1)[:, 1:]
    return float(np.trace(blocks))


def reconcile_concatenate(model, forecasts: HierarchyForecast) -> HierarchyForecast:
    """``reconcile`` with a fresh array per step, the asset rows concatenated
    below their 2N aggregate."""
    bundling, k = model.bundling, model.bundling.n_bundles
    gains, shares = model.gains.T, model.shares.T
    asset_sums = aggregate_2n(bundling, forecasts.assets, axis=1)[:, 1:]
    fused = asset_sums + gains[1:1 + k] * (forecasts.bundles - asset_sums)
    total = fused.sum(axis=1, keepdims=True)
    fleet = total + gains[:1] * (forecasts.fleet - total)
    bundles = fused + shares[1:1 + k] * (fleet - total)
    bottom = forecasts.assets + shares[1 + k:] * (bundles - asset_sums)[:, bundling.labels]
    coherent = np.concatenate([aggregate_2n(bundling, bottom, axis=1), bottom], axis=1)
    return HierarchyForecast(forecasts.origins, coherent, forecasts.n_bundles,
                             forecasts.n_assets)


def nmae_expression(actuals, forecasts, capacities) -> float:
    """Capacity-normalized mean absolute error of an (M, N, T) block, in percent."""
    m, n, t = actuals.shape
    per_series_l1 = np.abs(actuals - forecasts).sum(axis=2)  # (M, N)
    return float((per_series_l1 / capacities[None, :]).sum() / (m * n * t) * 100.0)


def rmse_expression(actuals, forecasts) -> float:
    """Root mean squared error over all origins, series and leads of a block, in MW."""
    m, n, t = actuals.shape
    return float(np.sqrt(np.square(actuals - forecasts).sum() / (m * n * t)))


def energy_distance_expression(actuals, forecasts) -> float:
    """Twice the mean Frobenius norm of the per-origin error block, in MW."""
    norms = np.sqrt(np.square(actuals - forecasts).sum(axis=(1, 2)))
    return float(2.0 * norms.sum() / actuals.shape[0])
