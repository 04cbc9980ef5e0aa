"""Baseline forecasting models and the rolling-origin backtest harness.

Two models are provided, each applied per series (one model per asset, per
bundle, and for the fleet total):

* persistence -- the whole horizon equals the last observed value;
* ridge       -- direct multi-horizon ridge regression: one linear model
  maps the last H observations (plus optional sine/cosine calendar
  encodings of the origin) to all T leads at once. Features are
  standardized, the intercept is unpenalized, and predictions are clipped
  to the physical range of the series.

A ridge series is one feature map over the whole panel: row j holds the H
samples that end at index j+H-1, then that origin's calendar encodings.
Each ridge level keeps one such map, whose calendar columns are filled once
and whose lag columns each fitted row overwrites. The model is fitted on the
map's first rows, those whose T targets lie in the training range; the map
is standardized once, and the row's test and in-sample forecasts are
products of its test rows and of those first rows.

The rolling harness issues a forecast at every eligible origin of the test
range and keeps those forecasts. It also forecasts every eligible origin of
the training range, but keeps only each row's per-lead mean squared error
there, summed origin by origin: that second moment is all reconciliation
needs, so no in-sample forecast outlives the row or lead it was made for.
A persistence level is forecast as one slice of the hierarchy series, one
lead at a time in-sample; ridge rows are fitted one by one, and a ridge row
that repeats its parent row copies it.

Forecast sets are stored as ``origin,level,series_id,lead,value`` CSV lines
in one canonical order: origins strictly ascending; within an origin the
fleet, bundles 0..K-1, then the assets in panel order; within a row leads
1..T. They are written row by row: a row of one value is formatted once,
any other by one ``%`` into a template of its T values. The reader streams
the file one origin block at a time and makes one check per line: that it is
the line the writer puts there followed by a finite value. The first line
that is not is rejected with ``path:line`` and the line it expected. The
same test forecasts and the residual moments are also saved with their
exact bits as one array archive, which is what the reconcile stage reads.
"""

from __future__ import annotations

import math
import tokenize
import zipfile
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bundling import Bundling
from .core import AssetPanel, format_utc_timestamp, parse_utc_timestamp
from .errors import (
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)

LEVELS = ("fleet", "bundle", "asset")

FLOAT_FORMAT = "%.12g"  # CSV round-trip keeps coherence below 1e-9 relative


@dataclass(frozen=True)
class ForecastTask:
    """Input window length H, horizon T, and step duration."""

    history_len: int
    horizon: int
    granularity_minutes: int

    def __post_init__(self):
        if self.history_len < 1 or self.horizon < 1 or self.granularity_minutes < 1:
            raise ValueOutOfRangeError(
                f"history_len, horizon, granularity must be >= 1, got "
                f"({self.history_len}, {self.horizon}, {self.granularity_minutes})"
            )

    @property
    def step(self) -> np.timedelta64:
        return np.timedelta64(self.granularity_minutes * 60, "s")


@dataclass(frozen=True)
class ModelSpec:
    """Which model a hierarchy level uses, with its ridge settings."""

    model: str = "persistence"
    ridge_lambda: float = 1.0
    use_calendar: bool = False

    def __post_init__(self):
        if self.model not in ("persistence", "ridge"):
            raise ValueOutOfRangeError(f"unknown model {self.model!r}")
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise ValueOutOfRangeError(
                f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda}")


@dataclass(frozen=True)
class HierarchyForecast:
    """Stacked per-origin forecasts over the (total, bundles, assets) rows.

    ``values[m, r, tau-1]`` is the lead-tau forecast issued at
    ``origins[m]`` for hierarchy row r. Rows follow the summing-matrix
    convention: row 0 is the fleet total, rows 1..K the bundles, the last N
    rows the assets. The same container carries realized values when used
    as "actuals". Both arrays are stored as read-only views, so the arrays
    the container was built from stay writeable.
    """

    origins: np.ndarray
    values: np.ndarray
    n_bundles: int
    n_assets: int

    def __post_init__(self):
        origins = np.asarray(self.origins, dtype="datetime64[s]").view()
        values = np.asarray(self.values, dtype=np.float64).view()
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.shape[0] != origins.shape[0]:
            raise ShapeMismatchError(
                f"values shape {values.shape} does not match {origins.shape[0]} origins"
            )
        if values.shape[1] != 1 + self.n_bundles + self.n_assets:
            raise ShapeMismatchError(
                f"{values.shape[1]} rows != 1 + {self.n_bundles} bundles + {self.n_assets} assets"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise ValueOutOfRangeError("hierarchy forecast contains NaN or infinities")
        origins.flags.writeable = False
        values.flags.writeable = False

    @property
    def n_origins(self) -> int:
        return int(self.origins.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.values.shape[2])

    @property
    def fleet(self) -> np.ndarray:
        return self.values[:, :1, :]

    @property
    def bundles(self) -> np.ndarray:
        return self.values[:, 1:1 + self.n_bundles, :]

    @property
    def assets(self) -> np.ndarray:
        return self.values[:, 1 + self.n_bundles:, :]


# --- direct multi-horizon ridge -------------------------------------------------

def _calendar_features(origins: np.ndarray) -> np.ndarray:
    """Sine/cosine encodings of hour-of-day and day-of-year at each origin."""
    ts = np.asarray(origins, dtype="datetime64[s]")
    secs = ts.astype(np.int64)
    sod = (secs % 86400).astype(np.float64)
    doy = (ts.astype("datetime64[D]") - ts.astype("datetime64[Y]").astype("datetime64[D]")
           ).astype(np.int64).astype(np.float64)
    hour_angle = 2.0 * np.pi * sod / 86400.0
    doy_angle = 2.0 * np.pi * doy / 365.25
    return np.column_stack(
        [np.sin(hour_angle), np.cos(hour_angle), np.sin(doy_angle), np.cos(doy_angle)]
    )


def ridge_fit(features: np.ndarray, targets: np.ndarray,
              ridge_lambda: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the direct multi-horizon ridge map from (n, F) features to (n, T) targets.

    Returns the feature mean and scale that standardize a row, and the
    (F+1, T) solution of (X'X + lambda*P) W = X'Y, whose last row is the
    intercept; P penalizes every standardized feature except the intercept.

    The left-hand side is tested before the solve: ``np.linalg.cholesky``
    must factor it, and each squared pivot of that factor must exceed
    ``n * eps`` times its diagonal entry, n being the row count. Each Gram
    entry sums n rounded products, so a pivot that small is rounding noise:
    the feature matrix is rank-deficient (or lambda too small to regularize
    it) and InsufficientDataError is raised instead of arbitrary split
    weights returned. A system that ``np.linalg.solve`` finds singular raises
    the same error.
    """
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    x = (features - mean) / scale
    xa = np.hstack([x, np.ones((x.shape[0], 1))])

    n_rows, n_feat = x.shape
    gram = xa.T @ xa
    gram[np.diag_indices(n_feat)] += ridge_lambda
    rhs = xa.T @ targets
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
        if np.any(pivots <= n_rows * np.finfo(np.float64).eps * np.diagonal(gram)):
            raise np.linalg.LinAlgError("a pivot is rounding noise")
        return mean, scale, np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise InsufficientDataError(
            f"normal equations singular at lambda={ridge_lambda} "
            f"({n_rows} rows, {n_feat} features); degenerate features"
        ) from exc


# --- rolling-origin harness ------------------------------------------------------

@dataclass(frozen=True)
class RollingForecasts:
    """Test-range forecasts and in-sample residual moments.

    ``second_moment[tau-1, r]`` is the mean over the eligible training-range
    origins of hierarchy row r's squared lead-tau error; the in-sample
    forecasts themselves are not kept.
    """

    test: HierarchyForecast
    second_moment: np.ndarray   # (horizon, n_rows)


def hierarchy_series(panel: AssetPanel, bundling: Bundling) -> np.ndarray:
    """Stack (fleet total, bundle, asset) series into an (N+K+1, T) matrix."""
    if bundling.asset_order != panel.asset_ids:
        raise ShapeMismatchError("bundling asset order does not match panel")
    return np.vstack([bundling.aggregate(panel.values), panel.values])


def hierarchy_capacities(panel: AssetPanel, bundling: Bundling) -> np.ndarray:
    """Physical capacity of every hierarchy row (fleet, bundles, assets)."""
    return np.concatenate([bundling.aggregate(panel.capacities), panel.capacities])


def hierarchy_actuals(panel: AssetPanel, bundling: Bundling, origins,
                      horizon: int) -> HierarchyForecast:
    """Realized hierarchy values over {origin+1, ..., origin+T} per origin."""
    series = hierarchy_series(panel, bundling)
    origins = np.asarray(origins, dtype="datetime64[s]")
    idx = np.searchsorted(panel.timestamps, origins)
    if np.any(idx >= panel.n_steps) or np.any(panel.timestamps[idx] != origins):
        raise ShapeMismatchError("an origin is not on the panel's timestamp grid")
    if np.any(idx + horizon > panel.n_steps - 1):
        raise ShapeMismatchError("an origin's horizon extends past the panel")
    values = sliding_window_view(series.T, horizon, axis=0)[idx + 1]
    return HierarchyForecast(origins, values, bundling.n_bundles, panel.n_assets)


def forecast_origins(panel: AssetPanel, task: ForecastTask, split: np.datetime64) -> np.ndarray:
    """Indices of the test origins: from ``split`` on, each with H samples of
    history and its whole horizon inside the panel."""
    return np.arange(max(panel.index_of(split), task.history_len - 1), panel.n_steps - task.horizon)


def _mean_square(err: np.ndarray) -> np.ndarray:
    """The mean square of each column of the C-contiguous ``err`` (M, P), which
    is overwritten.

    Each column is summed origin by origin, the order in which ``np.mean``
    adds the M slices of an (M, R, T) error tensor. numpy adds the rows of an
    array with two or more contiguous columns in that order, but sums a
    single column pairwise, so that one is summed by ``np.cumsum``.
    """
    np.square(err, out=err)
    if err.shape[1] == 1:
        return np.cumsum(err[:, 0])[-1:] / err.shape[0]
    return np.add.reduce(err, axis=0) / err.shape[0]


def rolling_forecast(panel: AssetPanel, bundling: Bundling, task: ForecastTask,
                     specs: dict[str, ModelSpec], split: np.datetime64,
                     shared: RollingForecasts | None = None) -> RollingForecasts:
    """Backtest every hierarchy series with per-level models.

    ``split`` is the first test timestamp: models train on everything
    before it, whatever a run config's ``train_end`` says (it bounds only the
    bundling's window). Forecasts are issued at every origin whose full horizon
    stays inside its range (training range for the in-sample pass, the
    panel for the test pass). Origins with fewer than H prior samples are
    skipped. In-sample forecasts are reduced to their per-lead mean squared
    error as soon as they exist, each summed origin by origin. A training
    range without an eligible origin raises InsufficientDataError, since the
    reconciliation weights need at least one, and so does a test range
    without one.

    A persistence level is forecast as one slice of the hierarchy series:
    its test forecasts are one gather of the values at the test origins, and
    its moments are taken one lead at a time over all of its rows.

    Each ridge row is fitted once, by one ``ridge_fit`` call on the first
    rows of its level's feature map; a training range too short to fit H
    lags to T leads raises InsufficientDataError. A ridge row whose series,
    capacity and model spec equal its parent row's bit for bit copies the
    parent's forecasts and moments: the one bundle of a one-bundle bundling
    repeats the fleet, and the asset of a singleton bundle repeats that
    bundle. Bundle rows come before asset rows, so a singleton is fitted as
    its bundle and copied to its asset. The fleet and asset rows do not depend
    on the bundling, so with ``shared``, the result of an earlier call on
    the same panel, task, specs and split under another bundling, they are
    copied from it and only the bundle rows are forecast. The values are the
    same bits as without ``shared``.
    """
    for level in LEVELS:
        if level not in specs:
            raise ShapeMismatchError(f"model spec missing for level {level!r}")
    series = hierarchy_series(panel, bundling)
    caps = hierarchy_capacities(panel, bundling)
    n_rows = series.shape[0]
    split_idx = panel.index_of(split)
    if not 0 < split_idx < panel.n_steps:
        raise ShapeMismatchError("split timestamp outside the panel range")

    h, t = task.history_len, task.horizon
    train_origins = np.arange(h - 1, split_idx - t)
    test_origins = forecast_origins(panel, task, split)
    if train_origins.size == 0:
        raise InsufficientDataError(
            f"the training range has no origin with {h} samples of history and a full "
            f"{t}-step horizon, so no in-sample error can weight the reconciliation")
    if test_origins.size == 0:
        raise InsufficientDataError(
            f"the test range has no origin with {h} samples of history and a full "
            f"{t}-step horizon, so there is nothing to forecast")

    k = bundling.n_bundles
    level_rows = {"fleet": range(1), "bundle": range(1, 1 + k),
                  "asset": range(1 + k, n_rows)}
    test_values = np.empty((test_origins.shape[0], n_rows, t))
    moments = np.empty((n_rows, t))  # one contiguous row per series, handed on as (T, R)
    if shared is not None:
        if (shared.test.n_assets != panel.n_assets or shared.test.horizon != t
                or not np.array_equal(shared.test.origins, panel.timestamps[test_origins])):
            raise ShapeMismatchError("shared forecasts do not cover this panel's test origins "
                                     "and horizon")
        test_values[:, 0] = shared.test.fleet[:, 0]
        test_values[:, 1 + k:] = shared.test.assets
        moments[0] = shared.second_moment[:, 0]
        moments[1 + k:] = shared.second_moment[:, 1 + shared.test.n_bundles:].T
        level_rows = {"bundle": level_rows["bundle"]}
    # the row each row lies under: the fleet for a bundle, its bundle for an asset
    parent = np.concatenate([[0] * (1 + k), 1 + bundling.labels])
    parent_level = {"bundle": "fleet", "asset": "bundle"}
    calendar = _calendar_features(panel.timestamps[h - 1:])  # shared by every ridge row
    first, end = h - 1, split_idx - t  # the training origins, a contiguous range
    # feature row j is the origin h-1+j: the training origins are the first n_fit rows
    n_fit = end - first
    test_rows = slice(test_origins[0] - first, test_origins[-1] - first + 1)
    for level, rows in level_rows.items():
        spec = specs[level]
        if spec.model == "persistence":
            block = slice(rows.start, rows.stop)
            steps = np.ascontiguousarray(series[block].T)  # (n_steps, P)
            test_values[:, block] = steps[test_origins][:, :, None]
            for tau in range(1, t + 1):
                moments[block, tau - 1] = _mean_square(
                    steps[first:end] - steps[first + tau:end + tau])
            continue
        feats = np.empty((calendar.shape[0], h))  # each fitted row's lags, then the calendar
        if spec.use_calendar:
            feats = np.hstack([feats, calendar])
        for r in rows:
            p = parent[r]
            if (r > 0 and spec == specs[parent_level[level]] and caps[r] == caps[p]
                    and same_bits(series[r], series[p])):
                test_values[:, r], moments[r] = test_values[:, p], moments[p]
                continue
            if split_idx < h + t + 1:
                raise InsufficientDataError(
                    f"need at least {h + t + 1} training samples for H={h}, T={t}; "
                    f"got {split_idx}")
            feats[:, :h] = sliding_window_view(series[r], h)
            targets = sliding_window_view(series[r], t)[h:h + n_fit]
            mean, scale, w = ridge_fit(feats[:n_fit], targets, spec.ridge_lambda)
            x = (feats - mean) / scale
            test_values[:, r, :] = np.clip(x[test_rows] @ w[:-1] + w[-1], 0.0, caps[r])
            moments[r] = _mean_square(np.clip(x[:n_fit] @ w[:-1] + w[-1], 0.0, caps[r])
                                      - targets)

    test = HierarchyForecast(panel.timestamps[test_origins], test_values,
                             bundling.n_bundles, panel.n_assets)
    return RollingForecasts(test, moments.T)


# --- CSV interface ----------------------------------------------------------------

FORECAST_HEADER = "origin,level,series_id,lead,value"


def _row_keys(n_bundles: int, asset_ids: tuple) -> list[tuple[str, str]]:
    """``(level, series_id)`` of every hierarchy row, in row order."""
    return ([("fleet", "")] + [("bundle", str(k)) for k in range(n_bundles)]
            + [("asset", a) for a in asset_ids])


def write_forecast_csv(forecast: HierarchyForecast, asset_ids, path) -> None:
    """Write `origin,level,series_id,lead,value` lines (12 significant digits).

    The lines follow the canonical order that :func:`read_forecast_csv`
    requires: origins strictly ascending; within an origin the fleet,
    bundles 0..K-1, then the assets in ``asset_ids`` order; within a row
    leads 1..T. Each value v is written as ``FLOAT_FORMAT % v``, so ``0.0``
    and ``-0.0`` stay distinct. The lines are written row by row: a row
    whose T values are one bit pattern (as every persistence row is) is
    formatted once and joined into its T lines by one ``str.join``; any
    other row fills a ``lead,FLOAT_FORMAT`` template of T lines, built once
    per call, by one ``%``, and each line then gets the stamp and the row's
    ``,level,series_id,`` in front. No asset id ever enters a template.
    """
    asset_ids = tuple(asset_ids)
    if len(asset_ids) != forecast.n_assets:
        raise ShapeMismatchError(
            f"{len(asset_ids)} asset ids for {forecast.n_assets} asset rows"
        )
    if np.any(np.diff(forecast.origins) <= np.timedelta64(0, "s")):
        raise ValueOutOfRangeError("forecast origins are not strictly ascending")
    keys = _row_keys(forecast.n_bundles, asset_ids)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORECAST_HEADER + "\n")
        fh.writelines(_block_texts(forecast.origins, forecast.values, keys))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and bits: ``-0.0 == 0.0``, but the writer writes ``-0`` and ``0``."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _block_texts(origins: np.ndarray, values: np.ndarray, keys):
    """The text of each origin's lines, ``values[m]`` holding one row per key,
    written row by row as :func:`write_forecast_csv` describes."""
    heads = [f",{level},{sid}," for level, sid in keys]
    leads = [str(tau) for tau in range(1, values.shape[-1] + 1)]
    # a row's T lines without their line starts, which are put in after formatting
    fill = "\n".join(f"{lead},{FLOAT_FORMAT}" for lead in leads)
    for origin, block in zip(origins, values):
        stamp = format_utc_timestamp(origin)
        bits = block.view(np.int64)
        varying = (bits[:, 1:] != bits[:, :1]).any(axis=1).tolist()
        pieces = []
        for r, (head, first, vary) in enumerate(zip(heads, block[:, 0].tolist(), varying)):
            prefix = stamp + head
            if vary:
                text = fill % tuple(block[r].tolist())
                pieces += (prefix, text.replace("\n", "\n" + prefix), "\n")
            else:
                tail = f",{FLOAT_FORMAT % first}\n"
                pieces += (prefix, (tail + prefix).join(leads), tail)
        yield "".join(pieces)


def _splice_forecast_csv(forecast: HierarchyForecast, asset_ids, path,
                         source: HierarchyForecast, source_path) -> None:
    """Write the file :func:`write_forecast_csv` writes for ``forecast``,
    copying its fleet and asset lines from ``source_path``.

    ``source_path`` is the file that :func:`write_forecast_csv` wrote for
    ``source``, a forecast of the same assets under another bundling. The
    fleet and asset rows of ``forecast`` must be the same bits as those of
    ``source`` at the same origins, so their lines are the same text; this is
    checked before anything is written, and a difference raises
    ShapeMismatchError. Only the bundle rows are formatted. The source is
    streamed one origin block at a time.
    """
    asset_ids = tuple(asset_ids)
    if not (len(asset_ids) == source.n_assets == forecast.n_assets
            and np.array_equal(source.origins, forecast.origins)
            and source.horizon == forecast.horizon
            and same_bits(source.fleet, forecast.fleet)
            and same_bits(source.assets, forecast.assets)):
        raise ShapeMismatchError(f"the fleet and asset rows to write to {path} are not the "
                                 f"same bits as those of {source_path}")
    horizon, k = forecast.horizon, forecast.n_bundles
    bundle_lines = source.n_bundles * horizon
    asset_lines = source.n_assets * horizon
    bundle_keys = _row_keys(k, ())[1:]
    with open(source_path, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as fh:
        fh.write(src.readline())
        for bundle_text in _block_texts(forecast.origins, forecast.values[:, 1:1 + k],
                                        bundle_keys):
            fh.write("".join(islice(src, horizon)))  # the fleet lines
            deque(islice(src, bundle_lines), maxlen=0)  # skip the source's bundle lines
            fh.write(bundle_text)
            fh.write("".join(islice(src, asset_lines)))


def read_forecast_csv(path, asset_ids, n_bundles: int) -> HierarchyForecast:
    """Read the forecast CSV that :func:`write_forecast_csv` writes.

    The file is read one origin block of (1 + K + N) * T lines at a time,
    where T is the number of fleet lines the first origin opens with. A
    block's origin is the text before the first comma of its first line; it
    must parse as a UTC stamp and come after the previous block's origin.
    Then each line of the block must be the one line the writer puts there,
    the origin and the ``,level,series_id,lead,`` of the canonical order
    (the fleet, bundles 0..K-1, then the assets in ``asset_ids`` order,
    each with leads 1..T), followed by a finite value. The first line that
    is not, and a file that ends inside a block, raise FormatError naming
    ``path:line``. CR-LF line endings read like LF, and blank lines may
    follow the last block but stand nowhere else.
    """
    asset_ids = tuple(asset_ids)
    keys = _row_keys(n_bundles, asset_ids)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != FORECAST_HEADER:
            raise FormatError(f"{path}: expected header {FORECAST_HEADER!r}, got {header!r}")
        head = [fh.readline()]
        stamp = head[0].partition(",")[0]
        while head[-1].startswith(f"{stamp},fleet,,{len(head)},"):
            head.append(fh.readline())
        horizon = max(len(head) - 1, 1)  # without fleet lead 1 on line 2, line 2 is rejected
        lines = chain(filter(None, head), fh)  # readline() returns "" only at the end
        suffixes = [f",{level},{sid},{tau}," for level, sid in keys
                    for tau in range(1, horizon + 1)]
        size = len(suffixes)
        instants, blocks = [], []
        while block := list(islice(lines, size)):
            ln = 2 + len(instants) * size  # the block's first line
            stamp = block[0].partition(",")[0]
            try:
                instant = parse_utc_timestamp(stamp)
            except FormatError as exc:
                if not any(map(str.strip, block)) and not any(map(str.strip, lines)):
                    break  # only blank lines follow the last block
                raise FormatError(f"{path}:{ln}: {exc}") from exc
            if instants and instant <= instants[-1]:
                raise FormatError(f"{path}:{ln}: origin {stamp} is not after the previous "
                                  f"origin {format_utc_timestamp(instants[-1])}")
            prefixes = [stamp + suffix for suffix in suffixes]
            try:
                values = (np.fromiter(map(float, map(str.removeprefix, block, prefixes)),
                                      np.float64, size)
                          if all(map(str.startswith, block, prefixes)) else None)
            except ValueError:  # a value that is not a number, or a short block
                values = None
            if values is None or not np.isfinite(values).all():
                for i, (line, prefix) in enumerate(zip(block, prefixes)):
                    if not _is_line(line, prefix):
                        raise FormatError(f"{path}:{ln + i}: expected {prefix!r} and a finite "
                                          f"value, got {line.rstrip()!r}")
                raise FormatError(
                    f"{path}:{ln + len(block)}: the file ends inside the block of origin "
                    f"{stamp}, after {len(block)} of its {size} lines")
            instants.append(instant)
            blocks.append(values)

    if not blocks:
        raise FormatError(f"{path}: no forecast rows")
    values = np.stack(blocks).reshape(len(blocks), len(keys), horizon)
    return HierarchyForecast(np.array(instants, dtype="datetime64[s]"), values,
                             n_bundles, len(asset_ids))


def _is_line(line: str, prefix: str) -> bool:
    """Whether ``line`` is ``prefix`` followed by a finite value."""
    try:
        return line.startswith(prefix) and math.isfinite(float(line.removeprefix(prefix)))
    except ValueError:
        return False


MOMENTS_HEADER = "lead,row,second_moment"


def write_moments_csv(second_moment: np.ndarray, path) -> None:
    """Write (horizon, n_rows) residual moments as `lead,row,second_moment` lines.

    Cells go in (lead, row) order and each value is its ``repr``, the
    shortest text that parses back to the same float, so the text holds the
    exact moments. Each lead is one ``%d,<row>,%r`` template filled by
    one ``%``.
    """
    second_moment = np.asarray(second_moment)
    template = "".join(f"%d,{r},%r\n" for r in range(second_moment.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MOMENTS_HEADER}\n")
        for tau, values in enumerate(second_moment.tolist(), start=1):
            fields = [tau] * (2 * len(values))
            fields[1::2] = values
            fh.write(template % tuple(fields))


# --- exact arrays -----------------------------------------------------------------

ARRAY_DTYPES = {"origins": np.dtype("datetime64[s]"), "values": np.dtype(np.float64),
                "second_moment": np.dtype(np.float64)}


def write_forecast_arrays(forecasts: RollingForecasts, path) -> None:
    """Save the test forecasts, their origins and the residual moments exactly.

    One uncompressed ``np.savez`` archive holds ``origins`` (M,), ``values``
    (M, R, T) and ``second_moment`` (T, R). Its bytes are a pure function of
    the arrays, since every zip entry numpy writes carries the same fixed date.
    """
    np.savez(path, origins=forecasts.test.origins, values=forecasts.test.values,
             second_moment=forecasts.second_moment)


def read_forecast_arrays(path, n_bundles: int, n_assets: int) -> RollingForecasts:
    """The arrays :func:`write_forecast_arrays` saved, with the same bits.

    Nothing is unpickled. The file must be a zip of exactly the three
    ``.npy`` entries, stored uncompressed and unencrypted as numpy writes
    them, each whole entry matching its checksum, each array of its dtype,
    with R = 1 + ``n_bundles`` + ``n_assets`` rows, finite values and
    finite, non-negative moments. A file that is not such an archive, a
    missing entry or a wrong dtype raises FormatError, and a wrong shape
    raises ShapeMismatchError; each message starts with ``path``.
    """
    entries = sorted(f"{name}.npy" for name in ARRAY_DTYPES)
    try:
        with open(path, "rb") as fh:
            # zipfile finds an archive from its end, past a bad first header or a prefix
            if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise zipfile.BadZipFile("File is not a zip file")
            archive = zipfile.ZipFile(fh)
            names = sorted(archive.namelist())
            if names != entries:
                raise FormatError(f"{path}: holds the entries {names}, expected {entries}")
            if any(info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1
                   for info in archive.infolist()):
                raise FormatError(f"{path}: holds a compressed or encrypted entry")
            # numpy stops reading an entry where its array header says the data
            # ends, so it checks no checksum if an edited header ends it early
            damaged = archive.testzip()
            if damaged is not None:
                raise FormatError(f"{path}: the checksum of {damaged} does not match")
            arrays = {}
            for name in ARRAY_DTYPES:
                with archive.open(f"{name}.npy") as entry:
                    if entry.peek(6)[:6] == np.lib.format.MAGIC_PREFIX:  # as np.load tests
                        arrays[name] = np.lib.format.read_array(entry, allow_pickle=False)
    # numpy's array header parser can also let SyntaxError and TokenError out
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, NotImplementedError,
            SyntaxError, tokenize.TokenError) as exc:
        raise FormatError(f"{path}: not a readable array archive: {exc}") from exc
    for name, dtype in ARRAY_DTYPES.items():
        if name not in arrays or arrays[name].dtype != dtype:
            raise FormatError(f"{path}: {name} is not an array of dtype {dtype}")
    origins, values, moments = arrays.values()
    n_rows = 1 + n_bundles + n_assets
    if (origins.ndim != 1 or values.ndim != 3 or moments.ndim != 2
            or values.shape[:2] != (origins.size, n_rows)
            or moments.shape != (values.shape[2], n_rows)):
        raise ShapeMismatchError(
            f"{path}: {origins.shape} origins, {values.shape} values and {moments.shape} "
            f"moments do not hold M origins, (M, {n_rows}, T) values and (T, {n_rows}) moments")
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: a forecast value is not finite")
    if not ((moments >= 0.0) & (moments < np.inf)).all():
        raise FormatError(f"{path}: a second moment is not finite and non-negative")
    return RollingForecasts(HierarchyForecast(origins, values, n_bundles, n_assets), moments)
