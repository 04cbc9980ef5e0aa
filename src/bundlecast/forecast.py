"""Baseline forecasting models and the rolling-origin backtest harness.

Two models are provided, each applied per series (one model per asset, per
bundle, and for the fleet total):

* persistence -- the whole horizon equals the last observed value;
* ridge       -- direct multi-horizon ridge regression: one linear model
  maps the last H observations (plus optional sine/cosine calendar
  encodings of the origin) to all T leads at once. Features are
  standardized, the intercept is unpenalized, and predictions are clipped
  to the physical range of the series.

A ridge series builds one feature map over the whole panel: row j holds the
H samples that end at index j+H-1, then that origin's calendar encodings.
The model is fitted on the rows whose T targets lie in the training range,
and every forecast reads its row from the same map.

The rolling harness issues a forecast at every eligible origin of the test
range and keeps those forecasts. It also forecasts every eligible origin of
the training range, but keeps only each row's per-lead mean squared error
there: that second moment is all reconciliation needs, so no in-sample
forecast outlives the row it was made for.

Forecast sets are stored as ``origin,level,series_id,lead,value`` CSV lines
in one canonical order: origins strictly ascending; within an origin the
fleet, bundles 0..K-1, then the assets in panel order; within a row leads
1..T. The reader streams the file one origin block at a time and rejects
any other order with ``path:line``.
"""

from __future__ import annotations

import math
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

FLOAT_FORMAT = "{:.12g}"  # CSV round-trip keeps coherence below 1e-9 relative
_VALUE_FORMAT = "%.12g"  # FLOAT_FORMAT for the % operator: the same text for finite floats


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


def _ridge_features(series: np.ndarray, timestamps: np.ndarray, history_len: int,
                    use_calendar: bool) -> np.ndarray:
    """Row j: the H samples ending at index j+H-1, then that origin's calendar encodings."""
    lags = sliding_window_view(series, history_len)
    if not use_calendar:
        return lags
    return np.hstack([lags, _calendar_features(timestamps[history_len - 1:])])


def ridge_fit(features: np.ndarray, targets: np.ndarray,
              ridge_lambda: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the direct multi-horizon ridge map from (n, F) features to (n, T) targets.

    Returns the feature mean and scale that standardize a row, and the
    (F+1, T) solution of (X'X + lambda*P) W = X'Y, whose last row is the
    intercept; P penalizes every standardized feature except the intercept.
    The left-hand side is tested before the solve, at every lambda:
    ``np.linalg.cholesky`` must factor it, and each squared pivot of that
    factor must exceed ``n * eps`` times its diagonal entry, n being the row
    count. Each Gram entry sums n rounded products, so a pivot that small is
    rounding noise: the feature matrix is rank-deficient (or lambda too small
    to regularize it) and InsufficientDataError is raised instead of
    arbitrary split weights returned. A system that ``np.linalg.solve``
    finds singular raises the same error.
    """
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    x = (features - mean) / scale
    xa = np.hstack([x, np.ones((x.shape[0], 1))])

    n_feat = x.shape[1]
    gram = xa.T @ xa
    gram[np.diag_indices(n_feat)] += ridge_lambda
    rhs = xa.T @ targets
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
        if np.any(pivots <= x.shape[0] * np.finfo(np.float64).eps * np.diagonal(gram)):
            raise np.linalg.LinAlgError("a pivot is rounding noise")
        return mean, scale, np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise InsufficientDataError(
            f"normal equations singular at lambda={ridge_lambda} "
            f"({x.shape[0]} rows, {n_feat} features); degenerate features"
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


def _forecast_series(series: np.ndarray, timestamps: np.ndarray, origin_sets,
                     spec: ModelSpec, task: ForecastTask, train_len: int,
                     cap: float) -> list[np.ndarray]:
    """Forecasts (M, T) for one series at each array of origin indices.

    A ridge row is fitted once, on the feature rows whose targets end inside
    the first ``train_len`` samples, and predicts each origin set with its
    own product, so every set gets the values it would get alone.
    """
    h, t = task.history_len, task.horizon
    if spec.model == "persistence":
        return [np.repeat(series[origins][:, None], t, axis=1) for origins in origin_sets]
    if train_len < h + t + 1:
        raise InsufficientDataError(
            f"need at least {h + t + 1} training samples for H={h}, T={t}; got {train_len}"
        )
    feats = _ridge_features(series, timestamps, h, spec.use_calendar)
    n_fit = train_len - h - t + 1
    mean, scale, w = ridge_fit(feats[:n_fit], sliding_window_view(series, t)[h:h + n_fit],
                               spec.ridge_lambda)
    return [np.clip((feats[origins - h + 1] - mean) / scale @ w[:-1] + w[-1], 0.0, cap)
            for origins in origin_sets]


def rolling_forecast(panel: AssetPanel, bundling: Bundling, task: ForecastTask,
                     specs: dict[str, ModelSpec], split: np.datetime64,
                     shared: RollingForecasts | None = None) -> RollingForecasts:
    """Backtest every hierarchy series with per-level models.

    ``split`` is the first test timestamp: models train on everything
    before it. Forecasts are issued at every origin whose full horizon
    stays inside its range (training range for the in-sample pass, the
    panel for the test pass). Origins with fewer than H prior samples are
    skipped. Each row's in-sample forecasts are reduced to their per-lead
    mean squared error as soon as they exist. A training range without an
    eligible origin raises InsufficientDataError, since the reconciliation
    weights need at least one, and so does a test range without one.

    Each series is fitted once. A row whose series, capacity and model spec
    equal the fleet row's bit for bit (the one bundle of a one-bundle
    bundling) copies the fleet row's forecasts and moments. The fleet and
    asset rows do not depend on the bundling, so with ``shared``, the result
    of an earlier call on the same panel, task, specs and split under
    another bundling, they are copied from it and only the bundle rows are
    forecast. The values are the same bits as without ``shared``.
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
    test_origins = np.arange(max(split_idx, h - 1), panel.n_steps - t)
    if train_origins.size == 0:
        raise InsufficientDataError(
            f"the training range has no origin with {h} samples of history and a full "
            f"{t}-step horizon, so no in-sample error can weight the reconciliation")
    if test_origins.size == 0:
        raise InsufficientDataError(
            f"the test range has no origin with {h} samples of history and a full "
            f"{t}-step horizon, so there is nothing to forecast")

    k = bundling.n_bundles
    level_of_row = ["fleet"] + ["bundle"] * k + ["asset"] * panel.n_assets
    test_values = np.empty((test_origins.shape[0], n_rows, t))
    moments = np.empty((n_rows, t))  # one contiguous row per series, handed on as (T, R)
    rows = range(n_rows)
    if shared is not None:
        if (shared.test.n_assets != panel.n_assets or shared.test.horizon != t
                or not np.array_equal(shared.test.origins, panel.timestamps[test_origins])):
            raise ShapeMismatchError("shared forecasts do not cover this panel's test origins "
                                     "and horizon")
        test_values[:, 0] = shared.test.fleet[:, 0]
        test_values[:, 1 + k:] = shared.test.assets
        moments[0] = shared.second_moment[:, 0]
        moments[1 + k:] = shared.second_moment[:, 1 + shared.test.n_bundles:].T
        rows = range(1, 1 + k)
    fleet_bits = series[0].view(np.int64)
    for r in rows:
        spec = specs[level_of_row[r]]
        if (r > 0 and spec == specs["fleet"] and caps[r] == caps[0]
                and np.array_equal(series[r].view(np.int64), fleet_bits)):
            test_values[:, r], moments[r] = test_values[:, 0], moments[0]
            continue
        test_values[:, r, :], train_pred = _forecast_series(
            series[r], panel.timestamps, (test_origins, train_origins), spec, task,
            split_idx, caps[r])
        err = train_pred - sliding_window_view(series[r], t)[train_origins + 1]
        moments[r] = np.mean(err * err, axis=0)

    test = HierarchyForecast(panel.timestamps[test_origins], test_values,
                             bundling.n_bundles, panel.n_assets)
    return RollingForecasts(test, moments.T)


# --- CSV interface ----------------------------------------------------------------

FORECAST_HEADER = "origin,level,series_id,lead,value"


def _row_keys(n_bundles: int, asset_ids: tuple) -> list[tuple[str, str]]:
    """``(level, series_id)`` of every hierarchy row, in row order."""
    return ([("fleet", "")] + [("bundle", str(k)) for k in range(n_bundles)]
            + [("asset", a) for a in asset_ids])


def _line_suffixes(keys, horizon: int) -> list[str]:
    """The ``,level,series_id,lead,`` text of one origin's lines, in the canonical order."""
    return [f",{level},{sid},{tau}," for level, sid in keys for tau in range(1, horizon + 1)]


def write_forecast_csv(forecast: HierarchyForecast, asset_ids, path) -> None:
    """Write `origin,level,series_id,lead,value` lines (12 significant digits).

    The lines follow the canonical order that :func:`read_forecast_csv`
    requires: origins strictly ascending; within an origin the fleet,
    bundles 0..K-1, then the assets in ``asset_ids`` order; within a row
    leads 1..T. Each origin's values are formatted once per run of bitwise
    equal values in that order (a persistence row is one run), so ``0.0``
    and ``-0.0`` stay distinct. The text around the values is one ``%``
    template per file, with ``%`` in an asset id escaped, and each origin
    block is that template filled by one ``%`` with the origin's stamp and
    the block's value texts.
    """
    asset_ids = tuple(asset_ids)
    if len(asset_ids) != forecast.n_assets:
        raise ShapeMismatchError(
            f"{len(asset_ids)} asset ids for {forecast.n_assets} asset rows"
        )
    if np.any(np.diff(forecast.origins) <= np.timedelta64(0, "s")):
        raise ValueOutOfRangeError("forecast origins are not strictly ascending")
    # one "%s<suffix>%s\n" per line, filled with the origin's stamp and the value's text
    template = "".join("%s" + suffix.replace("%", "%%") + "%s\n" for suffix in
                       _line_suffixes(_row_keys(forecast.n_bundles, asset_ids), forecast.horizon))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORECAST_HEADER + "\n")
        for origin, block in zip(forecast.origins, forecast.values):
            fields = [format_utc_timestamp(origin)] * (2 * block.size)
            fields[1::2] = _value_texts(block)
            fh.write(template % tuple(fields))


def _value_texts(block: np.ndarray) -> list[str]:
    """``FLOAT_FORMAT`` of each value of ``block`` in row-major order, formatting
    each run of bitwise equal values once."""
    flat = block.ravel()
    bits = flat.view(np.int64)
    starts = np.empty(flat.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    distinct = flat[starts].tolist()
    texts = ((_VALUE_FORMAT + "\0") * len(distinct) % tuple(distinct)).split("\0")
    return np.array(texts, dtype=object)[np.cumsum(starts) - 1].tolist()


def read_forecast_csv(path, asset_ids, n_bundles: int) -> HierarchyForecast:
    """Read the forecast CSV that :func:`write_forecast_csv` writes.

    The lines must follow the writer's canonical order: origins strictly
    ascending; within an origin the fleet, bundles 0..K-1, then the assets
    in ``asset_ids`` order; within a row leads 1..T, where T is the number
    of fleet lines the first origin opens with. The file is read one origin
    block of (1 + K + N) * T lines at a time. A line out of that order, a
    malformed or duplicate line, and a file that ends inside a block raise
    FormatError naming ``path:line``. CR-LF line endings read like LF, and
    blank lines may follow the last block but stand nowhere else.
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
        suffixes = _line_suffixes(keys, horizon)
        size = len(suffixes)
        instants, blocks = [], []
        while block := list(islice(lines, size)):
            stamp = block[0].partition(",")[0]
            prefixes = [stamp + suffix for suffix in suffixes]
            try:
                instant = parse_utc_timestamp(stamp)
                ordered = ((not instants or instant > instants[-1]) and len(block) == size
                           and all(map(str.startswith, block, prefixes)))
                values = (np.fromiter(map(float, map(str.removeprefix, block, prefixes)),
                                      np.float64, size) if ordered else None)
            except (FormatError, ValueError):
                values = None
            if values is None or not np.isfinite(values).all():
                if not any(map(str.strip, block)) and not any(map(str.strip, lines)):
                    break  # only blank lines follow the last block
                raise _block_fault(path, 2 + len(instants) * size, block, keys, suffixes,
                                   instants)
            instants.append(instant)
            blocks.append(values)

    if not blocks:
        raise FormatError(f"{path}: no forecast rows")
    values = np.stack(blocks).reshape(len(blocks), len(keys), horizon)
    return HierarchyForecast(np.array(instants, dtype="datetime64[s]"), values,
                             n_bundles, len(asset_ids))


def _block_fault(path, first_ln: int, block: list[str], keys, suffixes: list[str],
                 instants: list) -> FormatError:
    """The error for the first line of ``block`` that is malformed or out of order.

    ``block`` starts at line ``first_ln`` and ``instants`` holds the origins
    of the blocks before it. The first line that does not continue the
    canonical order gets the per-field checks (field count, known series,
    integer lead of at least 1, finite value, parsable origin); a line that
    passes them is a duplicate if its cell was read already, else out of
    order. If every line continues the order, the file ends inside the block.
    """
    stamp = block[0].partition(",")[0]
    try:
        start = parse_utc_timestamp(stamp)
    except FormatError:
        start = None
    for i, line in enumerate(block):
        if i == 0 and (start is None or instants and start <= instants[-1]):
            break
        prefix = stamp + suffixes[i]
        if not line.startswith(prefix):
            break
        try:
            if not math.isfinite(float(line.removeprefix(prefix))):
                break
        except ValueError:
            break
    else:
        return FormatError(
            f"{path}:{first_ln + len(block)}: the file ends inside the block of origin "
            f"{stamp}, after {len(block)} of its {len(suffixes)} lines")

    ln = first_ln + i
    fields = line.strip().split(",")
    if len(fields) != 5:
        return FormatError(f"{path}:{ln}: expected 5 fields, got {len(fields)}")
    origin, level, sid, lead_text, value_text = fields
    if (level, sid) not in keys:
        return FormatError(f"{path}:{ln}: unknown series {(level, sid)}")
    try:
        lead = int(lead_text)
    except ValueError:
        return FormatError(f"{path}:{ln}: lead {lead_text!r} is not an integer")
    if lead < 1:
        return FormatError(f"{path}:{ln}: lead {lead} is below 1")
    try:
        value = float(value_text)
    except ValueError:
        return FormatError(f"{path}:{ln}: value {value_text!r} is not a number")
    if not math.isfinite(value):
        return FormatError(f"{path}:{ln}: value {value_text!r} is not finite")
    try:
        instant = parse_utc_timestamp(origin)
    except FormatError as exc:
        return FormatError(f"{path}:{ln}: {exc}")

    horizon = len(suffixes) // len(keys)
    cell = keys.index((level, sid)) * horizon + lead - 1
    if lead <= horizon and (instant in instants or i > 0 and instant == start and cell < i):
        return FormatError(f"{path}:{ln}: duplicate cell for origin {origin}, {level} "
                           f"{sid!r}, lead {lead}")
    if i > 0:
        expected = repr(stamp + suffixes[i])
    elif instants:
        expected = f"an origin after {format_utc_timestamp(instants[-1])}, then {suffixes[0]!r}"
    else:
        expected = f"an origin, then {suffixes[0]!r}"
    return FormatError(
        f"{path}:{ln}: line out of order: expected {expected}, got {line.strip()!r} "
        f"(origins ascend; each lists the fleet, bundles and assets in order, "
        f"each with leads 1..{horizon})")


MOMENTS_HEADER = "lead,row,second_moment"


def write_moments_csv(second_moment: np.ndarray, path) -> None:
    """Write (horizon, n_rows) residual moments as `lead,row,second_moment` lines.

    Cells go in (lead, row) order and each value is its ``repr``, the
    shortest text that parses back to the same float, so a reader rebuilds
    the exact moments.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MOMENTS_HEADER}\n")
        for tau, values in enumerate(np.asarray(second_moment).tolist(), start=1):
            fh.write("".join(f"{tau},{r},{v!r}\n" for r, v in enumerate(values)))


def read_moments_csv(path, n_rows: int, horizon: int) -> np.ndarray:
    """The (horizon, n_rows) moments written by :func:`write_moments_csv`.

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
