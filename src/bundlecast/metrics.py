"""Forecast verification metrics at the fleet, bundle, and asset levels.

:func:`evaluate` scores each level's (M origins, N series, T leads) block of
actual and forecast values:

* NMAE -- mean absolute error normalized by series capacity, in percent;
* RMSE -- root mean squared error, in MW;
* VS   -- variogram score of order ``VARIOGRAM_ORDER`` = 1/2, which compares all
  pairwise value differences across series and leads and therefore costs
  O(M N^2 T^2); it is computed for the one-series fleet level only;
* ED   -- energy distance: twice the mean Frobenius norm of the per-origin
  error block, in MW.

NMAE, RMSE and ED come from one error block per level: its absolute values
give NMAE, and squaring them in place gives RMSE and ED, so scoring the
asset level holds one (M, N, T) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValueOutOfRangeError
from .forecast import HierarchyForecast


def _blocks(actuals, forecasts) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actuals, dtype=np.float64)
    f = np.asarray(forecasts, dtype=np.float64)
    if a.shape != f.shape:
        raise ShapeMismatchError(f"actuals shape {a.shape} != forecasts shape {f.shape}")
    if a.ndim != 3:
        raise ShapeMismatchError(f"expected (origins, series, leads) blocks, got shape {a.shape}")
    return a, f


VARIOGRAM_ORDER = 0.5


def variogram_score(actuals, forecasts) -> float:
    """Variogram score of order ``VARIOGRAM_ORDER`` over all series/lead pairs, per origin."""
    a, f = _blocks(actuals, forecasts)
    m = a.shape[0]
    total = 0.0
    for t in range(m):
        va = a[t].reshape(-1)
        vf = f[t].reshape(-1)
        da = np.abs(va[:, None] - va[None, :]) ** VARIOGRAM_ORDER
        df = np.abs(vf[:, None] - vf[None, :]) ** VARIOGRAM_ORDER
        total += float(np.square(da - df).sum())
    return total / m


@dataclass(frozen=True)
class EvaluationReport:
    """Metric values for one hierarchy level; ``vs`` is None below the fleet."""

    nmae: float
    rmse: float
    ed: float
    vs: float | None
    n_origins: int


def evaluate(actuals: HierarchyForecast, forecasts: HierarchyForecast,
             capacities) -> dict[str, EvaluationReport]:
    """Score a hierarchy forecast per level against realized values.

    ``capacities`` holds one capacity per hierarchy row (fleet, bundles,
    assets), as ``hierarchy_capacities`` gives them; each must be strictly
    positive. The variogram score is computed at the fleet level only.
    """
    if actuals.values.shape != forecasts.values.shape:
        raise ShapeMismatchError(
            f"actuals shape {actuals.values.shape} != forecasts shape {forecasts.values.shape}"
        )
    if (actuals.n_bundles, actuals.n_assets) != (forecasts.n_bundles, forecasts.n_assets):
        raise ShapeMismatchError("actuals and forecasts disagree on hierarchy layout")
    if not np.array_equal(actuals.origins, forecasts.origins):
        raise ShapeMismatchError("actuals and forecasts are issued at different origins")
    caps = np.asarray(capacities, dtype=np.float64)
    n_rows, k = actuals.values.shape[1], actuals.n_bundles
    if caps.shape != (n_rows,):
        raise ShapeMismatchError(f"{caps.shape} capacities for {n_rows} hierarchy rows")
    if np.any(caps <= 0.0):
        raise ValueOutOfRangeError("capacities must be strictly positive")

    blocks = {
        "fleet": (actuals.fleet, forecasts.fleet, caps[:1]),
        "bundle": (actuals.bundles, forecasts.bundles, caps[1:1 + k]),
        "asset": (actuals.assets, forecasts.assets, caps[1 + k:]),
    }
    return {level: _score_level(a, f, level_caps, with_vs=level == "fleet")
            for level, (a, f, level_caps) in blocks.items()}


def _score_level(a: np.ndarray, f: np.ndarray, caps: np.ndarray,
                 with_vs: bool) -> EvaluationReport:
    """The scores of one level's (M, N, T) blocks, NMAE, RMSE and ED from one error block."""
    m, n, t = a.shape
    err = a - f
    np.abs(err, out=err)
    nmae = float((err.sum(axis=2) / caps[None, :]).sum() / (m * n * t) * 100.0)
    np.square(err, out=err)  # |e|^2 has the bits of e^2
    rmse = float(np.sqrt(err.sum() / (m * n * t)))
    ed = float(2.0 * np.sqrt(err.sum(axis=(1, 2))).sum() / m)
    return EvaluationReport(nmae=nmae, rmse=rmse, ed=ed,
                            vs=variogram_score(a, f) if with_vs else None, n_origins=m)
