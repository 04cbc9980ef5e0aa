"""Hierarchical wind-power forecasting with learned asset bundles.

The pipeline has three stages: group assets into bundles by minimizing a
covariance criterion under a geographic diameter constraint, forecast every
level of the (fleet, bundles, assets) hierarchy, and reconcile the forecasts
into coherent ones with per-lead weighted least squares. A metrics suite
(NMAE, RMSE, variogram score, energy distance) scores each level.
"""

__version__ = "0.1.0"

from .bundling import (
    Bundling,
    check_feasible,
    greedy_merge,
    kmeans_bundle,
    objective,
)
from .core import (
    AssetMeta,
    AssetPanel,
    Criterion,
    covariance,
    difference,
    haversine_matrix,
    ingest_panel,
    seasonal_adjust,
)
from .forecast import (
    ForecastTask,
    HierarchyForecast,
    ModelSpec,
    RollingForecasts,
    hierarchy_actuals,
    hierarchy_capacities,
    hierarchy_series,
    ridge_fit,
    rolling_forecast,
)
from .metrics import (
    EvaluationReport,
    evaluate,
    variogram_score,
)
from .reconcile import (
    ReconcilerModel,
    build_reconciler,
    coherence_gap,
    estimate_weights,
    reconcile,
    summing_matrix,
)
from .synth import SynthConfig, synth_panel, write_synth_csv

__all__ = [
    "__version__",
    "AssetMeta", "AssetPanel", "Criterion",
    "covariance", "difference", "haversine_matrix", "ingest_panel", "seasonal_adjust",
    "Bundling", "check_feasible", "greedy_merge", "kmeans_bundle", "objective",
    "ForecastTask", "HierarchyForecast", "ModelSpec", "RollingForecasts",
    "hierarchy_actuals", "hierarchy_capacities", "hierarchy_series",
    "ridge_fit", "rolling_forecast",
    "EvaluationReport", "evaluate", "variogram_score",
    "ReconcilerModel", "build_reconciler", "coherence_gap", "estimate_weights", "reconcile",
    "summing_matrix",
    "SynthConfig", "synth_panel", "write_synth_csv",
]
