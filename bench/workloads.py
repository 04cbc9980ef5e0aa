"""The benchmark's workloads: seeded synthetic inputs and the commands run on them.

Each workload is a generator config (``SynthConfig`` fields without the
seed) plus a run config. The workload seed given on the command line becomes
both the generator seed and the run config's ``seed``, so the program only
ever sees the generated CSV files and the config.

Two sizes exist: ``bench`` is what the benchmark measures, and ``smoke`` is
a toy size (N=12) that runs every workload in a few seconds.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace

START = "2019-01-01T00:00:00Z"
START_SECONDS = 1546300800  # START as seconds since the epoch


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                   # "run", "stages" or "sweep"
    n_assets: int
    n_bundles: int
    n_regions: int
    granularity_minutes: int
    train_days: float
    test_days: float
    task: str
    history_len: int
    horizon: int
    criterion: str
    diameter_km: str
    models: dict                # level -> (model, use_calendar)
    baseline: bool = False
    diameters: str | None = None

    @property
    def commands(self) -> tuple[str, ...]:
        return {"run": ("run",), "sweep": ("sweep",),
                "stages": ("bundle", "forecast", "reconcile", "evaluate")}[self.kind]

    @property
    def n_steps(self) -> int:
        return round((self.train_days + self.test_days) * 1440 / self.granularity_minutes)

    def synth_config(self, seed: int) -> dict:
        """Keyword arguments for ``bundlecast.synth.SynthConfig``."""
        return dict(n_assets=self.n_assets, n_steps=self.n_steps,
                    granularity_minutes=self.granularity_minutes, seed=seed,
                    n_regions=self.n_regions, ar_coefficient=0.97,
                    seasonal_amplitude=0.8, noise_scale=0.5,
                    anticorrelated_pairs=min(4, self.n_assets // 4), start=START)

    def run_config(self, seed: int) -> str:
        """Run config text; input paths are relative to the inputs directory."""
        step = self.granularity_minutes * 60
        split = START_SECONDS + round(self.train_days * 86400)
        end = split + round(self.test_days * 86400)
        lines = [
            f"task = {self.task}",
            f"history_len = {self.history_len}",
            f"horizon = {self.horizon}",
            f"granularity_minutes = {self.granularity_minutes}",
            f"n_bundles = {self.n_bundles}",
            f"criterion = {self.criterion}",
            f"diameter_km = {self.diameter_km}",
        ]
        for level in ("fleet", "bundle", "asset"):
            model, calendar = self.models[level]
            lines += [f"{level}_model = {model}",
                      f"{level}_ridge_lambda = 1.0",
                      f"{level}_use_calendar_encodings = {str(calendar).lower()}"]
        lines += [
            f"train_start = {_utc(START_SECONDS)}",
            f"train_end = {_utc(split - step)}",
            f"test_start = {_utc(split)}",
            f"test_end = {_utc(end - step)}",
            f"seed = {seed}",
            "assets_file = assets.csv",
            "series_file = series.csv",
            "output_dir = out",
            f"baseline = {str(self.baseline).lower()}",
        ]
        if self.diameters is not None:
            lines.append(f"diameters = {self.diameters}")
        return "\n".join(lines) + "\n"


def _utc(seconds: int) -> str:
    stamp = dt.datetime.fromtimestamp(seconds, tz=dt.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


RIDGE = ("ridge", True)
PERSISTENCE = ("persistence", False)

WORKLOADS = (
    Workload(
        name="backtest_n200",
        why="ridge at every level plus the K=1 baseline pass: forecasting and CSV writes "
            "do most of the work",
        kind="run", n_assets=200, n_bundles=20, n_regions=4, granularity_minutes=60,
        train_days=16, test_days=3, task="day_ahead", history_len=72, horizon=48,
        criterion="savar", diameter_km="unbounded",
        models={"fleet": RIDGE, "bundle": RIDGE, "asset": RIDGE}, baseline=True),
    Workload(
        name="fleet_n500",
        why="N=500 with persistence only: bundling and the dense reconciler do most of "
            "the work, and reconciliation must be the identity",
        kind="run", n_assets=500, n_bundles=50, n_regions=9, granularity_minutes=15,
        train_days=4, test_days=0.5, task="short_term", history_len=48, horizon=24,
        criterion="imcy", diameter_km="300",
        models={"fleet": PERSISTENCE, "bundle": PERSISTENCE, "asset": PERSISTENCE}),
    Workload(
        name="stages_n200",
        why="the four stage commands hand CSV files to each other: the only workload "
            "that reads forecast CSVs back",
        kind="stages", n_assets=200, n_bundles=20, n_regions=4, granularity_minutes=15,
        train_days=2, test_days=0.5, task="short_term", history_len=48, horizon=24,
        criterion="savar", diameter_km="unbounded",
        models={"fleet": RIDGE, "bundle": RIDGE, "asset": PERSISTENCE}),
    Workload(
        name="sweep_n500",
        why="six greedy merges at N=500 and no forecast, reconcile or CSV work: the "
            "greedy does most of the work",
        kind="sweep", n_assets=500, n_bundles=50, n_regions=9, granularity_minutes=15,
        train_days=4, test_days=0.5, task="short_term", history_len=48, horizon=24,
        criterion="imcy", diameter_km="300",
        models={"fleet": PERSISTENCE, "bundle": PERSISTENCE, "asset": PERSISTENCE},
        diameters="150,300,1200"),
)

_SMOKE = dict(n_assets=12, n_bundles=3, n_regions=3)
_SMOKE_DAYS = {"backtest_n200": dict(train_days=6, test_days=3),
               "fleet_n500": dict(train_days=2, test_days=1),
               "stages_n200": dict(train_days=2, test_days=1),
               "sweep_n500": dict(train_days=2, test_days=1)}

SIZES = {
    "bench": {w.name: w for w in WORKLOADS},
    "smoke": {w.name: replace(w, **_SMOKE, **_SMOKE_DAYS[w.name]) for w in WORKLOADS},
}

NAMES = tuple(w.name for w in WORKLOADS)
