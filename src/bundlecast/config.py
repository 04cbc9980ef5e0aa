"""Flat key-value config files for the pipeline commands.

The format is `key = value` lines (configparser syntax; a section header is
optional and ignored). Every key is mandatory except ``diameters``, which
only the sweep command reads. Keeping the schema rigid is deliberate: runs
must be reproducible from the config file alone, so nothing is defaulted
silently.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import parse_utc_timestamp
from .errors import ConfigError, ValueOutOfRangeError
from .forecast import LEVELS, ForecastTask, ModelSpec
from .synth import SynthConfig

_TASKS = ("short_term", "day_ahead")
_CRITERIA = ("variance", "savar", "imcy", "kmeans")
_MODELS = ("persistence", "ridge")
_TRUE = ("true", "yes", "1", "on")
_FALSE = ("false", "no", "0", "off")


def _read_flat(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if not text.lstrip().startswith("["):
        text = "[config]\n" + text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    merged: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in merged:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            merged[key] = value.strip()
    return merged


class _Fields:
    """Typed accessors over the raw key-value map with mandatory keys."""

    def __init__(self, raw: dict[str, str], path):
        self.raw = raw
        self.path = path
        self.seen: set[str] = set()

    def _get(self, key: str) -> str:
        if key not in self.raw:
            raise ConfigError(f"{self.path}: missing mandatory key {key!r}")
        self.seen.add(key)
        return self.raw[key]

    def text(self, key: str, choices=None) -> str:
        value = self._get(key)
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.path}: {key} must be one of {choices}, got {value!r}")
        return value

    def integer(self, key: str) -> int:
        try:
            return int(self._get(key))
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {key} must be an integer") from exc

    def real(self, key: str) -> float:
        value = self._get(key)
        if value.lower() in ("inf", "unbounded"):
            return math.inf
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {key} must be a number") from exc

    def flag(self, key: str) -> bool:
        value = self._get(key).lower()
        if value in _TRUE:
            return True
        if value in _FALSE:
            return False
        raise ConfigError(f"{self.path}: {key} must be a boolean, got {value!r}")

    def timestamp(self, key: str) -> np.datetime64:
        try:
            return parse_utc_timestamp(self._get(key))
        except Exception as exc:
            raise ConfigError(f"{self.path}: {key}: {exc}") from exc

    def reals(self, key: str) -> tuple[float, ...]:
        value = self._get(key)
        try:
            return tuple(float(tok) for tok in value.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {key} must be comma-separated numbers") from exc

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            raise ConfigError(f"{self.path}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on, paths included."""

    path: str   # the config file itself: hashed into the manifest, named in errors
    forecast_task: ForecastTask
    n_bundles: int
    criterion: str
    diameter_km: float
    specs: dict[str, ModelSpec]
    train_start: np.datetime64
    train_end: np.datetime64
    test_start: np.datetime64
    test_end: np.datetime64
    seed: int
    assets_file: str
    series_file: str
    output_dir: str
    baseline: bool
    diameters: tuple[float, ...] | None = None


def load_run_config(path) -> RunConfig:
    fields = _Fields(_read_flat(path), path)
    specs = {}
    for level in LEVELS:
        key = f"{level}_ridge_lambda"
        model = fields.text(f"{level}_model", choices=_MODELS)
        ridge_lambda = fields.real(key)
        if not 0.0 <= ridge_lambda < math.inf:
            raise ConfigError(f"{path}: {key} must be finite and >= 0, got {fields.raw[key]!r}")
        specs[level] = ModelSpec(model, ridge_lambda,
                                 fields.flag(f"{level}_use_calendar_encodings"))
    fields.text("task", choices=_TASKS)  # mandatory and checked, though nothing reads it
    try:
        task = ForecastTask(fields.integer("history_len"), fields.integer("horizon"),
                            fields.integer("granularity_minutes"))
    except ValueOutOfRangeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = RunConfig(
        path=str(path),
        forecast_task=task,
        n_bundles=fields.integer("n_bundles"),
        criterion=fields.text("criterion", choices=_CRITERIA),
        diameter_km=fields.real("diameter_km"),
        specs=specs,
        train_start=fields.timestamp("train_start"),
        train_end=fields.timestamp("train_end"),
        test_start=fields.timestamp("test_start"),
        test_end=fields.timestamp("test_end"),
        seed=fields.integer("seed"),
        assets_file=fields.text("assets_file"),
        series_file=fields.text("series_file"),
        output_dir=fields.text("output_dir"),
        baseline=fields.flag("baseline"),
        diameters=fields.reals("diameters") if "diameters" in fields.raw else None,
    )
    fields.reject_unknown()

    if cfg.n_bundles < 1:
        raise ConfigError(f"{path}: n_bundles must be >= 1")
    if not cfg.diameter_km > 0.0:
        raise ConfigError(f"{path}: diameter_km must be positive (or 'unbounded')")
    if cfg.seed < 0:
        raise ConfigError(f"{path}: seed must be a non-negative integer")
    if not (cfg.train_start < cfg.train_end < cfg.test_start < cfg.test_end):
        raise ConfigError(
            f"{path}: need train_start < train_end < test_start < test_end"
        )
    if cfg.diameters is not None:
        if not cfg.diameters:
            raise ConfigError(f"{path}: diameters must list at least one diameter")
        if any(not d > 0.0 for d in cfg.diameters):
            raise ConfigError(f"{path}: diameters must be positive")
        if any(b < a for a, b in zip(cfg.diameters, cfg.diameters[1:])):
            raise ConfigError(f"{path}: diameters must be ascending")
    return cfg


def load_synth_config(path) -> tuple[SynthConfig, str, str]:
    """Parse a generator config; returns (config, assets_file, series_file)."""
    fields = _Fields(_read_flat(path), path)
    cfg = SynthConfig(
        n_assets=fields.integer("n_assets"),
        n_steps=fields.integer("n_steps"),
        granularity_minutes=fields.integer("granularity_minutes"),
        seed=fields.integer("seed"),
        n_regions=fields.integer("n_regions"),
        ar_coefficient=fields.real("ar_coefficient"),
        seasonal_amplitude=fields.real("seasonal_amplitude"),
        noise_scale=fields.real("noise_scale"),
        anticorrelated_pairs=fields.integer("anticorrelated_pairs"),
        start=fields.text("start"),
    )
    assets_file = fields.text("assets_file")
    series_file = fields.text("series_file")
    fields.reject_unknown()
    return cfg, assets_file, series_file
