"""The run directory's layout: each file's name and the stage that writes it,
the writers that only serialize, and one loader for each of the three files a
stage command reads (the bundling, the raw arrays and the reconciled
forecasts). The raw test forecasts and residual moments are saved with their
exact bits as ``forecasts_raw.npz``, so the reconcile command reconciles the
bits ``run`` does. The CSV codecs of the bundling and of the forecasts stay in
``bundling.py`` and ``forecast.py``, where the benchmark binds them.
"""

from __future__ import annotations

import hashlib
import json
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .bundling import Bundling, read_bundling_csv
from .config import RunConfig
from .core import AssetPanel
from .errors import ConfigError, FormatError, ShapeMismatchError
from .forecast import (FLOAT_FORMAT, LEVELS, HierarchyForecast, RollingForecasts,
                       forecast_origins, read_forecast_csv)
from .metrics import EvaluationReport

BUNDLING_FILE = "bundling.csv"
FORECAST_TEST_FILE = "forecasts_raw.csv"
MOMENTS_FILE = "residual_moments.csv"
FORECAST_ARRAYS_FILE = "forecasts_raw.npz"
RECONCILED_FILE = "forecasts_reconciled.csv"
REPORT_FILE = "evaluation.csv"
REPORT_RAW_FILE = "evaluation_raw.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
COMPARISON_FILE = "comparison.csv"
MANIFEST_FILE = "manifest.json"
SWEEP_FILE = "sweep.csv"

# the stage that writes each file; run's baseline pass adds "baseline_" twins
PRODUCER = {
    MANIFEST_FILE: "ingest", BUNDLING_FILE: "bundle", SWEEP_FILE: "bundle",
    FORECAST_TEST_FILE: "forecast", MOMENTS_FILE: "forecast", FORECAST_ARRAYS_FILE: "forecast",
    REPORT_RAW_FILE: "forecast", RECONCILED_FILE: "reconcile", DIAGNOSTICS_FILE: "reconcile",
    REPORT_FILE: "evaluate", COMPARISON_FILE: "evaluate",
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(config: RunConfig, out_dir: Path) -> None:
    manifest = {
        "package": "bundlecast",
        "version": __version__,
        "config_sha256": _sha256(config.path),
        "assets_sha256": _sha256(config.assets_file),
        "series_sha256": _sha256(config.series_file),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / MANIFEST_FILE).write_text(text, encoding="utf-8")


def write_comparison(bundled, baseline, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,metric,bundled,baseline\n")
        for level in LEVELS:
            for name in ("nmae", "rmse", "ed", "vs"):
                b, k1 = getattr(bundled[level], name), getattr(baseline[level], name)
                if b is not None and k1 is not None:
                    fh.write(f"{level},{name},{FLOAT_FORMAT % b},{FLOAT_FORMAT % k1}\n")


def write_report_csv(reports: dict[str, EvaluationReport], path) -> None:
    """Write `level,metric,value,M,series_id` rows, fleet/bundle/asset order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,metric,value,M,series_id\n")
        for level in LEVELS:
            rep = reports[level]
            rows = [("nmae", rep.nmae), ("rmse", rep.rmse), ("ed", rep.ed)]
            if rep.vs is not None:
                rows.append(("vs", rep.vs))
            for name, value in rows:
                fh.write(f"{level},{name},{FLOAT_FORMAT % value},{rep.n_origins},\n")


def write_diagnostics_csv(second_moment, variances, path, bound_violations) -> None:
    """Per-lead weight ratio, floored weights (moment below variance), and range violations."""
    v = np.asarray(variances)
    ratio = v.max(axis=1) / v.min(axis=1)
    n_floored = (np.asarray(second_moment) < v).sum(axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lead,weight_ratio,n_floored_weights,n_bound_violations\n")
        for tau in range(v.shape[0]):
            fh.write(f"{tau + 1},{ratio[tau]:.6e},"
                     f"{int(n_floored[tau])},{int(bound_violations[tau])}\n")


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
            # ends, so it checks no checksum if an edited header ends it early;
            # testzip also names an entry whose local header does not open
            damaged = archive.testzip()
            if damaged is not None:
                raise FormatError(f"{path}: {damaged} is damaged (its checksum or its "
                                  f"local header does not match)")
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


def _existing(out: Path, name: str) -> Path:
    path = out / name
    if not path.exists():
        raise ConfigError(f"{path} not found; run the '{PRODUCER[name]}' stage first")
    return path


def _check_test_range(config: RunConfig, panel: AssetPanel, path: Path, forecast) -> None:
    """``forecast`` must hold the config's horizon at the forecast stage's test origins."""
    horizon = config.forecast_task.horizon
    if forecast.horizon != horizon:
        raise ShapeMismatchError(f"{path}: {forecast.horizon} leads, but the "
                                 f"config's horizon is {horizon}")
    origins = panel.timestamps[forecast_origins(panel, config.forecast_task, config.test_start)]
    if not np.array_equal(forecast.origins, origins):
        raise ShapeMismatchError(f"{path}: {forecast.n_origins} origins, but not the "
                                 f"{origins.size} test origins of the config")


def load_bundling(config: RunConfig, out: Path, panel: AssetPanel) -> Bundling:
    """The bundle stage's bundling, which must have the config's ``n_bundles``."""
    path = _existing(out, BUNDLING_FILE)
    bundling = read_bundling_csv(path, panel.asset_ids)
    if bundling.n_bundles != config.n_bundles:
        raise ShapeMismatchError(f"{path}: {bundling.n_bundles} bundles, but "
                                 f"the config's n_bundles is {config.n_bundles}")
    return bundling


def load_forecast_arrays(config: RunConfig, out: Path, panel: AssetPanel) -> RollingForecasts:
    """The forecast stage's exact test forecasts and residual moments."""
    path = _existing(out, FORECAST_ARRAYS_FILE)
    forecasts = read_forecast_arrays(path, config.n_bundles, panel.n_assets)
    _check_test_range(config, panel, path, forecasts.test)
    return forecasts


def load_reconciled(config: RunConfig, out: Path, panel: AssetPanel) -> HierarchyForecast:
    """The reconcile stage's forecasts, as read back from their CSV."""
    path = _existing(out, RECONCILED_FILE)
    reconciled = read_forecast_csv(path, panel.asset_ids, config.n_bundles)
    _check_test_range(config, panel, path, reconciled)
    return reconciled
