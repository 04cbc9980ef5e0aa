"""Asset panels, geographic distances, and bundling criterion matrices.

A panel is an N x T matrix of historical wind-farm output (MW) together with
per-asset metadata (location, nameplate capacity) and a uniform timestamp
grid. From a panel, three covariance matrices can be built; each one induces
a bundling objective of the form tr(L @ sigma @ L.T) for a binary assignment
matrix L:

* ``variance`` -- empirical covariance of the raw series,
* ``savar``    -- covariance after subtracting the cross-sectional mean
                  series from every asset (seasonal adjustment),
* ``imcy``     -- covariance of the first-differenced series
                  (an intermittency measure).

All covariances use the population convention (divide by the sample count).
Panel objects are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)

EARTH_RADIUS_KM = 6371.0

ASSETS_HEADER = ("asset_id", "latitude_deg", "longitude_deg", "capacity_mw")

# date, optional time and fraction, optional zone: see parse_utc_timestamp
_UTC_STAMP = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2}(?:T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?)?)(Z|\+00:00)?")

SERIES_BLOCK_ROWS = 64  # data lines per np.loadtxt call; one call per file costs memory


@dataclass(frozen=True)
class AssetMeta:
    """Static description of one wind farm."""

    asset_id: str
    latitude_deg: float
    longitude_deg: float
    capacity_mw: float

    def __post_init__(self):
        if not self.asset_id:
            raise FormatError("asset_id must be a non-empty string")
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise FormatError(
                f"asset {self.asset_id!r}: latitude {self.latitude_deg} outside [-90, 90]"
            )
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise FormatError(
                f"asset {self.asset_id!r}: longitude {self.longitude_deg} outside [-180, 180]"
            )
        if not (math.isfinite(self.capacity_mw) and self.capacity_mw > 0.0):
            raise ValueOutOfRangeError(
                f"asset {self.asset_id!r}: capacity_mw must be finite and > 0, "
                f"got {self.capacity_mw}"
            )


def parse_utc_timestamp(text: str) -> np.datetime64:
    """Parse an ISO-8601 UTC instant like ``2019-01-08T00:00:00Z`` to the second.

    The one grammar, around optional whitespace, is ``YYYY-MM-DD`` or that date
    plus ``THH:MM:SS`` with an optional all-zero fraction, then ``Z`` or
    ``+00:00``; a date alone is its midnight. Any other text raises
    FormatError: no zone is not explicit UTC, a nonzero fraction is not a
    whole second, and everything else (``nowZ``, ``NaTZ``, another offset, a
    month 13) is unparsable, so no stamp reads as the wall clock, as no time
    or as a shifted instant.
    """
    match = _UTC_STAMP.fullmatch(text.strip())
    if match is None:
        raise FormatError(f"unparsable timestamp {text!r}")
    stamp, fraction, zone = match.groups()
    if zone is None:
        raise FormatError(f"timestamp {text!r} is not explicit UTC (expected trailing 'Z')")
    if fraction and fraction.strip(".0"):
        raise FormatError(f"timestamp {text!r} is not a whole second")
    try:  # numpy reads a fraction of more than 18 digits as a time zone, so it gets none
        return np.datetime64(stamp[:19], "s")
    except ValueError as exc:
        raise FormatError(f"unparsable timestamp {text!r}") from exc


def format_utc_timestamp(ts: np.datetime64) -> str:
    return str(np.datetime_as_string(ts, unit="s")) + "Z"


@dataclass(frozen=True)
class AssetPanel:
    """Immutable N x T panel of asset output with uniform timestamps.

    Attributes:
        assets: per-asset metadata; its order defines the row order of
            ``values`` and every derived matrix.
        timestamps: strictly increasing ``datetime64[s]`` grid with a
            constant step, length T.
        values: (N, T) float array of MW, within [0, capacity] per asset.

    Both arrays are stored as read-only views, so the arrays the panel was
    built from stay writeable.
    """

    assets: tuple[AssetMeta, ...]
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]").view()
        vals = np.asarray(self.values, dtype=np.float64).view()
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FormatError(f"duplicate asset ids: {dupes}")
        if vals.ndim != 2 or vals.shape != (len(ids), ts.shape[0]):
            raise ShapeMismatchError(
                f"values shape {vals.shape} does not match "
                f"{len(ids)} assets x {ts.shape[0]} timestamps"
            )
        if ts.shape[0] < 2:
            raise FormatError("panel needs at least two timestamps")
        steps = np.diff(ts)
        if np.any(steps <= np.timedelta64(0, "s")):
            raise FormatError("timestamps are not strictly increasing")
        if np.any(steps != steps[0]):
            bad = int(np.nonzero(steps != steps[0])[0][0])
            raise FormatError(
                f"non-uniform step at {format_utc_timestamp(ts[bad + 1])} "
                f"(expected {steps[0]}, got {steps[bad]})"
            )
        finite = np.isfinite(vals)
        if not finite.all():
            i, t = map(int, next(zip(*np.nonzero(~finite))))
            raise ValueOutOfRangeError(
                f"value {vals[i, t]} for asset {ids[i]!r} at "
                f"{format_utc_timestamp(ts[t])} is not finite"
            )
        caps = np.array([a.capacity_mw for a in self.assets])
        low = vals < 0.0
        high = vals > caps[:, None]
        if low.any() or high.any():
            i, t = map(int, next(zip(*np.nonzero(low | high))))
            raise ValueOutOfRangeError(
                f"value {vals[i, t]} for asset {ids[i]!r} at "
                f"{format_utc_timestamp(ts[t])} outside [0, {caps[i]}]"
            )
        ts.flags.writeable = False
        vals.flags.writeable = False

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_steps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(a.asset_id for a in self.assets)

    @property
    def capacities(self) -> np.ndarray:
        return np.array([a.capacity_mw for a in self.assets])

    @property
    def fleet_capacity(self) -> float:
        return float(sum(a.capacity_mw for a in self.assets))

    @property
    def step(self) -> np.timedelta64:
        return self.timestamps[1] - self.timestamps[0]

    def index_of(self, ts: np.datetime64) -> int:
        """Index of the first timestamp >= ts."""
        return int(np.searchsorted(self.timestamps, np.datetime64(ts, "s")))

    def window(self, start: np.datetime64, end: np.datetime64) -> "AssetPanel":
        """Sub-panel restricted to timestamps in [start, end]."""
        lo = self.index_of(start)
        hi = int(np.searchsorted(self.timestamps, np.datetime64(end, "s"), side="right"))
        if hi - lo < 2:
            raise FormatError(
                f"window [{format_utc_timestamp(np.datetime64(start, 's'))}, "
                f"{format_utc_timestamp(np.datetime64(end, 's'))}] covers "
                f"{hi - lo} timestamps"
            )
        return AssetPanel(self.assets, self.timestamps[lo:hi].copy(), self.values[:, lo:hi].copy())


def _csv_rows(fh, where: str):
    """``(line, row)`` for each non-blank row of an open CSV file.

    ``line`` is the physical line the row ends on, so it counts the blank
    lines that are skipped. A line the csv module rejects, such as one with a
    field longer than ``csv.field_size_limit()``, raises FormatError, which
    names that line after ``where``.
    """
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{where}{reader.line_num}: {exc}") from None


def read_assets_csv(path) -> list[AssetMeta]:
    """Read asset metadata (header: asset_id,latitude_deg,longitude_deg,capacity_mw)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh, f"{path}:")
        _, header = next(rows, (0, None))
        if header is None or tuple(h.strip() for h in header) != ASSETS_HEADER:
            raise FormatError(
                f"{path}: expected header {','.join(ASSETS_HEADER)}, "
                f"got {header if header is not None else 'empty file'}"
            )
        assets = []
        for ln, row in rows:
            if len(row) != 4:
                raise FormatError(f"{path}:{ln}: expected 4 fields, got {len(row)}")
            asset_id = row[0].strip()
            # every file that lists the id writes it unquoted: a line break would split
            # its line, a ',' its fields, and a '"' would open a quoted field
            if "\n" in asset_id or "\r" in asset_id:
                raise FormatError(f"{path}:{ln}: asset id {asset_id!r} holds a line break")
            if "," in asset_id or '"' in asset_id:
                raise FormatError(f"{path}:{ln}: asset id {asset_id!r} holds a ',' or '\"'")
            try:
                assets.append(AssetMeta(asset_id, float(row[1]), float(row[2]), float(row[3])))
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: {exc}") from exc
            except (FormatError, ValueOutOfRangeError) as exc:
                raise type(exc)(f"{path}:{ln}: {exc}") from exc
    return assets


def ingest_panel(assets_file, series_file) -> AssetPanel:
    """Load and validate a panel from an assets CSV and a wide series CSV.

    The series file column order defines the panel's asset ordering. Ingest
    rejects (rather than repairs) duplicate ids, asset sets that disagree
    between the two files, timestamp gaps, and values outside [0, capacity].
    Errors name the physical line of the series file, blank lines included.

    The data lines are parsed by ``np.loadtxt`` in blocks of
    ``SERIES_BLOCK_ROWS``. If a block raises, warns or comes back in another
    shape, or a stamp does not parse, the file is read again by the row loop,
    which is the one source of error messages and line numbers and returns
    the same panel bit for bit wherever both accept a file.
    """
    assets = read_assets_csv(assets_file)
    by_id: dict[str, AssetMeta] = {}
    for a in assets:
        if a.asset_id in by_id:
            raise FormatError(f"duplicate asset id {a.asset_id!r} in {assets_file}")
        by_id[a.asset_id] = a

    with open(series_file, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh, f"{series_file} row ")
        _, header = next(rows, (0, None))
        if not header or header[0].strip() != "timestamp":
            raise FormatError(f"{series_file}: first header column must be 'timestamp'")
        series_ids = [c.strip() for c in header[1:]]
        if len(set(series_ids)) != len(series_ids):
            raise FormatError(f"duplicate series columns in {series_file}")
        known = set(series_ids)
        missing = [i for i in by_id if i not in known]
        if missing:
            raise FormatError(f"assets missing from series file: {missing}")
        unknown = [i for i in series_ids if i not in by_id]
        if unknown:
            raise FormatError(f"series columns without metadata: {unknown}")

        parsed = _parse_blocks(fh, len(series_ids))
        if parsed is None:
            fh.seek(0)
            rows = _csv_rows(fh, f"{series_file} row ")
            next(rows)  # the header, checked above
            parsed = _parse_rows(series_file, rows, series_ids)

    timestamps, values = parsed
    return AssetPanel(tuple(by_id[i] for i in series_ids), timestamps, values)


_BLANK_LINES = ("\n", "\r\n", "\r")  # the lines the csv module reads as no row


def _parse_blocks(lines, n_series: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(timestamps, values)`` of the series file's data lines, or None.

    ``lines`` is the open file after its header. Each block of non-blank
    lines is one ``np.loadtxt`` call, with the csv module's quote character
    and a converter that keeps each row's stamp text. None means the row loop
    must read the file: loadtxt raised or warned (an empty body warns), a
    block's shape is not (lines, 1 + n_series), a stamp does not parse, or a
    line is longer than the csv module's field size limit, which loadtxt
    does not enforce.
    """
    stamps, blocks = [], []

    def collect(text):
        stamps.append(text)
        return 0.0

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for block in _line_blocks(lines):
                table = np.loadtxt(block, delimiter=",", comments=None, quotechar='"',
                                   converters={0: collect}, ndmin=2)
                if table.shape != (len(block), 1 + n_series):
                    return None
                blocks.append(np.ascontiguousarray(table[:, 1:].T))
        timestamps = np.array([parse_utc_timestamp(s) for s in stamps], dtype="datetime64[s]")
    except (ValueError, FormatError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    values = np.concatenate(blocks, axis=1) if blocks else np.empty((n_series, 0))
    return (timestamps, values) if timestamps.shape[0] == values.shape[1] else None


def _line_blocks(lines):
    """Lists of up to ``SERIES_BLOCK_ROWS`` non-blank lines, in file order."""
    limit = csv.field_size_limit()
    block = []
    for line in lines:
        if line in _BLANK_LINES:
            continue
        if len(line) > limit:
            raise ValueError(f"a line longer than the csv field size limit ({limit})")
        block.append(line)
        if len(block) == SERIES_BLOCK_ROWS:
            yield block
            block = []
    if block:
        yield block


def _parse_rows(series_file, rows, series_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(timestamps, values)`` of the csv rows after the header, one row at a time.

    Raises for the first bad row, naming its physical line.
    """
    n_cols = len(series_ids) + 1
    timestamps, columns = [], []
    for ln, row in rows:
        if len(row) != n_cols:
            raise FormatError(
                f"{series_file} row {ln}: expected {n_cols} fields, got {len(row)}")
        try:
            timestamps.append(parse_utc_timestamp(row[0]))
        except FormatError as exc:
            raise FormatError(f"{series_file} row {ln}: {exc}") from None
        try:
            cells = list(map(float, row[1:]))
        except ValueError:
            cells = _parse_cells(series_file, ln, row[1:], series_ids)
        columns.append(np.array(cells))
    values = (np.stack(columns, axis=1) if columns
              else np.empty((len(series_ids), 0)))
    return np.array(timestamps, dtype="datetime64[s]"), values


def _parse_cells(series_file, ln: int, cells: list[str], series_ids: list[str]) -> list[float]:
    """Parse one series row cell by cell, raising for its first empty or unparsable cell.

    Used only on a row that ``map(float, ...)`` rejects. Each cell is
    stripped before ``float``: ``str.strip`` also removes U+001C..U+001F,
    which ``float`` alone rejects, so a cell padded with them still parses.
    """
    values = []
    for sid, cell in zip(series_ids, cells):
        cell = cell.strip()
        if not cell:
            raise ValueOutOfRangeError(f"{series_file} row {ln}: missing value for {sid!r}")
        try:
            values.append(float(cell))
        except ValueError as exc:
            raise FormatError(f"{series_file} row {ln}: unparsable value {cell!r}") from exc
    return values


def write_panel_csv(panel: AssetPanel, assets_file, series_file) -> None:
    """Write a panel back to the two-file CSV format used by ingest.

    Coordinates and values are written at 6 decimals, capacities at 4. A
    capacity whose ``%.4f`` text parses below it is written as the next
    4-decimal step up, so every value's text reads back within its capacity
    and a capacity below 0.00005 does not read back as 0. Each series line
    is one ``%`` of a template built once per call, ``"%sZ"`` and one
    ``",%.6f"`` per asset; the asset ids go only into the header, so a ``%``
    in an id never reaches the template.
    """
    with open(assets_file, "w", encoding="utf-8") as fh:
        fh.write(",".join(ASSETS_HEADER) + "\n")
        for a in panel.assets:
            fh.write(f"{a.asset_id},{a.latitude_deg:.6f},{a.longitude_deg:.6f},"
                     f"{_capacity_text(a.capacity_mw)}\n")
    with open(series_file, "w", encoding="utf-8") as fh:
        fh.write("timestamp," + ",".join(panel.asset_ids) + "\n")
        line = "%sZ" + ",%.6f" * panel.n_assets + "\n"
        stamps = np.datetime_as_string(panel.timestamps, unit="s").tolist()
        # one time step at a time: a whole-panel tolist() would hold N*T Python floats
        for stamp, column in zip(stamps, panel.values.T):
            fh.write(line % (stamp, *column.tolist()))


def _capacity_text(capacity: float) -> str:
    """``capacity`` at 4 decimals, one step up where ``%.4f`` parses below it."""
    text = "%.4f" % capacity
    if float(text) < capacity:
        steps = int(text.replace(".", "")) + 1  # in units of 0.0001
        text = "%d.%04d" % divmod(steps, 10000)
    return text


# --- geographic distances ---------------------------------------------------

def haversine_matrix(assets) -> np.ndarray:
    """Great-circle distance matrix in km (spherical Earth, R=6371.0).

    Symmetric with a zero diagonal; permutation-equivariant in the asset
    ordering. With half-differences dlat, dlon and latitudes lat_i, lat_j,
    entry (i, j) is 2R arcsin(sqrt(clip(h, 0, 1))), where
    h = sin(dlat)^2 + (cos(lat_i) cos(lat_j)) sin(dlon)^2. The (N, N)
    terms are built in place, so at most three such arrays exist at once.
    """
    lat = np.radians([a.latitude_deg for a in assets])
    lon = np.radians([a.longitude_deg for a in assets])
    d = _half_difference_sin_squared(lat)
    term = _half_difference_sin_squared(lon)
    cos_lat = np.cos(lat)
    weights = np.multiply.outer(cos_lat, cos_lat)
    weights *= term
    d += weights
    np.clip(d, 0.0, 1.0, out=d)
    np.sqrt(d, out=d)
    np.arcsin(d, out=d)
    d *= 2.0 * EARTH_RADIUS_KM
    np.fill_diagonal(d, 0.0)
    return d


def _half_difference_sin_squared(angles: np.ndarray) -> np.ndarray:
    """sin(0.5 * (a_i - a_j)) ** 2 for every pair, as a new (N, N) array."""
    out = np.subtract.outer(angles, angles)
    out *= 0.5
    np.sin(out, out=out)
    return np.square(out, out=out)


# --- criterion covariance matrices ------------------------------------------

class Criterion(str, Enum):
    """Which covariance matrix drives the bundling objective."""

    VARIANCE = "variance"
    SAVAR = "savar"
    IMCY = "imcy"


def seasonal_adjust(values: np.ndarray) -> np.ndarray:
    """Subtract the cross-sectional mean series from every row."""
    values = np.asarray(values, dtype=np.float64)
    return values - values.mean(axis=0, keepdims=True)


def difference(values: np.ndarray) -> np.ndarray:
    """First difference along time; drops the first sample."""
    return np.diff(np.asarray(values, dtype=np.float64), axis=1)


def covariance(panel: AssetPanel, kind: Criterion | str) -> np.ndarray:
    """Build the criterion covariance matrix of a panel.

    Returns a read-only, symmetric PSD float64 (N, N) array in the panel's
    asset order. Requires T >= 3 (T >= 4 for ``imcy``, since differencing
    drops one sample). The (N, T) rows -- the panel values copied, seasonally
    adjusted or differenced -- are a fresh array, centred in place; their
    covariance divides by T and is symmetrized in place as 0.5 * (sigma +
    sigma.T), for which numpy copies the transposed operand.
    """
    kind = Criterion(kind)
    min_steps = 4 if kind is Criterion.IMCY else 3
    if panel.n_steps < min_steps:
        raise InsufficientDataError(
            f"{kind.value} covariance needs at least {min_steps} steps, panel has {panel.n_steps}"
        )
    rows = {Criterion.VARIANCE: np.array, Criterion.SAVAR: seasonal_adjust,
            Criterion.IMCY: difference}[kind](panel.values)
    rows -= rows.mean(axis=1, keepdims=True)
    sigma = rows @ rows.T
    sigma /= rows.shape[1]
    np.add(sigma, sigma.T, out=sigma)
    sigma *= 0.5
    sigma.flags.writeable = False
    return sigma
