"""Partition assets into bundles by minimizing a covariance quadratic form.

The bundling objective is tr(L @ sigma @ L.T) where L is a K x N binary
assignment matrix (one bundle per row, each asset in exactly one bundle) and
sigma is one of the criterion covariance matrices from :mod:`bundlecast.core`.
A diameter constraint forbids placing two assets in the same bundle when
their great-circle distance exceeds a cutoff.

Solvers:

* :func:`greedy_merge` -- agglomerative descent that starts from singletons
  and repeatedly merges the pair of bundles with the most negative
  inter-bundle covariance among diameter-feasible pairs. Merging the argmin
  pair is the steepest single-merge descent: merging bundles k and l changes
  the objective by exactly ``2 * lam_k @ sigma @ lam_l``. Each bundle keeps
  its nearest feasible neighbour cached, so a merge rescans only the rows
  it touched (nearest-neighbour bookkeeping as in Muellner 2011, "Modern
  hierarchical, agglomerative clustering algorithms", arXiv:1109.2378).
* :func:`exact_partition` -- exhaustive enumeration of set partitions into
  exactly K non-empty parts, guarded to N <= 12. Used as the optimality
  oracle for the greedy.
* :func:`kmeans_bundle` -- geographic baseline; Lloyd's algorithm on
  (lat, lon) degrees with deterministic k-means++ seeding. It ignores the
  diameter constraint; :func:`check_feasible` lists the pairs it breaks.

The two covariance solvers take sigma as an (N, N) array, such as
:func:`bundlecast.core.covariance` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AssetPanel, Criterion, covariance
from .errors import (
    FormatError,
    InfeasibleMergeError,
    InfeasiblePartitionError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)

EXACT_MAX_ASSETS = 12
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class Bundling:
    """A K x N binary assignment of assets to bundles.

    Invariants: every column sums to exactly 1 (each asset in one bundle)
    and every row sums to >= 1 (no empty bundle). Rows are conventionally
    ordered by smallest member index; the solvers always emit that order.
    ``assignment`` is stored as a read-only view; the caller's array stays
    writeable.
    """

    assignment: np.ndarray
    asset_order: tuple[str, ...]

    def __post_init__(self):
        lam = np.asarray(self.assignment, dtype=np.float64).view()
        object.__setattr__(self, "assignment", lam)
        object.__setattr__(self, "asset_order", tuple(self.asset_order))
        if lam.ndim != 2:
            raise ShapeMismatchError(f"assignment must be 2-D, got shape {lam.shape}")
        if lam.shape[1] != len(self.asset_order):
            raise ShapeMismatchError(
                f"assignment has {lam.shape[1]} columns for {len(self.asset_order)} assets"
            )
        if not np.all((lam == 0.0) | (lam == 1.0)):
            raise ShapeMismatchError("assignment entries must be 0 or 1")
        if not np.all(lam.sum(axis=0) == 1.0):
            raise ShapeMismatchError("each asset must belong to exactly one bundle")
        if not np.all(lam.sum(axis=1) >= 1.0):
            raise ShapeMismatchError("each bundle must be non-empty")
        lam.flags.writeable = False

    @classmethod
    def from_labels(cls, labels, n_bundles: int, asset_order) -> "Bundling":
        """Build from a length-N label vector with values in 0..K-1."""
        labels = np.asarray(labels, dtype=np.int64)
        lam = np.zeros((n_bundles, labels.shape[0]))
        lam[labels, np.arange(labels.shape[0])] = 1.0
        return cls(lam, tuple(asset_order))

    @classmethod
    def from_members(cls, members, asset_order) -> "Bundling":
        """Build from a list of member-index lists (one list per bundle)."""
        n = len(asset_order)
        lam = np.zeros((len(members), n))
        for k, idx in enumerate(members):
            lam[k, list(idx)] = 1.0
        return cls(lam, tuple(asset_order))

    @classmethod
    def single_bundle(cls, asset_order) -> "Bundling":
        return cls(np.ones((1, len(asset_order))), tuple(asset_order))

    @property
    def n_bundles(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def n_assets(self) -> int:
        return int(self.assignment.shape[1])

    @property
    def labels(self) -> np.ndarray:
        return self.assignment.argmax(axis=0)

    def members(self, k: int) -> np.ndarray:
        return np.nonzero(self.assignment[k] == 1.0)[0]

    def aggregate(self, values, axis: int = 0) -> np.ndarray:
        """The 1+K upper hierarchy rows of ``values`` along its asset axis.

        ``values`` holds the N assets along ``axis``; the result holds the
        fleet total there, then each bundle's member sum. One
        ``np.add.reduceat`` sums a gather of all assets in order followed by
        the assets grouped by bundle, so no BLAS thread count can move a bit
        of it, and a one-bundle row equals the fleet row bit for bit.
        """
        values = np.asarray(values)
        if values.shape[axis] != self.n_assets:
            raise ShapeMismatchError(f"values have {values.shape[axis]} assets along axis "
                                     f"{axis}, bundling expects {self.n_assets}")
        n = self.n_assets
        order = np.concatenate([np.arange(n), np.argsort(self.labels, kind="stable")])
        sizes = self.assignment.sum(axis=1).astype(np.int64)
        starts = np.concatenate([[0], n + np.cumsum(sizes) - sizes])
        return np.add.reduceat(values.take(order, axis=axis), starts, axis=axis)

    def canonical(self) -> "Bundling":
        """Reorder rows by smallest member index."""
        order = np.argsort([int(self.members(k)[0]) for k in range(self.n_bundles)])
        return Bundling(self.assignment[order], self.asset_order)


def objective(bundling: Bundling, sigma) -> float:
    """Evaluate tr(L @ sigma @ L.T) for a bundling."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.shape != (bundling.n_assets, bundling.n_assets):
        raise ShapeMismatchError(
            f"criterion matrix shape {s.shape} does not match {bundling.n_assets} assets"
        )
    blocks = bundling.aggregate(bundling.aggregate(s)[1:], axis=1)[:, 1:]  # L @ sigma @ L.T
    return float(np.trace(blocks))


def check_feasible(bundling: Bundling, distances: np.ndarray,
                   diameter_km: float) -> tuple[tuple[int, int, int], ...]:
    """The ``(bundle, i, j)`` asset pairs, ``i < j``, farther apart than the cutoff.

    Empty when the bundling satisfies the diameter constraint.
    """
    distances = np.asarray(distances)
    if distances.shape != (bundling.n_assets, bundling.n_assets):
        raise ShapeMismatchError(
            f"distance matrix shape {distances.shape} does not match {bundling.n_assets} assets"
        )
    violations = []
    for k in range(bundling.n_bundles):
        idx = bundling.members(k)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = int(idx[a]), int(idx[b])
                if distances[i, j] > diameter_km:
                    violations.append((k, i, j))
    return tuple(violations)


# --- greedy agglomerative solver ---------------------------------------------

def greedy_merge(sigma, distances: np.ndarray, n_bundles: int, diameter_km: float,
                 asset_order) -> Bundling:
    """Agglomerative merge descent on an explicit criterion matrix.

    Starts from N singletons and, while more than ``n_bundles`` remain,
    merges the diameter-feasible pair with minimal inter-bundle covariance.
    Ties are broken by the lexicographically smallest pair of smallest
    member indices, which makes the result independent of scan order.

    Bundles live in N fixed slots: slot ``i`` holds the bundle whose
    smallest member is asset ``i``, and merging slot ``b`` into slot ``a``
    (``a < b``) keeps that true, so row-major order over the active slots
    is the tie-break order and nothing is ever compacted. ``pairs`` holds
    the criterion of every feasible active pair above the diagonal (inf
    elsewhere), and each row ``r`` caches its first argmin ``nn[r]`` and
    that value ``nn_cov[r]``; the first argmin of ``nn_cov`` and its
    neighbour are then the lexicographically smallest minimal pair, the
    same pair a scan of every pair picks. The merge arithmetic on ``cov``
    and ``diam`` is the elementwise update a compacted matrix would get, so
    every value, and hence every choice, is bitwise the same. A merge
    changes only row and column ``a`` and retires slot ``b``: the rows that
    pointed at ``a`` or ``b`` are rescanned, and each row above ``a`` takes
    ``a`` when its new value is smaller, or equal from a smaller column.
    That costs O(N) vector work plus O(N) per rescanned row per merge,
    where rescanning every pair cost O(N^2).

    Raises:
        ValueOutOfRangeError: ``sigma`` has a non-finite entry or
            ``distances`` a NaN one.
        InfeasibleMergeError: no feasible pair is left before ``n_bundles``.
    """
    s = np.asarray(sigma, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    n = s.shape[0]
    if distances.shape != (n, n) or len(asset_order) != n:
        raise ShapeMismatchError("sigma, distances, and asset_order sizes disagree")
    if not 1 <= n_bundles <= n:
        raise ValueOutOfRangeError(f"n_bundles must be in 1..{n}, got {n_bundles}")
    bad = np.argwhere(~np.isfinite(s))
    if bad.size:
        i, j = bad[0]
        raise ValueOutOfRangeError(f"criterion matrix entry ({i}, {j}) is {s[i, j]}")
    bad = np.argwhere(np.isnan(distances))
    if bad.size:
        i, j = bad[0]
        raise ValueOutOfRangeError(f"distance matrix entry ({i}, {j}) is NaN")

    members: list[list[int]] = [[i] for i in range(n)]
    cov = s.copy()              # cov[a, b] = lam_a @ sigma @ lam_b
    diam = distances.copy()     # diam[a, b] = max cross-pair distance
    active = np.ones(n, dtype=bool)
    # pairs[r, c] = cov[r, c] for feasible active pairs with r < c, else inf
    pairs = np.where(np.triu(diam <= diameter_km, k=1), cov, np.inf)
    nn = pairs.argmin(axis=1)
    nn_cov = pairs[np.arange(n), nn]

    for b_count in range(n, n_bundles, -1):
        a = int(nn_cov.argmin())
        if not math.isfinite(nn_cov[a]):
            raise InfeasibleMergeError(
                f"no diameter-feasible merge left at {b_count} bundles "
                f"(target {n_bundles}, cutoff {diameter_km} km)",
                bundles_reached=b_count,
            )
        b = int(nn[a])

        cov[a, :] += cov[b, :]
        cov[:, a] += cov[:, b]
        diam[a, :] = np.maximum(diam[a, :], diam[b, :])
        diam[:, a] = np.maximum(diam[:, a], diam[:, b])
        members[a] += members[b]
        active[b] = False
        pairs[:, b] = nn_cov[b] = np.inf
        pairs[a, a + 1:] = np.where((diam[a, a + 1:] <= diameter_km) & active[a + 1:],
                                    cov[a, a + 1:], np.inf)
        col = pairs[:a, a] = np.where((diam[:a, a] <= diameter_km) & active[:a],
                                      cov[:a, a], np.inf)

        stale = np.flatnonzero(active & ((nn == a) | (nn == b)))
        wins = (col < nn_cov[:a]) | ((col == nn_cov[:a]) & (a < nn[:a]))
        nn[:a][wins] = a
        nn_cov[:a][wins] = col[wins]
        nn[stale] = pairs[stale].argmin(axis=1)
        nn_cov[stale] = pairs[stale, nn[stale]]

    return Bundling.from_members([members[i] for i in np.flatnonzero(active)], asset_order)


# --- exact enumeration oracle -------------------------------------------------

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
    best_parts: list[list[int]] | None = None
    parts: list[list[int]] = []

    def recurse(i: int, cost: float) -> None:
        nonlocal best_cost, best_parts
        if i == n:
            if len(parts) == n_bundles and cost < best_cost:
                best_cost = cost
                best_parts = [list(p) for p in parts]
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
    if best_parts is None:
        raise InfeasiblePartitionError(
            f"no partition of {n} assets into {n_bundles} bundles satisfies "
            f"the {diameter_km} km diameter cutoff"
        )
    return Bundling.from_members(best_parts, asset_order)


# --- geographic k-means baseline ----------------------------------------------

def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(points.shape[0])]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(points.shape[0]))
        else:
            idx = int(rng.choice(points.shape[0], p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans_bundle(assets, n_bundles: int, seed: int) -> Bundling:
    """Geographic k-means baseline on raw (lat, lon) degree coordinates.

    Deterministic for a fixed seed. Each empty cluster takes the point
    farthest from its current center among the points that do not sit alone
    in their cluster, so a repair never empties another cluster. This
    baseline does not optimize a covariance criterion and ignores the
    diameter constraint; :func:`check_feasible` reports what it breaks.
    """
    assets = list(assets)
    k = n_bundles
    if not 1 <= k <= len(assets):
        raise ValueOutOfRangeError(f"n_bundles must be in 1..{len(assets)}, got {k}")
    points = np.array([[a.latitude_deg, a.longitude_deg] for a in assets])
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(points, k, rng)

    labels = np.full(points.shape[0], -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for empty in np.setdiff1d(np.arange(k), np.unique(new_labels)):
            own = d2[np.arange(points.shape[0]), new_labels]
            own[np.bincount(new_labels, minlength=k)[new_labels] < 2] = -1.0  # sole members stay
            new_labels[int(own.argmax())] = empty
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)

    return Bundling.from_labels(labels, k, [a.asset_id for a in assets]).canonical()


# --- diameter sweep ------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    diameter_km: float
    objective: float | None
    feasible: bool


def diameter_sweep(panel: AssetPanel, distances: np.ndarray, criterion: Criterion | str,
                   n_bundles: int, diameters) -> list[SweepPoint]:
    """Greedy objective as a function of the diameter cutoff.

    Diameters must be positive and ascending. Cutoffs under which the greedy
    cannot reach ``n_bundles`` produce an infeasible marker row instead of
    failing the sweep.
    """
    diameters = [float(d) for d in diameters]
    if any(not d > 0.0 for d in diameters):
        raise ValueOutOfRangeError("diameters must be positive")
    if any(b < a for a, b in zip(diameters, diameters[1:])):
        raise ValueOutOfRangeError("diameters must be ascending")
    if not diameters:
        return []
    sigma = covariance(panel, Criterion(criterion))
    points = []
    for d in diameters:
        try:
            bundling = greedy_merge(sigma, distances, n_bundles, d, panel.asset_ids)
        except InfeasibleMergeError:
            points.append(SweepPoint(d, None, False))
        else:
            points.append(SweepPoint(d, objective(bundling, sigma), True))
    return points


# --- CSV interface ---------------------------------------------------------------

BUNDLING_HEADER = "bundle_id,asset_id"


def write_bundling_csv(bundling: Bundling, path) -> None:
    """Write `bundle_id,asset_id` rows, bundles ordered by smallest member."""
    canonical = bundling.canonical()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BUNDLING_HEADER + "\n")
        for k in range(canonical.n_bundles):
            for i in canonical.members(k):
                fh.write(f"{k},{canonical.asset_order[int(i)]}\n")


def read_bundling_csv(path, asset_order) -> Bundling:
    """Read a bundling CSV back against a known asset ordering.

    Bundle ids must cover 0..K-1 without a gap, so that every bundle has an
    asset; K cannot exceed the asset count N.
    """
    asset_order = tuple(asset_order)
    index = {a: i for i, a in enumerate(asset_order)}
    labels = np.full(len(asset_order), -1)
    first_line = {}  # bundle id -> line of its first asset
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != BUNDLING_HEADER:
            raise FormatError(f"{path}: expected header {BUNDLING_HEADER!r}, got {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            bundle_text, sep, asset_id = line.partition(",")
            if not sep:
                raise FormatError(f"{path}:{ln}: expected 'bundle_id,asset_id', got {line!r}")
            if asset_id not in index:
                raise FormatError(f"{path}:{ln}: unknown asset id {asset_id!r}")
            try:
                bundle_id = int(bundle_text)
            except ValueError:
                raise FormatError(
                    f"{path}:{ln}: bundle id {bundle_text!r} is not an integer") from None
            if bundle_id < 0:
                raise FormatError(f"{path}:{ln}: bundle id {bundle_id} is negative")
            if bundle_id >= len(asset_order):  # K <= N, and the gap check below is O(K)
                raise FormatError(f"{path}:{ln}: bundle id {bundle_id} is not below the "
                                  f"asset count {len(asset_order)}")
            if labels[index[asset_id]] >= 0:
                raise FormatError(f"{path}:{ln}: asset {asset_id!r} is listed twice")
            labels[index[asset_id]] = bundle_id
            first_line.setdefault(bundle_id, ln)
    if np.all(labels < 0):
        raise FormatError(f"{path}: no bundle assignments")
    n_bundles = int(labels.max()) + 1
    if np.any(labels < 0):
        missing = [asset_order[i] for i in np.nonzero(labels < 0)[0]]
        raise FormatError(f"{path}: assets without a bundle: {missing}")
    skipped = sorted(set(range(n_bundles)) - set(first_line))
    if skipped:
        raise FormatError(f"{path}:{first_line[n_bundles - 1]}: bundle id {n_bundles - 1} is "
                          f"used, but no asset has bundle id {', '.join(map(str, skipped))}")
    return Bundling.from_labels(labels, n_bundles, asset_order)
