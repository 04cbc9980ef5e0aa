"""Partition assets into bundles by minimizing a covariance quadratic form.

A bundling gives each asset one bundle id, so a :class:`Bundling` is one
label vector. The paper writes its objective as tr(L @ sigma @ L.T), where L
is the K x N binary matrix with ``L[k, i] = 1`` when asset i is in bundle k
and sigma is one of the criterion covariance matrices from
:mod:`bundlecast.core`; :func:`objective` evaluates it from the labels with
two bundle sums. A diameter constraint forbids placing two assets in the
same bundle when their great-circle distance exceeds a cutoff.

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
    """Assets partitioned into K bundles: ``labels[i]`` is the bundle of
    ``asset_order[i]``.

    Invariants: the labels are integers, one per asset, and use every id in
    0..K-1, so no bundle is empty. Bundles are conventionally numbered by
    smallest member index (:meth:`canonical`); the solvers always emit that
    numbering. ``labels`` is stored as a read-only int64 view; the caller's
    array stays writeable.
    """

    labels: np.ndarray
    asset_order: tuple[str, ...]

    def __post_init__(self):
        raw = np.asarray(self.labels)
        if not np.issubdtype(raw.dtype, np.integer):
            raise ShapeMismatchError(f"bundle labels must be integers, got {raw.dtype}")
        labels = raw.astype(np.int64, copy=False).view()
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "asset_order", tuple(self.asset_order))
        if labels.shape != (len(self.asset_order),):
            raise ShapeMismatchError(
                f"labels have shape {labels.shape} for {len(self.asset_order)} assets")
        if labels.min(initial=0) < 0:
            raise ShapeMismatchError(f"bundle id {labels.min()} is negative")
        unused = np.flatnonzero(np.bincount(labels) == 0)
        if unused.size:
            raise ShapeMismatchError(f"each bundle must be non-empty: no asset has bundle id "
                                     f"{', '.join(map(str, unused))}")
        labels.flags.writeable = False

    @classmethod
    def from_members(cls, members, asset_order) -> "Bundling":
        """Build from a list of member-index lists (one list per bundle)."""
        labels = np.full(len(asset_order), -1, dtype=np.int64)
        for k, idx in enumerate(members):
            labels[list(idx)] = k
        return cls(labels, asset_order)

    @classmethod
    def single_bundle(cls, asset_order) -> "Bundling":
        return cls(np.zeros(len(asset_order), dtype=np.int64), asset_order)

    @property
    def n_bundles(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def n_assets(self) -> int:
        return int(self.labels.shape[0])

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)

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
        sizes = np.bincount(self.labels)
        starts = np.concatenate([[0], n + np.cumsum(sizes) - sizes])
        return np.add.reduceat(values.take(order, axis=axis), starts, axis=axis)

    def canonical(self) -> "Bundling":
        """Renumber bundles by smallest member index."""
        _, first = np.unique(self.labels, return_index=True)
        return Bundling(np.argsort(np.argsort(first))[self.labels], self.asset_order)


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

    Sorted by bundle, then ``i``, then ``j``; empty when the bundling
    satisfies the diameter constraint.
    """
    distances = np.asarray(distances)
    if distances.shape != (bundling.n_assets, bundling.n_assets):
        raise ShapeMismatchError(
            f"distance matrix shape {distances.shape} does not match {bundling.n_assets} assets"
        )
    labels = bundling.labels
    i, j = np.nonzero(np.triu((labels[:, None] == labels) & (distances > diameter_km), k=1))
    order = np.argsort(labels[i], kind="stable")  # np.nonzero is already (i, j) ordered
    return tuple(zip(labels[i[order]].tolist(), i[order].tolist(), j[order].tolist()))


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
    (``a < b``) keeps that true, so row-major order over the live slots is
    the tie-break order and nothing is ever compacted. One matrix carries
    the state: for ``r < c``, ``pairs[r, c]`` is the criterion of slots
    ``r`` and ``c`` when their union fits the diameter cutoff, and every
    other entry (the diagonal, the lower triangle and each retired slot's
    row and column) is inf. A merged bundle fits with ``c`` only if both
    of its parts do, and its criterion is the sum of theirs, so the merge
    is one elementwise sum of row/column ``b`` into row/column ``a``:
    ``inf + x = inf`` carries infeasibility, and a feasible entry is the
    same float addition a compacted covariance matrix would get, so every
    choice is bitwise the same.

    Each live row ``r`` caches its first argmin ``nn[r]`` and that value
    ``nn_cov[r]`` (a retired slot has ``nn = -1``); the first argmin of
    ``nn_cov`` and its neighbour are then the lexicographically smallest
    minimal pair, the same pair a scan of every pair picks. After a merge
    the rows that pointed at ``a`` or ``b`` are rescanned, and so is each
    row above ``a`` whose new finite value at ``a`` ties or beats its cached
    minimum; the first argmin of the rescan gives the tie-break. That costs
    O(N) vector work plus O(N) per rescanned row per merge, where
    rescanning every pair cost O(N^2).

    Reading only the upper triangle needs a symmetric ``sigma``, and the
    bundle sums must not overflow, so ``|sigma|`` must have a finite sum.

    Raises:
        ValueOutOfRangeError: ``sigma`` has a non-finite entry, is not
            symmetric or has an infinite absolute sum; ``distances`` has a
            NaN entry.
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
    bad = np.argwhere(s != s.T)
    if bad.size:
        i, j = bad[0]
        raise ValueOutOfRangeError(
            f"criterion matrix is not symmetric: entry ({i}, {j}) is {s[i, j]} "
            f"but ({j}, {i}) is {s[j, i]}"
        )
    with np.errstate(over="ignore"):
        total = np.abs(s).sum()
    if not math.isfinite(total):
        raise ValueOutOfRangeError(
            "criterion matrix absolute sum overflows; bundle sums would not be finite")
    bad = np.argwhere(np.isnan(distances))
    if bad.size:
        i, j = bad[0]
        raise ValueOutOfRangeError(f"distance matrix entry ({i}, {j}) is NaN")

    members: list[list[int]] = [[i] for i in range(n)]
    pairs = np.where(np.triu(distances <= diameter_km, k=1), s, np.inf)
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

        pairs[:a, a] += pairs[:a, b]
        pairs[a, a + 1:b] += pairs[a + 1:b, b]
        pairs[a, b + 1:] += pairs[b, b + 1:]
        pairs[:b, b] = pairs[b, b + 1:] = nn_cov[b] = np.inf
        nn[b] = -1  # before the rescan: an all-inf row's argmin is 0
        members[a] += members[b]

        col = pairs[:a, a]
        rows = (nn == a) | (nn == b)
        rows[:a] |= (col < np.inf) & (col <= nn_cov[:a])
        rows = np.flatnonzero(rows)
        nn[rows] = pairs[rows].argmin(axis=1)
        nn_cov[rows] = pairs[rows, nn[rows]]

    return Bundling.from_members([members[i] for i in np.flatnonzero(nn >= 0)], asset_order)


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

    return Bundling(labels, [a.asset_id for a in assets]).canonical()


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
    labels = bundling.canonical().labels
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BUNDLING_HEADER + "\n")
        for i in np.argsort(labels, kind="stable").tolist():
            fh.write(f"{labels[i]},{bundling.asset_order[i]}\n")


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
    return Bundling(labels, asset_order)
