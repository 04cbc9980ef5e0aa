"""Test oracles: slow reference solvers that the package's fast code is checked against.

:func:`exact_partition` finds an optimal bundling by exhaustive search, the
oracle for :func:`bundlecast.greedy_merge`. No command runs it, so it lives
with the tests.
"""

import math

import numpy as np

from bundlecast import Bundling
from bundlecast.errors import BundlecastError, ShapeMismatchError, ValueOutOfRangeError

EXACT_MAX_ASSETS = 12


class InfeasiblePartitionError(BundlecastError):
    """No partition into K bundles satisfies the diameter constraint."""


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
    best_labels: np.ndarray | None = None
    parts: list[list[int]] = []

    def recurse(i: int, cost: float) -> None:
        nonlocal best_cost, best_labels
        if i == n:
            if len(parts) == n_bundles and cost < best_cost:
                best_cost = cost
                best_labels = np.empty(n, dtype=np.int64)
                for k, p in enumerate(parts):
                    best_labels[p] = k
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
    if best_labels is None:
        raise InfeasiblePartitionError(
            f"no partition of {n} assets into {n_bundles} bundles satisfies "
            f"the {diameter_km} km diameter cutoff"
        )
    return Bundling(best_labels, asset_order)
