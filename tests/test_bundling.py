"""Objective evaluation, feasibility, greedy merging, and the exact oracle
(``tests/oracles.py``)."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecast import (
    AssetMeta,
    Bundling,
    Criterion,
    check_feasible,
    covariance,
    greedy_merge,
    haversine_matrix,
    kmeans_bundle,
    objective,
)
from bundlecast.bundling import read_bundling_csv, write_bundling_csv
from bundlecast.errors import (
    FormatError,
    InfeasibleMergeError,
    ShapeMismatchError,
    ValueOutOfRangeError,
)
from bundlecast.pipeline import make_bundling
from bundlecast.synth import SynthConfig, synth_panel

from conftest import (
    LABEL_KINDS,
    assert_bits_equal,
    labels_of_kind,
    make_panel,
    random_panel,
    signed_zeros,
)
from oracles import InfeasiblePartitionError, aggregate_2n, exact_partition, objective_trace

HAND_SIGMA = np.array([[0.25, -0.25], [-0.25, 0.25]])


def far_apart_panel():
    """Two perfectly anticorrelated assets ~1100 km apart."""
    return make_panel([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]],
                      lats=[40.0, 50.0], lons=[-100.0, -100.0])


def close_panel():
    """Two perfectly anticorrelated assets a few km apart."""
    return make_panel([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]],
                      lats=[40.0, 40.05], lons=[-100.0, -100.0])


# --- Bundling invariants -------------------------------------------------------

def test_bundling_rejects_empty_bundle():
    with pytest.raises(ShapeMismatchError, match="no asset has bundle id 1, 2"):
        Bundling([0, 3, 0], ("a", "b", "c"))


@pytest.mark.parametrize("labels, message", [
    ([0.0, 1.0], "bundle labels must be integers, got float64"),
    ([True, False], "bundle labels must be integers, got bool"),
    ([0, -1], "bundle id -1 is negative"),
    ([0, 1, 0], r"labels have shape \(3,\) for 2 assets"),
    ([[0, 1]], r"labels have shape \(1, 2\) for 2 assets"),
], ids=["fractional", "bool", "negative", "length", "2-D"])
def test_bundling_rejects_malformed_labels(labels, message):
    with pytest.raises(ShapeMismatchError, match=message):
        Bundling(np.array(labels), ("a", "b"))


def test_bundling_leaves_the_callers_array_writeable():
    labels = np.zeros(2, dtype=np.int64)
    b = Bundling(labels, ("a", "b"))
    assert labels.flags.writeable and not b.labels.flags.writeable
    with pytest.raises(ValueError):
        b.labels[0] = 1
    labels[0] = 1  # the caller may still write its own array


def test_bundling_members_and_series():
    b = Bundling([0, 1, 0], ("a", "b", "c"))
    assert list(np.flatnonzero(b.labels == 0)) == [0, 2]
    values = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
    np.testing.assert_array_equal(b.aggregate(values),
                                  [[111.0, 222.0], [101.0, 202.0], [10.0, 20.0]])
    np.testing.assert_array_equal(b.aggregate(values.T, axis=1),
                                  [[111.0, 101.0, 10.0], [222.0, 202.0, 20.0]])
    with pytest.raises(ShapeMismatchError, match="2 assets along axis 0"):
        b.aggregate(values[:2])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_labels_agree_with_the_dense_assignment_matrix(data):
    """Aggregation, feasibility and renumbering read the labels; each must give
    what the K x N 0/1 matrix L of the objective gives."""
    n = data.draw(st.integers(1, 12), label="n")
    raw = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="raw")
    labels = np.unique(raw, return_inverse=True)[1]  # ids 0..K-1, not in member order
    b = Bundling(labels, tuple(f"a{i}" for i in range(n)))
    k = b.n_bundles
    lam = np.zeros((k, n))
    lam[labels, np.arange(n)] = 1.0

    values = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=3 * n,
                                         max_size=3 * n), label="values"),
                      dtype=float).reshape(n, 3)
    np.testing.assert_array_equal(b.aggregate(values), np.vstack([np.ones(n), lam]) @ values)
    np.testing.assert_array_equal(b.aggregate(values.T, axis=1),
                                  values.T @ np.vstack([np.ones(n), lam]).T)

    distances = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n * n,
                                            max_size=n * n), label="distances"),
                         dtype=float).reshape(n, n)
    cutoff = data.draw(st.integers(0, 9), label="cutoff")
    expected = tuple((kk, i, j) for kk in range(k) for i in range(n) for j in range(i + 1, n)
                     if lam[kk, i] == lam[kk, j] == 1.0 and distances[i, j] > cutoff)
    assert check_feasible(b, distances, cutoff) == expected

    canonical = b.canonical()
    np.testing.assert_array_equal(canonical.canonical().labels, canonical.labels)
    firsts = [int(np.flatnonzero(canonical.labels == kk)[0]) for kk in range(k)]
    assert firsts == sorted(firsts)
    assert sorted(map(list, lam.astype(bool))) == sorted(
        map(list, canonical.labels == np.arange(k)[:, None]))  # the same bundles


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_aggregate_and_objective_keep_the_bits_of_the_full_gathers(data):
    """``aggregate`` sums the fleet over the values as given and gathers N assets
    only for unsorted labels, and ``objective`` builds only the diagonal blocks;
    both give the bits of the 2N-gather expressions in ``tests/oracles.py`` on
    strided views, along every axis, with signed zeros among the values."""
    n = data.draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(LABEL_KINDS), label="kind")
    b = Bundling(labels_of_kind(rng, n, kind), tuple(f"a{i}" for i in range(n)))
    ndim = data.draw(st.integers(1, 3), label="ndim")
    axis = data.draw(st.integers(-ndim, ndim - 1), label="axis")
    shape = list(rng.integers(1, 5, size=ndim))
    shape[axis] = n
    step = data.draw(st.sampled_from([1, 2]), label="step")
    scale = 10.0 ** data.draw(st.integers(-300, 300), label="exponent")
    base = signed_zeros(rng, rng.standard_normal([step * d + 1 for d in shape]) * scale, 0.3)
    values = base[tuple(slice(1, None, step) for _ in shape)]

    got = b.aggregate(values, axis=axis)
    assert_bits_equal(got, aggregate_2n(b, values, axis=axis))
    if b.n_bundles == 1:  # a one-bundle row equals the fleet row bit for bit
        assert_bits_equal(np.take(got, [1], axis=axis), np.take(got, [0], axis=axis))

    x = rng.standard_normal((n, n + 2))
    sigma = signed_zeros(rng, (x @ x.T) * scale, 0.1)
    for s in (sigma, np.asfortranarray(sigma), np.repeat(sigma, 2, axis=1)[:, ::2]):
        assert_bits_equal(objective(b, s), objective_trace(b, s))


# --- objective -------------------------------------------------------------------

def test_objective_identity_is_trace(rng):
    panel = random_panel(rng, 5, 30)
    sigma = covariance(panel, "variance")
    b = Bundling(np.arange(5), panel.asset_ids)
    assert objective(b, sigma) == pytest.approx(np.trace(sigma), rel=1e-12)


def test_objective_hand_examples():
    merged = Bundling([0, 0], ("a", "b"))
    split = Bundling([0, 1], ("a", "b"))
    assert objective(merged, HAND_SIGMA) == pytest.approx(0.0, abs=1e-12)
    assert objective(split, HAND_SIGMA) == pytest.approx(0.5, rel=1e-12)


def test_objective_dimension_mismatch():
    b = Bundling([0, 0], ("a", "b"))
    with pytest.raises(ShapeMismatchError, match=r"criterion matrix shape \(3, 3\)"):
        objective(b, np.eye(3))


# --- feasibility ------------------------------------------------------------------

def test_singletons_always_feasible(rng):
    panel = random_panel(rng, 6, 4)
    d = haversine_matrix(panel.assets)
    b = Bundling(np.arange(6), panel.asset_ids)
    assert check_feasible(b, d, 0.001) == ()


def test_far_pair_in_one_bundle_is_infeasible():
    panel = far_apart_panel()
    d = haversine_matrix(panel.assets)
    b = Bundling.single_bundle(panel.asset_ids)
    assert check_feasible(b, d, 500.0) == ((0, 0, 1),)


def test_unbounded_diameter_always_feasible(rng):
    panel = random_panel(rng, 5, 4)
    d = haversine_matrix(panel.assets)
    b = Bundling.single_bundle(panel.asset_ids)
    assert check_feasible(b, d, math.inf) == ()


# --- greedy ------------------------------------------------------------------------

def test_greedy_merges_anticorrelated_pair():
    panel = close_panel()
    d = haversine_matrix(panel.assets)
    b = greedy_merge(covariance(panel, "variance"), d, 1, 500.0, panel.asset_ids)
    assert b.n_bundles == 1
    assert list(np.flatnonzero(b.labels == 0)) == [0, 1]


def test_greedy_infeasible_merge_reports_count():
    panel = far_apart_panel()
    d = haversine_matrix(panel.assets)
    with pytest.raises(InfeasibleMergeError) as err:
        greedy_merge(covariance(panel, "variance"), d, 1, 500.0, panel.asset_ids)
    assert err.value.bundles_reached == 2


def test_greedy_invariants_and_recomputed_objective(rng):
    for _ in range(10):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n))
        panel = random_panel(rng, n, 30)
        d = haversine_matrix(panel.assets)
        sigma = covariance(panel, "savar")
        b = greedy_merge(sigma, d, k, math.inf, panel.asset_ids)
        assert b.n_bundles == k
        assert b.labels.shape == (n,)
        # canonical numbering: bundles sorted by smallest member
        firsts = [int(np.flatnonzero(b.labels == j)[0]) for j in range(k)]
        assert firsts == sorted(firsts)


def test_greedy_deterministic(small_panel):
    d = haversine_matrix(small_panel.assets)
    sigma = covariance(small_panel, "imcy")
    b1 = greedy_merge(sigma, d, 2, 900.0, small_panel.asset_ids)
    b2 = greedy_merge(sigma, d, 2, 900.0, small_panel.asset_ids)
    np.testing.assert_array_equal(b1.labels, b2.labels)


def test_greedy_scale_invariance(rng):
    panel = random_panel(rng, 8, 50)
    d = haversine_matrix(panel.assets)
    sigma = covariance(panel, "variance")
    b1 = greedy_merge(sigma, d, 3, math.inf, panel.asset_ids)
    b2 = greedy_merge(37.5 * sigma, d, 3, math.inf, panel.asset_ids)
    np.testing.assert_array_equal(b1.labels, b2.labels)


def test_greedy_within_tolerance_of_exact(small_panel):
    d = haversine_matrix(small_panel.assets)
    sigma = covariance(small_panel, "variance")
    ids = small_panel.asset_ids
    greedy_obj = objective(greedy_merge(sigma, d, 2, math.inf, ids), sigma)
    exact_obj = objective(exact_partition(sigma, d, 2, math.inf, ids), sigma)
    assert exact_obj <= greedy_obj + 1e-12
    assert greedy_obj <= 1.05 * exact_obj


def _reference_greedy(s, distances, n_bundles, diameter_km):
    """The triu-rescan greedy: rebuild every feasible pair, merge, compact.

    Returns the labels, bundles numbered by smallest member, or the
    InfeasibleMergeError's ``bundles_reached``.
    """
    members = [[i] for i in range(s.shape[0])]
    cov, diam = s.copy(), distances.copy()
    while len(members) > n_bundles:
        iu, ju = np.triu_indices(len(members), k=1)
        pair_cov = np.where(diam[iu, ju] <= diameter_km, cov[iu, ju], np.inf)
        best = float(pair_cov.min()) if pair_cov.size else math.inf
        if not math.isfinite(best):
            return len(members)
        first = int(np.nonzero(pair_cov == best)[0][0])
        a, b = int(iu[first]), int(ju[first])
        cov[a, :] += cov[b, :]
        cov[:, a] += cov[:, b]
        cov = np.delete(np.delete(cov, b, axis=0), b, axis=1)
        diam[a, :] = np.maximum(diam[a, :], diam[b, :])
        diam[:, a] = np.maximum(diam[:, a], diam[:, b])
        diam = np.delete(np.delete(diam, b, axis=0), b, axis=1)
        members[a] = sorted(members[a] + members[b])
        del members[b]
    labels = np.empty(s.shape[0], dtype=np.int64)
    for k, idx in enumerate(members):
        labels[idx] = k
    return labels


def _assert_matches_reference(s, distances, n_bundles, diameter_km):
    """Compare greedy_merge with the reference; True on an infeasible stop."""
    names = [f"a{i}" for i in range(s.shape[0])]
    expected = _reference_greedy(s, distances, n_bundles, diameter_km)
    if isinstance(expected, int):
        with pytest.raises(InfeasibleMergeError) as err:
            greedy_merge(s, distances, n_bundles, diameter_km, names)
        assert err.value.bundles_reached == expected
        assert f"at {expected} bundles" in str(err.value)
        return True
    got = greedy_merge(s, distances, n_bundles, diameter_km, names)
    np.testing.assert_array_equal(got.labels, expected)
    return False


def test_greedy_matches_reference_on_tie_heavy_instances():
    """Small-integer sigma and distances make exact ties common."""
    rng = np.random.default_rng(5)
    infeasible = 0
    for _ in range(600):
        n = int(rng.integers(1, 41))
        s = rng.integers(-3, 4, size=(n, n)).astype(float)
        s = s + s.T
        d = rng.integers(0, 10, size=(n, n)).astype(float)
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        k = int(rng.integers(1, n + 1))
        cutoff = float(rng.choice([2.0, 4.0, 8.0, math.inf]))
        infeasible += _assert_matches_reference(s, d, k, cutoff)
    assert 50 <= infeasible <= 550  # both outcomes are exercised


def test_greedy_matches_reference_on_synth_panel():
    cfg = SynthConfig(n_assets=300, n_steps=200, granularity_minutes=15, seed=11,
                      n_regions=9, anticorrelated_pairs=5)
    panel = synth_panel(cfg)
    d = haversine_matrix(panel.assets)
    sigma = covariance(panel, "imcy")
    _assert_matches_reference(sigma, d, 30, 300.0)


def test_greedy_breaks_ties_by_smallest_pair():
    s = np.ones((5, 5))
    d = np.zeros((5, 5))
    names = [f"a{i}" for i in range(5)]
    first = greedy_merge(s, d, 4, math.inf, names)
    assert [list(np.flatnonzero(first.labels == k)) for k in range(4)] == [[0, 1], [2], [3], [4]]
    # {0, 1} now has covariance 2 with every singleton; the singletons tie at 1
    second = greedy_merge(s, d, 3, math.inf, names)
    assert [list(np.flatnonzero(second.labels == k)) for k in range(3)] == [[0, 1], [2, 3], [4]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_rejects_non_finite_sigma(bad):
    s = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    s[1, 2] = s[2, 1] = bad
    with pytest.raises(ValueOutOfRangeError, match=r"criterion matrix entry \(1, 2\)"):
        greedy_merge(s, np.zeros((3, 3)), 1, math.inf, ("a", "b", "c"))


def test_greedy_rejects_nan_distance():
    d = np.zeros((3, 3))
    d[0, 2] = d[2, 0] = math.nan
    with pytest.raises(ValueOutOfRangeError, match=r"distance matrix entry \(0, 2\) is NaN"):
        greedy_merge(np.eye(3), d, 1, math.inf, ("a", "b", "c"))


def test_greedy_rejects_asymmetric_sigma():
    s = np.eye(3)
    s[2, 1] = -0.5
    with pytest.raises(ValueOutOfRangeError,
                       match=r"not symmetric: entry \(1, 2\) is 0.0 but \(2, 1\) is -0.5"):
        greedy_merge(s, np.zeros((3, 3)), 1, math.inf, ("a", "b", "c"))


def test_greedy_rejects_sigma_whose_bundle_sums_could_overflow():
    big = np.finfo(np.float64).max / 2
    s = np.array([[big, -big], [-big, big]])
    with pytest.raises(ValueOutOfRangeError, match="absolute sum overflows"):
        greedy_merge(s, np.zeros((2, 2)), 1, math.inf, ("a", "b"))


def test_greedy_keeps_a_retired_slot_retired():
    # only (0, 2) fits: after it merges, slot 2's row is all inf and its
    # argmin is slot 0, the merged slot, so a rescan must skip it
    d = np.full((3, 3), 10.0)
    d[0, 2] = d[2, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    got = greedy_merge(np.eye(3), d, 2, 5.0, ("a", "b", "c"))
    assert [list(np.flatnonzero(got.labels == k)) for k in range(2)] == [[0, 2], [1]]


# --- exact oracle ----------------------------------------------------------------

def test_exact_identity_when_k_equals_n(rng):
    panel = random_panel(rng, 5, 20)
    d = haversine_matrix(panel.assets)
    b = exact_partition(covariance(panel, "variance"), d, 5, math.inf, panel.asset_ids)
    np.testing.assert_array_equal(b.labels, np.arange(5))


def test_exact_single_partition_objective_zero():
    panel = close_panel()
    d = haversine_matrix(panel.assets)
    b = exact_partition(covariance(panel, "variance"), d, 1, math.inf, panel.asset_ids)
    assert b.n_bundles == 1
    assert objective(b, covariance(panel, "variance")) == pytest.approx(0.0, abs=1e-12)


def test_exact_guard_and_infeasibility():
    with pytest.raises(ValueOutOfRangeError, match="limited to 12 assets, got 13"):
        exact_partition(np.eye(13), np.zeros((13, 13)), 2, math.inf, [str(i) for i in range(13)])
    panel = far_apart_panel()
    d = haversine_matrix(panel.assets)
    with pytest.raises(InfeasiblePartitionError):
        exact_partition(covariance(panel, "variance"), d, 1, 500.0, panel.asset_ids)


def test_exact_beats_or_ties_brute_force(rng):
    """Cross-check the pruned enumeration against unpruned label search."""
    from itertools import product

    n, k = 6, 2
    panel = random_panel(rng, n, 25)
    d = haversine_matrix(panel.assets)
    sigma = covariance(panel, "savar")
    best = math.inf
    for labels in product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        b = Bundling(labels, panel.asset_ids)
        if check_feasible(b, d, math.inf):
            continue
        best = min(best, objective(b, sigma))
    found = objective(exact_partition(sigma, d, k, math.inf, panel.asset_ids), sigma)
    assert found == pytest.approx(best, rel=1e-12)


def test_exact_golden_instance():
    cfg = SynthConfig(n_assets=6, n_steps=600, granularity_minutes=15, seed=7,
                      n_regions=2, anticorrelated_pairs=1)
    panel = synth_panel(cfg)
    d = haversine_matrix(panel.assets)
    sigma = covariance(panel, "variance")
    b = exact_partition(sigma, d, 2, math.inf, panel.asset_ids)
    value = objective(b, sigma)
    # frozen after the first verified enumeration run on this seeded instance,
    # cross-checked against an unpruned search over all labelings
    assert value == pytest.approx(8866.283151175838, rel=1e-10)
    assert [list(map(int, np.flatnonzero(b.labels == k))) for k in range(2)] == [
        [0, 1, 3, 4], [2, 5]]


def test_exact_never_above_greedy_seeded():
    for seed in range(8):
        cfg = SynthConfig(n_assets=7, n_steps=300, granularity_minutes=15, seed=seed,
                          n_regions=2, anticorrelated_pairs=1)
        panel = synth_panel(cfg)
        d = haversine_matrix(panel.assets)
        sigma = covariance(panel, "imcy")
        exact_obj = objective(exact_partition(sigma, d, 2, math.inf, panel.asset_ids), sigma)
        greedy_obj = objective(greedy_merge(sigma, d, 2, math.inf, panel.asset_ids), sigma)
        assert exact_obj <= greedy_obj + 1e-9 * abs(greedy_obj)


# --- kmeans baseline ---------------------------------------------------------------

def cluster_assets():
    coords = [(40.0, -100.0), (40.1, -100.1), (44.0, -90.0), (44.1, -90.1),
              (36.0, -84.0), (36.1, -84.1)]
    return [AssetMeta(f"c{i}", la, lo, 10.0) for i, (la, lo) in enumerate(coords)]


def test_kmeans_recovers_coordinate_clusters():
    b = kmeans_bundle(cluster_assets(), 3, seed=5)
    assert sorted(tuple(np.flatnonzero(b.labels == k)) for k in range(3)) == [
        (0, 1), (2, 3), (4, 5)]


def test_kmeans_degenerate_counts():
    assets = cluster_assets()
    one = kmeans_bundle(assets, 1, seed=1)
    assert one.n_bundles == 1 and len(np.flatnonzero(one.labels == 0)) == 6
    n = kmeans_bundle(assets, 6, seed=1)
    np.testing.assert_array_equal(np.bincount(n.labels), np.ones(6))


@pytest.mark.parametrize("lats", [[40.0] * 6, [40.0] * 3 + [41.0] * 3],
                         ids=["one-site", "two-sites"])
def test_kmeans_repairs_empty_clusters_of_coincident_assets(lats):
    """Assets sharing a coordinate reach k-means++'s zero-distance pick and the repair."""
    assets = [AssetMeta(f"c{i}", lat, -100.0, 10.0) for i, lat in enumerate(lats)]
    for k in range(1, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty cluster's mean warns
            b = kmeans_bundle(assets, k, seed=1)
        assert b.n_bundles == k
        assert np.bincount(b.labels).min() >= 1


def test_kmeans_deterministic():
    assets = cluster_assets()
    b1 = kmeans_bundle(assets, 3, seed=123)
    b2 = kmeans_bundle(assets, 3, seed=123)
    np.testing.assert_array_equal(b1.labels, b2.labels)


def test_kmeans_warns_on_diameter_violation():
    """kmeans ignores the cutoff, so make_bundling counts the pairs it breaks in one warning."""
    coords = [(a.latitude_deg, a.longitude_deg) for a in cluster_assets()]
    panel = make_panel(np.ones((6, 4)), lats=[la for la, _ in coords],
                       lons=[lo for _, lo in coords])
    config = SimpleNamespace(criterion="kmeans", n_bundles=1, seed=0, diameter_km=100.0,
                             train_start=panel.timestamps[0], train_end=panel.timestamps[-1])
    d = haversine_matrix(panel.assets)
    with pytest.warns(UserWarning) as record:
        make_bundling(config, panel, d)
    # 15 pairs, of which the three within a cluster are ~14 km apart
    assert [str(w.message) for w in record] == [
        "kmeans bundling violates the 100.0 km diameter cutoff in 12 asset pair(s)"]


# --- objective against the diameter cutoff --------------------------------------------

def test_sweep_exact_objective_monotone_in_diameter():
    cfg = SynthConfig(n_assets=10, n_steps=400, granularity_minutes=15, seed=3,
                      n_regions=3, anticorrelated_pairs=2)
    panel = synth_panel(cfg)
    d = haversine_matrix(panel.assets)
    diameters = [150.0, 400.0, 700.0, 1000.0, math.inf]
    for kind in (Criterion.SAVAR, Criterion.IMCY):
        sigma = covariance(panel, kind)
        objectives = []
        for diam in diameters:
            try:
                b = exact_partition(sigma, d, 3, diam, panel.asset_ids)
            except InfeasiblePartitionError:
                continue
            objectives.append(objective(b, sigma))
        assert len(objectives) >= 3
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_unbounded_diameter_dominates_constrained(small_panel):
    d = haversine_matrix(small_panel.assets)
    sigma = covariance(small_panel, "savar")
    unbounded = objective(exact_partition(sigma, d, 2, math.inf, small_panel.asset_ids), sigma)
    constrained = objective(exact_partition(sigma, d, 2, 900.0, small_panel.asset_ids), sigma)
    assert unbounded <= constrained + 1e-12


# --- CSV round trip -----------------------------------------------------------------

def test_bundling_csv_round_trip(tmp_path, small_panel):
    d = haversine_matrix(small_panel.assets)
    b = greedy_merge(covariance(small_panel, "variance"), d, 3, math.inf, small_panel.asset_ids)
    path = tmp_path / "bundling.csv"
    write_bundling_csv(b, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bundle_id,asset_id"
    assert len(lines) == 1 + small_panel.n_assets
    back = read_bundling_csv(path, small_panel.asset_ids)
    np.testing.assert_array_equal(back.labels, b.canonical().labels)


@pytest.mark.parametrize("row, message", [
    ("0 a1", "expected 'bundle_id,asset_id'"),
    ("x,a1", "not an integer"),
    ("-1,a1", "negative"),
    ("1,a0", "listed twice"),  # would silently move a0 to bundle 1
    ("3,a3", "no asset has bundle id 2"),  # would fail later, naming no file
    ("3000000,a1", "bundle id 3000000 is not below the asset count 4"),  # K <= N
    ("1,a9", "unknown asset id 'a9'"),
])
def test_read_bundling_csv_rejects_malformed_rows(tmp_path, row, message):
    path = tmp_path / "bundling.csv"
    path.write_text(f"bundle_id,asset_id\n0,a0\n{row}\n0,a2\n1,a1\n")
    with pytest.raises(FormatError, match=message) as info:
        read_bundling_csv(path, ("a0", "a1", "a2", "a3"))
    assert f"{path}:3:" in str(info.value)


@pytest.mark.parametrize("text, message", [
    ("bundle,asset\n0,a0\n", "expected header 'bundle_id,asset_id', got 'bundle,asset'"),
    ("bundle_id,asset_id\n\n", "no bundle assignments"),
    ("bundle_id,asset_id\n0,a0\n0,a1\n1,a2\n", "assets without a bundle: ['a3']"),
], ids=["header", "no-assignments", "unassigned-asset"])
def test_read_bundling_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bundling.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_bundling_csv(path, ("a0", "a1", "a2", "a3"))
