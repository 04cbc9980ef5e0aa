"""Metric hand examples, brute-force oracle equivalence, and evaluate()."""

import numpy as np
import pytest

from bundlecast import (
    Bundling,
    HierarchyForecast,
    energy_distance,
    evaluate,
    nmae,
    rmse,
    summing_matrix,
    variogram_score,
)
from bundlecast.errors import ShapeMismatchError, ValueOutOfRangeError
from bundlecast.metrics import write_report_csv


# --- naive reference implementations (straight from the definitions) -----------

def nmae_naive(actuals, forecasts, capacities):
    m, n, t = actuals.shape
    total = 0.0
    for mm in range(m):
        for i in range(n):
            l1 = 0.0
            for tt in range(t):
                l1 += abs(actuals[mm, i, tt] - forecasts[mm, i, tt])
            total += l1 / capacities[i]
    return total / (m * n * t) * 100.0


def rmse_naive(actuals, forecasts):
    m, n, t = actuals.shape
    total = 0.0
    for mm in range(m):
        for i in range(n):
            for tt in range(t):
                total += (actuals[mm, i, tt] - forecasts[mm, i, tt]) ** 2
    return (total / (m * n * t)) ** 0.5


def vs_naive(actuals, forecasts, p):
    m, n, t = actuals.shape
    total = 0.0
    for mm in range(m):
        for i in range(n):
            for j in range(n):
                for t1 in range(t):
                    for t2 in range(t):
                        da = abs(actuals[mm, i, t1] - actuals[mm, j, t2]) ** p
                        df = abs(forecasts[mm, i, t1] - forecasts[mm, j, t2]) ** p
                        total += (da - df) ** 2
    return total / m


def ed_naive(actuals, forecasts):
    m, n, t = actuals.shape
    total = 0.0
    for mm in range(m):
        sq = 0.0
        for i in range(n):
            for tt in range(t):
                sq += (actuals[mm, i, tt] - forecasts[mm, i, tt]) ** 2
        total += sq ** 0.5
    return 2.0 * total / m


# --- hand examples ---------------------------------------------------------------

def test_nmae_hand_example():
    actual = np.zeros((1, 1, 2))
    fc = np.array([[[1.0, 3.0]]])
    assert nmae(actual, fc, [10.0]) == pytest.approx(20.0, rel=1e-12)


def test_rmse_hand_example():
    actual = np.zeros((1, 1, 4))
    fc = np.array([[[6.0, 0.0, 0.0, 0.0]]])
    assert rmse(actual, fc) == pytest.approx(3.0, rel=1e-12)


def test_vs_hand_example():
    actual = np.array([[[0.0, 4.0]]])
    fc = np.array([[[0.0, 1.0]]])
    assert variogram_score(actual, fc, p=0.5) == pytest.approx(2.0, rel=1e-12)


def test_ed_hand_example():
    actual = np.zeros((1, 1, 2))
    fc = np.array([[[3.0, 4.0]]])
    assert energy_distance(actual, fc) == pytest.approx(10.0, rel=1e-12)


def test_perfect_forecasts_are_zero(rng):
    values = rng.uniform(0, 50, size=(3, 4, 5))
    assert nmae(values, values, np.full(4, 10.0)) == 0.0
    assert rmse(values, values) == 0.0
    assert variogram_score(values, values) == 0.0
    assert energy_distance(values, values) == 0.0


# --- algebraic properties -----------------------------------------------------------

def test_nmae_halves_when_capacity_doubles(rng):
    a = rng.uniform(0, 10, size=(2, 3, 4))
    f = rng.uniform(0, 10, size=(2, 3, 4))
    caps = rng.uniform(5, 20, size=3)
    assert nmae(a, f, 2 * caps) == pytest.approx(nmae(a, f, caps) / 2, rel=1e-12)


def test_rmse_of_constant_error(rng):
    a = rng.uniform(0, 10, size=(2, 3, 4))
    assert rmse(a, a + 2.5) == pytest.approx(2.5, rel=1e-12)


def test_vs_translation_invariance(rng):
    a = rng.uniform(0, 10, size=(2, 2, 3))
    f = rng.uniform(0, 10, size=(2, 2, 3))
    assert variogram_score(a + 17.0, f + 17.0) == pytest.approx(
        variogram_score(a, f), rel=1e-9)


def test_ed_homogeneity(rng):
    a = rng.uniform(0, 10, size=(3, 2, 4))
    f = rng.uniform(0, 10, size=(3, 2, 4))
    assert energy_distance(a, a + 3.0 * (f - a)) == pytest.approx(
        3.0 * energy_distance(a, f), rel=1e-12)


def test_nmae_rmse_permutation_invariance(rng):
    a = rng.uniform(0, 10, size=(4, 3, 5))
    f = rng.uniform(0, 10, size=(4, 3, 5))
    caps = rng.uniform(5, 20, size=3)
    po = rng.permutation(4)
    ps = rng.permutation(3)
    assert nmae(a[po][:, ps], f[po][:, ps], caps[ps]) == pytest.approx(
        nmae(a, f, caps), rel=1e-12)
    assert rmse(a[po][:, ps], f[po][:, ps]) == pytest.approx(rmse(a, f), rel=1e-12)


def test_ed_triangle_style_bound(rng):
    for _ in range(10):
        a = rng.uniform(0, 10, size=(3, 2, 4))
        f = rng.uniform(0, 10, size=(3, 2, 4))
        y = rng.uniform(0, 10, size=(3, 2, 4))
        lhs = energy_distance(a, f)
        rhs = energy_distance(a, y) + energy_distance(y, f)
        assert lhs <= rhs + 1e-12


# --- oracle equivalence ----------------------------------------------------------------

def test_metrics_match_naive_loops(rng):
    for _ in range(25):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        a = rng.uniform(0, 100, size=(m, n, t))
        f = rng.uniform(0, 100, size=(m, n, t))
        caps = rng.uniform(10, 200, size=n)
        assert nmae(a, f, caps) == pytest.approx(nmae_naive(a, f, caps), rel=1e-9)
        assert rmse(a, f) == pytest.approx(rmse_naive(a, f), rel=1e-9)
        assert variogram_score(a, f, 0.5) == pytest.approx(vs_naive(a, f, 0.5), rel=1e-9)
        assert energy_distance(a, f) == pytest.approx(ed_naive(a, f), rel=1e-9)


# --- validation -------------------------------------------------------------------------

def test_metric_validation_errors(rng):
    a = rng.uniform(0, 1, size=(2, 2, 2))
    with pytest.raises(ShapeMismatchError):
        rmse(a, a[:1])
    with pytest.raises(ValueOutOfRangeError, match="capacities must be strictly positive"):
        nmae(a, a, [1.0, 0.0])
    with pytest.raises(ValueOutOfRangeError, match="variogram order must be > 0"):
        variogram_score(a, a, p=0.0)


# --- evaluate --------------------------------------------------------------------------

def hierarchy_pair(rng, n=4, k=2, m=3, t=5):
    from conftest import random_bundling_labels
    labels = random_bundling_labels(rng, n, k)
    bundling = Bundling(labels, tuple(f"a{i}" for i in range(n)))
    origins = (np.datetime64("2019-01-08T00:00:00", "s")
               + np.timedelta64(900, "s") * np.arange(m))
    s = summing_matrix(bundling)
    bottom_a = rng.uniform(0, 50, size=(m, n, t))
    bottom_f = rng.uniform(0, 50, size=(m, n, t))
    actual = HierarchyForecast(origins, np.einsum("rn,mnt->mrt", s, bottom_a), k, n)
    fc = HierarchyForecast(origins, np.einsum("rn,mnt->mrt", s, bottom_f), k, n)
    return bundling, actual, fc


def test_evaluate_levels_and_vs_gating(rng):
    bundling, actual, fc = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, fc, bundling, caps)
    assert set(reports) == {"fleet", "bundle", "asset"}
    assert reports["fleet"].vs is not None
    assert reports["asset"].vs is None
    direct = nmae(actual.assets, fc.assets, caps)
    assert reports["asset"].nmae == pytest.approx(direct, rel=1e-12)
    fleet_direct = nmae(actual.fleet, fc.fleet, np.array([caps.sum()]))
    assert reports["fleet"].nmae == pytest.approx(fleet_direct, rel=1e-12)


def test_evaluate_identical_hierarchies_zero(rng):
    bundling, actual, _ = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, actual, bundling, caps)
    for rep in reports.values():
        assert rep.nmae == 0.0 and rep.rmse == 0.0 and rep.ed == 0.0


def test_report_csv_structure(tmp_path, rng):
    bundling, actual, fc = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, fc, bundling, caps)
    path = tmp_path / "evaluation.csv"
    write_report_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,metric,value,M,series_id"
    # fleet nmae/rmse/ed/vs, then bundle and asset nmae/rmse/ed, one row each
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert keys == [("fleet", "nmae"), ("fleet", "rmse"), ("fleet", "ed"), ("fleet", "vs"),
                    ("bundle", "nmae"), ("bundle", "rmse"), ("bundle", "ed"),
                    ("asset", "nmae"), ("asset", "rmse"), ("asset", "ed")]
    for line in lines[1:]:
        level, metric, value, m, series_id = line.split(",")
        assert float(value) == pytest.approx(getattr(reports[level], metric), rel=1e-11)
        assert m == str(actual.n_origins)
        assert series_id == ""
