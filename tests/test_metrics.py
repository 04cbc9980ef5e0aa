"""Metric hand examples, brute-force oracle equivalence, and evaluate().

NMAE, RMSE and ED are scored through ``evaluate`` only: ``score_block``
scores an (M, N, T) block as the asset level of a one-bundle hierarchy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecast import (
    Bundling,
    HierarchyForecast,
    evaluate,
    summing_matrix,
    variogram_score,
)
from bundlecast.errors import ShapeMismatchError, ValueOutOfRangeError
from bundlecast.metrics import write_report_csv

from conftest import (
    assert_bits_equal,
    forecast_of,
    random_bundling_labels,
    score_block,
    signed_zeros,
)
from oracles import energy_distance_expression, nmae_expression, rmse_expression


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
    assert score_block(actual, fc, [10.0]).nmae == pytest.approx(20.0, rel=1e-12)


def test_rmse_hand_example():
    actual = np.zeros((1, 1, 4))
    fc = np.array([[[6.0, 0.0, 0.0, 0.0]]])
    assert score_block(actual, fc).rmse == pytest.approx(3.0, rel=1e-12)


def test_vs_hand_example():
    actual = np.array([[[0.0, 4.0]]])
    fc = np.array([[[0.0, 1.0]]])
    assert variogram_score(actual, fc) == pytest.approx(2.0, rel=1e-12)


def test_ed_hand_example():
    actual = np.zeros((1, 1, 2))
    fc = np.array([[[3.0, 4.0]]])
    assert score_block(actual, fc).ed == pytest.approx(10.0, rel=1e-12)


def test_perfect_forecasts_are_zero(rng):
    values = rng.uniform(0, 50, size=(3, 4, 5))
    report = score_block(values, values, np.full(4, 10.0))
    assert report.nmae == 0.0
    assert report.rmse == 0.0
    assert variogram_score(values, values) == 0.0
    assert report.ed == 0.0


# --- algebraic properties -----------------------------------------------------------

def test_nmae_halves_when_capacity_doubles(rng):
    a = rng.uniform(0, 10, size=(2, 3, 4))
    f = rng.uniform(0, 10, size=(2, 3, 4))
    caps = rng.uniform(5, 20, size=3)
    assert score_block(a, f, 2 * caps).nmae == pytest.approx(
        score_block(a, f, caps).nmae / 2, rel=1e-12)


def test_rmse_of_constant_error(rng):
    a = rng.uniform(0, 10, size=(2, 3, 4))
    assert score_block(a, a + 2.5).rmse == pytest.approx(2.5, rel=1e-12)


def test_vs_translation_invariance(rng):
    a = rng.uniform(0, 10, size=(2, 2, 3))
    f = rng.uniform(0, 10, size=(2, 2, 3))
    assert variogram_score(a + 17.0, f + 17.0) == pytest.approx(
        variogram_score(a, f), rel=1e-9)


def test_ed_homogeneity(rng):
    a = rng.uniform(0, 10, size=(3, 2, 4))
    f = rng.uniform(0, 10, size=(3, 2, 4))
    assert score_block(a, a + 3.0 * (f - a)).ed == pytest.approx(
        3.0 * score_block(a, f).ed, rel=1e-12)


def test_nmae_rmse_permutation_invariance(rng):
    a = rng.uniform(0, 10, size=(4, 3, 5))
    f = rng.uniform(0, 10, size=(4, 3, 5))
    caps = rng.uniform(5, 20, size=3)
    po = rng.permutation(4)
    ps = rng.permutation(3)
    permuted, report = score_block(a[po][:, ps], f[po][:, ps], caps[ps]), score_block(a, f, caps)
    assert permuted.nmae == pytest.approx(report.nmae, rel=1e-12)
    assert permuted.rmse == pytest.approx(report.rmse, rel=1e-12)


def test_ed_triangle_style_bound(rng):
    for _ in range(10):
        a = rng.uniform(0, 10, size=(3, 2, 4))
        f = rng.uniform(0, 10, size=(3, 2, 4))
        y = rng.uniform(0, 10, size=(3, 2, 4))
        lhs = score_block(a, f).ed
        rhs = score_block(a, y).ed + score_block(y, f).ed
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
        report = score_block(a, f, caps)
        assert report.nmae == pytest.approx(nmae_naive(a, f, caps), rel=1e-9)
        assert report.rmse == pytest.approx(rmse_naive(a, f), rel=1e-9)
        assert variogram_score(a, f) == pytest.approx(vs_naive(a, f, 0.5), rel=1e-9)
        assert report.ed == pytest.approx(ed_naive(a, f), rel=1e-9)


LAYOUTS = ("contiguous", "strided", "transposed")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), bundles=st.sampled_from(
    ["one", "singletons", "some"]), layout=st.sampled_from(LAYOUTS))
def test_evaluate_keeps_the_bits_of_the_per_metric_formulas(seed, n, bundles, layout):
    """Each level's NMAE, RMSE and ED, scored from one error block, are the
    per-metric formulas' bit for bit, with one bundle or singletons, on
    signed zeros and exact hits, and on values that are strided or
    transposed views."""
    rng = np.random.default_rng(seed)
    k = {"one": 1, "singletons": n, "some": int(rng.integers(1, n + 1))}[bundles]
    m, r, t = int(rng.integers(1, 5)), 1 + k + n, int(rng.integers(1, 9))

    def values(shared=None):
        block = rng.uniform(-50.0, 50.0, (m, r, t))
        if shared is not None:  # exact hits give errors of +0.0 and -0.0
            block = np.where(rng.random(block.shape) < 0.3, shared, block)
        return signed_zeros(rng, block, 0.2)

    a = values()
    f = values(a)
    if layout == "strided":
        a, f = (np.repeat(v, 2, axis=2)[:, :, ::2] for v in (a, f))
    elif layout == "transposed":
        a, f = (np.ascontiguousarray(v.transpose(0, 2, 1)).transpose(0, 2, 1) for v in (a, f))
    caps = rng.uniform(1.0, 100.0, r)
    reports = evaluate(forecast_of(a, k, n), forecast_of(f, k, n), caps)
    for level, rows in {"fleet": slice(0, 1), "bundle": slice(1, 1 + k),
                        "asset": slice(1 + k, r)}.items():
        la, lf = a[:, rows], f[:, rows]
        assert_bits_equal(reports[level].nmae, nmae_expression(la, lf, caps[rows]))
        assert_bits_equal(reports[level].rmse, rmse_expression(la, lf))
        assert_bits_equal(reports[level].ed, energy_distance_expression(la, lf))


# --- validation -------------------------------------------------------------------------

def test_metric_validation_errors(rng):
    a = rng.uniform(0, 1, size=(2, 2, 2))
    with pytest.raises(ShapeMismatchError):
        score_block(a, a[:1])
    with pytest.raises(ValueOutOfRangeError, match="capacities must be strictly positive"):
        score_block(a, a, [1.0, 0.0])


# --- evaluate --------------------------------------------------------------------------

def hierarchy_pair(rng, n=4, k=2, m=3, t=5):
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


def row_capacities(bundling, caps):
    """Fleet, bundle and asset capacities from per-asset ones."""
    return np.concatenate([bundling.aggregate(caps), caps])


def test_evaluate_levels_and_vs_gating(rng):
    bundling, actual, fc = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, fc, row_capacities(bundling, caps))
    assert set(reports) == {"fleet", "bundle", "asset"}
    assert reports["fleet"].vs is not None
    assert reports["asset"].vs is None
    direct = nmae_naive(actual.assets, fc.assets, caps)
    assert reports["asset"].nmae == pytest.approx(direct, rel=1e-12)
    fleet_direct = nmae_naive(actual.fleet, fc.fleet, np.array([caps.sum()]))
    assert reports["fleet"].nmae == pytest.approx(fleet_direct, rel=1e-12)


def test_evaluate_identical_hierarchies_zero(rng):
    bundling, actual, _ = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, actual, row_capacities(bundling, caps))
    for rep in reports.values():
        assert rep.nmae == 0.0 and rep.rmse == 0.0 and rep.ed == 0.0


def test_evaluate_takes_one_capacity_per_hierarchy_row(rng):
    bundling, actual, fc = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=7)  # fleet, two bundles, four assets
    reports = evaluate(actual, fc, caps)
    assert reports["fleet"].nmae == nmae_expression(actual.fleet, fc.fleet, caps[:1])
    assert reports["bundle"].nmae == nmae_expression(actual.bundles, fc.bundles, caps[1:3])
    assert reports["asset"].nmae == nmae_expression(actual.assets, fc.assets, caps[3:])
    with pytest.raises(ShapeMismatchError, match=r"\(4,\) capacities for 7 hierarchy rows"):
        evaluate(actual, fc, caps[3:])


def test_report_csv_structure(tmp_path, rng):
    bundling, actual, fc = hierarchy_pair(rng)
    caps = rng.uniform(10, 100, size=4)
    reports = evaluate(actual, fc, row_capacities(bundling, caps))
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
