"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. Every tolerance and runtime budget
is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from bundlecast import (
    Bundling,
    Criterion,
    HierarchyForecast,
    ModelSpec,
    build_reconciler,
    coherence_gap,
    covariance,
    greedy_merge,
    haversine_matrix,
    ingest_panel,
    objective,
    reconcile,
    seasonal_adjust,
    summing_matrix,
    variogram_score,
)
from bundlecast.bundling import read_bundling_csv
from bundlecast.cli import main
from bundlecast.forecast import read_forecast_csv
from bundlecast.synth import SynthConfig, synth_panel

from conftest import random_bundling_labels, random_panel, reconciler_gains, score_block
from oracles import InfeasiblePartitionError, exact_partition


def gate(name, elapsed, budget, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    for reason in failures:
        print(f"       - {reason}")
    assert not failures, f"{name}: {failures}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s over {budget}s budget"


# --- 1. quadratic-form identity -------------------------------------------------

def direct_criterion(values, labels, n_bundles, kind):
    def pop_var(series):
        return float(np.mean((series - series.mean()) ** 2))

    if kind == Criterion.SAVAR:
        values = seasonal_adjust(values)
    total = 0.0
    for k in range(n_bundles):
        z = values[np.asarray(labels) == k].sum(axis=0)
        if kind == Criterion.IMCY:
            z = np.diff(z)
        total += pop_var(z)
    return total


def test_quadratic_form_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(8675309)
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(8, 65))
        k = int(rng.integers(1, n + 1))
        panel = random_panel(rng, n, t)
        labels = random_bundling_labels(rng, n, k)
        bundling = Bundling(labels, panel.asset_ids)
        for kind in Criterion:
            sigma = covariance(panel, kind)
            trace_value = objective(bundling, sigma)
            direct = direct_criterion(panel.values, labels, k, kind)
            # absolute floor covers exact-cancellation cases (K=1 savar is
            # identically zero); both sides are then pure roundoff of the
            # sigma-magnitude computation
            tol = 1e-8 * max(abs(direct), abs(trace_value)) \
                + 1e-10 * np.abs(sigma).sum()
            if abs(trace_value - direct) > tol:
                failures.append(
                    f"instance {trial} {kind.value}: |{trace_value} - {direct}| "
                    f"> 1e-8 relative")
    gate("quadratic-form identity (200 instances, 3 criteria)",
         time.perf_counter() - start, 5.0, failures)


# --- 2. greedy vs exact ----------------------------------------------------------

def test_greedy_close_to_exact():
    start = time.perf_counter()
    criteria = ["variance", "savar", "imcy"]
    diameter_fracs = [None, 1.0, 0.95]
    failures = []
    n_within = 0
    for i in range(50):
        n = 6 + i % 5
        k = 2 + i % 2
        crit = criteria[i % 3]
        cfg = SynthConfig(n_assets=n, n_steps=400, granularity_minutes=15,
                          seed=1000 + i, n_regions=1, noise_scale=0.5,
                          anticorrelated_pairs=min(i % 3, n // 2))
        panel = synth_panel(cfg)
        d = haversine_matrix(panel.assets)
        frac = diameter_fracs[i % 3]
        diameter = math.inf if frac is None else frac * d.max()
        sigma = covariance(panel, crit)
        greedy_obj = objective(greedy_merge(sigma, d, k, diameter, panel.asset_ids), sigma)
        exact_obj = objective(exact_partition(sigma, d, k, diameter, panel.asset_ids), sigma)
        if exact_obj > greedy_obj + 1e-9 * abs(greedy_obj):
            failures.append(f"instance {i}: exact {exact_obj} > greedy {greedy_obj}")
        if greedy_obj <= 1.05 * exact_obj + 1e-12:
            n_within += 1
    if n_within < 45:
        failures.append(f"greedy within 5% of optimum on only {n_within}/50 instances")
    gate(f"greedy vs exact (50 instances, within-5% on {n_within}/50)",
         time.perf_counter() - start, 60.0, failures)


# --- 3. anticorrelated-pair variance reduction --------------------------------------

def test_bundling_reduces_variance_of_anticorrelated_pair():
    start = time.perf_counter()
    cfg = SynthConfig(n_assets=2, n_steps=600, granularity_minutes=15, seed=13,
                      n_regions=1, anticorrelated_pairs=1)
    panel = synth_panel(cfg)
    sigma = covariance(panel, "variance")
    singletons = objective(Bundling([0, 1], panel.asset_ids), sigma)
    merged = objective(Bundling.single_bundle(panel.asset_ids), sigma)
    failures = []
    if not merged <= 0.5 * singletons:
        failures.append(
            f"merged objective {merged} not half of singleton objective {singletons}")
    gate(f"variance reduction by pairing (merged/singletons = "
         f"{merged / singletons:.3f})", time.perf_counter() - start, 1.0, failures)


# --- 4. exact objective monotone in diameter -----------------------------------------

def test_exact_objective_monotone_in_diameter():
    start = time.perf_counter()
    cfg = SynthConfig(n_assets=10, n_steps=400, granularity_minutes=15, seed=3,
                      n_regions=3, anticorrelated_pairs=2)
    panel = synth_panel(cfg)
    d = haversine_matrix(panel.assets)
    diameters = [150.0, 400.0, 700.0, 1000.0, math.inf]
    failures = []
    for kind in (Criterion.IMCY, Criterion.SAVAR):
        sigma = covariance(panel, kind)
        series = []
        for diameter in diameters:
            try:
                b = exact_partition(sigma, d, 3, diameter, panel.asset_ids)
            except InfeasiblePartitionError:
                continue
            series.append((diameter, objective(b, sigma)))
        if len(series) < 3:
            failures.append(f"{kind.value}: fewer than 3 feasible diameters")
        for (d1, o1), (d2, o2) in zip(series, series[1:]):
            if o2 > o1 + 1e-9 * abs(o1):
                failures.append(
                    f"{kind.value}: objective rose from {o1} (D={d1}) to {o2} (D={d2})")
    gate("exact objective monotone non-increasing in diameter (imcy, savar)",
         time.perf_counter() - start, 30.0, failures)


# --- 5. reconciliation exactness -------------------------------------------------------

def test_reconciliation_exactness():
    start = time.perf_counter()
    failures = []

    # hand-derived case
    b2 = Bundling([0, 0], ("a", "b"))
    w2 = np.ones((1, 4))
    model2 = build_reconciler(b2, w2)
    origins = np.array(["2019-01-08T00:00:00"], dtype="datetime64[s]")
    hand_in = HierarchyForecast(origins, np.array([10.0, 10.0, 3.0, 5.0]).reshape(1, 4, 1), 1, 2)
    hand_out = reconcile(model2, hand_in).values[0, :, 0]
    if np.max(np.abs(hand_out - [9.6, 9.6, 3.8, 5.8])) > 1e-10:
        failures.append(f"hand case produced {hand_out}")

    rng = np.random.default_rng(424242)
    oracle_checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(n, 4) + 1))
        horizon = int(rng.integers(1, 7))
        labels = random_bundling_labels(rng, n, k)
        bundling = Bundling(labels, tuple(f"a{i}" for i in range(n)))
        s = summing_matrix(bundling)
        weights = rng.uniform(0.1, 10.0, size=(horizon, n + k + 1))
        model = build_reconciler(bundling, weights)
        gains = reconciler_gains(model)
        values = rng.uniform(0.0, 100.0, size=(2, n + k + 1, horizon))
        fc = HierarchyForecast(
            origins[0] + np.timedelta64(900, "s") * np.arange(2), values, k, n)
        rec = reconcile(model, fc)

        if coherence_gap(rec, s) > 1e-9 * 100.0 * n:
            failures.append(f"instance {trial}: coherence gap {coherence_gap(rec, s)}")
        again = reconcile(model, rec)
        if np.max(np.abs(again.values - rec.values)) > 1e-10 * max(1.0, rec.values.max()):
            failures.append(f"instance {trial}: reconcile not idempotent")
        for tau in range(horizon):
            if np.max(np.abs(gains[tau] @ s - np.eye(n))) > 1e-8:
                failures.append(f"instance {trial}: G@S != I at lead {tau + 1}")
        rescaled = weights * rng.uniform(0.01, 100.0)
        if np.max(np.abs(reconciler_gains(build_reconciler(bundling, rescaled)) - gains)) > 1e-10:
            failures.append(f"instance {trial}: gains changed under weight rescaling")

        if trial % 5 == 0:  # independent WLS minimizer oracle
            oracle_checked += 1
            h = fc.values[0, :, 0]
            inv_w = 1.0 / weights[0]

            def wls(bottom):
                r = h - s @ bottom
                return float(r @ (inv_w * r))

            def wls_grad(bottom):
                return -2.0 * s.T @ (inv_w * (h - s @ bottom))

            res = minimize(wls, np.zeros(n), jac=wls_grad, method="L-BFGS-B",
                           options={"gtol": 1e-12, "ftol": 1e-15})
            ours = rec.values[0, 1 + k:, 0]
            if np.max(np.abs(ours - res.x)) > 1e-6 * max(1.0, np.abs(h).max()):
                failures.append(f"instance {trial}: minimizer disagrees by "
                                f"{np.max(np.abs(ours - res.x))}")
    gate(f"reconciliation exactness (100 instances, {oracle_checked} oracle solves)",
         time.perf_counter() - start, 10.0, failures)


# --- 6. metric oracle equivalence ----------------------------------------------------------

def nmae_naive(a, f, caps):
    m, n, t = a.shape
    total = 0.0
    for mm in range(m):
        for i in range(n):
            total += sum(abs(a[mm, i, tt] - f[mm, i, tt]) for tt in range(t)) / caps[i]
    return total / (m * n * t) * 100.0


def rmse_naive(a, f):
    m, n, t = a.shape
    total = sum((a[mm, i, tt] - f[mm, i, tt]) ** 2
                for mm in range(m) for i in range(n) for tt in range(t))
    return (total / (m * n * t)) ** 0.5


def vs_naive(a, f, p):
    m, n, t = a.shape
    total = 0.0
    for mm in range(m):
        for i in range(n):
            for j in range(n):
                for t1 in range(t):
                    for t2 in range(t):
                        total += (abs(a[mm, i, t1] - a[mm, j, t2]) ** p
                                  - abs(f[mm, i, t1] - f[mm, j, t2]) ** p) ** 2
    return total / m


def ed_naive(a, f):
    m, n, t = a.shape
    total = 0.0
    for mm in range(m):
        sq = sum((a[mm, i, tt] - f[mm, i, tt]) ** 2 for i in range(n) for tt in range(t))
        total += sq ** 0.5
    return 2.0 * total / m


def test_metric_oracle_equivalence():
    start = time.perf_counter()
    failures = []

    hand = [
        ("nmae", score_block(np.zeros((1, 1, 2)), np.array([[[1.0, 3.0]]]), [10.0]).nmae, 20.0),
        ("rmse", score_block(np.zeros((1, 1, 4)), np.array([[[6.0, 0.0, 0.0, 0.0]]])).rmse, 3.0),
        ("vs", variogram_score(np.array([[[0.0, 4.0]]]), np.array([[[0.0, 1.0]]])), 2.0),
        ("ed", score_block(np.zeros((1, 1, 2)), np.array([[[3.0, 4.0]]])).ed, 10.0),
    ]
    for name, got, expect in hand:
        if got != pytest.approx(expect, rel=1e-12):
            failures.append(f"hand example {name}: got {got}, expected {expect}")

    rng = np.random.default_rng(600613)
    for trial in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        a = rng.uniform(0, 100, size=(m, n, t))
        f = rng.uniform(0, 100, size=(m, n, t))
        caps = rng.uniform(10, 200, size=n)
        report = score_block(a, f, caps)
        checks = [
            ("nmae", report.nmae, nmae_naive(a, f, caps)),
            ("rmse", report.rmse, rmse_naive(a, f)),
            ("vs", variogram_score(a, f), vs_naive(a, f, 0.5)),
            ("ed", report.ed, ed_naive(a, f)),
        ]
        for name, fast, slow in checks:
            if abs(fast - slow) > 1e-9 * max(abs(slow), 1e-12):
                failures.append(f"instance {trial} {name}: {fast} vs naive {slow}")
    gate("metric oracle equivalence (100 instances + 4 hand values)",
         time.perf_counter() - start, 5.0, failures)


# --- 7 & 8. end-to-end run and determinism ------------------------------------------------

E2E_SYNTH = """
n_assets = 20
n_steps = 8640
granularity_minutes = 15
seed = 42
n_regions = 4
ar_coefficient = 0.97
seasonal_amplitude = 0.8
noise_scale = 0.5
anticorrelated_pairs = 2
start = 2019-01-01T00:00:00Z
assets_file = {dir}/assets.csv
series_file = {dir}/series.csv
"""

E2E_RUN = """
task = short_term
history_len = 48
horizon = 24
granularity_minutes = 15
n_bundles = 4
criterion = savar
diameter_km = unbounded
fleet_model = ridge
fleet_ridge_lambda = 1.0
fleet_use_calendar_encodings = true
bundle_model = ridge
bundle_ridge_lambda = 1.0
bundle_use_calendar_encodings = true
asset_model = persistence
asset_ridge_lambda = 0.0
asset_use_calendar_encodings = false
train_start = 2019-01-01T00:00:00Z
train_end = 2019-03-26T23:45:00Z
test_start = 2019-03-27T00:00:00Z
test_end = 2019-03-31T23:45:00Z
seed = 42
assets_file = {dir}/assets.csv
series_file = {dir}/series.csv
output_dir = {dir}/{out}
baseline = true
"""


def e2e_configs(tmp_path, out):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(E2E_SYNTH.format(dir=tmp_path))
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(E2E_RUN.format(dir=tmp_path, out=out))
    return synth_cfg, run_cfg


def comparison_fleet_nmae(path):
    for line in path.read_text().strip().splitlines()[1:]:
        level, metric, bundled, baseline = line.split(",")
        if level == "fleet" and metric == "nmae":
            return float(bundled), float(baseline)
    raise AssertionError("fleet nmae row missing from comparison.csv")


def test_end_to_end_run():
    start = time.perf_counter()
    import tempfile
    from pathlib import Path

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        synth_cfg, run_cfg = e2e_configs(tmp_path, "run_dir")
        if main(["synth", "--config", str(synth_cfg)]) != 0:
            failures.append("synth command failed")
        if main(["run", "--config", str(run_cfg)]) != 0:
            failures.append("run command failed")
        out = tmp_path / "run_dir"

        expected = {"bundling.csv", "forecasts_raw.csv", "forecasts_reconciled.csv",
                    "evaluation.csv", "evaluation_raw.csv", "diagnostics.csv",
                    "comparison.csv", "manifest.json", "baseline_bundling.csv",
                    "baseline_forecasts_raw.csv", "baseline_forecasts_reconciled.csv",
                    "baseline_evaluation.csv", "baseline_evaluation_raw.csv",
                    "baseline_diagnostics.csv"}
        missing = expected - {p.name for p in out.iterdir()}
        if missing:
            failures.append(f"missing outputs: {sorted(missing)}")

        # coherence re-validated from the CSV files alone
        panel = ingest_panel(tmp_path / "assets.csv", tmp_path / "series.csv")
        bundling = read_bundling_csv(out / "bundling.csv", panel.asset_ids)
        reconciled = read_forecast_csv(out / "forecasts_reconciled.csv",
                                       panel.asset_ids, bundling.n_bundles)
        gap = coherence_gap(reconciled, summing_matrix(bundling))
        if gap > 1e-9 * panel.fleet_capacity:
            failures.append(f"reconciled CSV coherence gap {gap} above "
                            f"{1e-9 * panel.fleet_capacity}")

        bundled_nmae, baseline_nmae = comparison_fleet_nmae(out / "comparison.csv")
        if bundled_nmae > baseline_nmae:
            failures.append(
                f"bundled fleet NMAE {bundled_nmae} above baseline {baseline_nmae}")

        manifest = json.loads((out / "manifest.json").read_text())
        if manifest.get("version") is None or manifest.get("config_sha256") is None:
            failures.append("manifest incomplete")

    elapsed = time.perf_counter() - start
    gate(f"end-to-end 20-asset 90-day run (fleet NMAE {bundled_nmae:.3f} bundled "
         f"vs {baseline_nmae:.3f} baseline)", elapsed, 180.0, failures)


def test_run_directory_determinism():
    start = time.perf_counter()
    import tempfile
    from pathlib import Path

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        synth_cfg, run_cfg = e2e_configs(tmp_path, "first")
        if main(["synth", "--config", str(synth_cfg)]) != 0:
            failures.append("synth command failed")
        if main(["run", "--config", str(run_cfg)]) != 0:
            failures.append("first run failed")
        if main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "second")]) != 0:
            failures.append("second run failed")
        first, second = tmp_path / "first", tmp_path / "second"
        names1 = sorted(p.name for p in first.iterdir())
        names2 = sorted(p.name for p in second.iterdir())
        if names1 != names2:
            failures.append(f"file sets differ: {names1} vs {names2}")
        else:
            for name in names1:
                if (first / name).read_bytes() != (second / name).read_bytes():
                    failures.append(f"{name} differs between runs")
    gate("byte-identical run directories for identical config",
         time.perf_counter() - start, 180.0, failures)
