#!/usr/bin/env python3
"""bundlecast benchmark: seeded synthetic workloads through the public CLI.

    python3 bench/run.py --workload backtest_n200 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --size smoke --trace 1 --seconds 0

Run it from a checkout that holds ``src/bundlecast``; it imports the package
from there and fails (exit 2, no result) when the source tree is missing.

One run of a workload:

1. set-up: generates the inputs from ``--seed`` (``write_synth_csv`` plus the
   run config) before the first repetition and again after each one, at
   least five times in all, so that its timings spread over the run as the
   commands' do. The copies must be byte-identical; ``setup_s`` is the
   median;
2. measurement: runs the workload's CLI commands in a fresh Python process
   per repetition until ``--seconds`` have passed, with at least two
   repetitions. ``run_s`` and ``peak_rss_mb`` are medians over repetitions;
3. checks: every command exits 0, rep0's outputs are correct (see
   ``check_outputs``) and every later run directory is byte-identical to
   rep0's.

With ``--trace 1`` the repetitions alternate untraced and traced, and the
result holds the per-layer metrics instead (see ``spans.py``);
``bench.trace_overhead_s`` is the difference of their ``run_s`` medians.
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A record
of every repetition, with the spans of traced ones, is written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

sys.path.insert(0, str(HERE))
from spans import EXACT_COUNTS, LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import NAMES, SIZES  # noqa: E402

SETUP_REPEATS = 5         # at least
BUDGET_S = 165.0          # per workload: no repetition runs past this, so that a
                          # run ends within three minutes
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: with two threads on two cores, any competing process made
# build_reconciler 15x slower (1.7 s -> 29 s at N=500), and even alone two
# threads were slower than one.
BLAS_THREADS = 1

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Operations:
    """Counts attempted and failed operations: commands run and checks made."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def tree_digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def environment(seed: int, blas_threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "bundlecast").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


# --- set-up -----------------------------------------------------------------------

class SetUp:
    """Generates a workload's inputs from its seed and times every generation."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.totals: list[float] = []   # write_synth_csv plus the run config
        self.synth: list[float] = []    # write_synth_csv alone
        self.digests: list[dict] = []

    def once(self) -> Path:
        from bundlecast.synth import SynthConfig, write_synth_csv

        inputs = self.work / f"inputs{len(self.totals)}"
        inputs.mkdir()
        start = time.perf_counter()
        write_synth_csv(SynthConfig(**self.workload.synth_config(self.seed)),
                        inputs / "assets.csv", inputs / "series.csv")
        generated = time.perf_counter()
        (inputs / "run.cfg").write_text(self.workload.run_config(self.seed), encoding="utf-8")
        self.totals.append(time.perf_counter() - start)
        self.synth.append(generated - start)
        self.digests.append(tree_digest(inputs))
        return inputs

    def again(self) -> None:
        """Generate and time once more, keeping only the timing and the digest."""
        shutil.rmtree(self.once())


# --- one repetition -------------------------------------------------------------

def run_repetition(workload, inputs: Path, out: Path, traced: bool, run_id: str,
                   timeout: float) -> dict:
    """Run the workload's commands in a fresh process; returns the child's record."""
    spec_path = out.with_name(out.name + ".spec.json")
    result_path = out.with_name(out.name + ".result.json")
    spec = {
        "src": str(SRC), "trace": traced, "run_id": run_id,
        "commands": [[cmd, "--config", "run.cfg", "--out", str(out)]
                     for cmd in workload.commands],
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=inputs, capture_output=True, text=True, timeout=timeout, check=False)
        record = (json.loads(result_path.read_text(encoding="utf-8"))
                  if proc.returncode == 0 and result_path.exists() else None)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        record, stderr = None, f"timed out after {timeout:.0f} s"
    if record is None:
        record = {"times": None, "codes": [None] * len(workload.commands),
                  "errors": [stderr] * len(workload.commands), "maxrss_kb": None,
                  "blas_threads": None, "spans": None}
    record["traced"] = traced
    record["run_id"] = run_id
    return record


# --- output checks -----------------------------------------------------------------

def check_outputs(workload, inputs: Path, out: Path, ops: Operations) -> dict[str, float]:
    """Check one run directory; returns the accuracy figures it reports."""
    if workload.kind == "sweep":
        return _check_sweep(workload, out, ops)

    from bundlecast import coherence_gap, ingest_panel, summing_matrix
    from bundlecast.bundling import read_bundling_csv
    from bundlecast.forecast import read_forecast_csv

    panel = ingest_panel(inputs / "assets.csv", inputs / "series.csv")
    bound = 1e-9 * panel.fleet_capacity  # what FLOAT_FORMAT promises after a round trip
    all_persistence = all(m == "persistence" for m, _ in workload.models.values())
    for prefix in ("", "baseline_") if workload.baseline else ("",):
        bundling = read_bundling_csv(out / f"{prefix}bundling.csv", panel.asset_ids)
        reconciled = read_forecast_csv(out / f"{prefix}forecasts_reconciled.csv",
                                       panel.asset_ids, bundling.n_bundles)
        gap = coherence_gap(reconciled, summing_matrix(bundling))
        ops.check(f"{prefix}forecasts_reconciled.csv is coherent", gap <= bound,
                  f"coherence gap {gap:.3e} above {bound:.3e}")
        if all_persistence:
            raw = read_forecast_csv(out / f"{prefix}forecasts_raw.csv",
                                    panel.asset_ids, bundling.n_bundles)
            moved = float(abs(raw.values - reconciled.values).max())
            ops.check(f"{prefix}reconciliation is the identity on coherent input",
                      moved <= bound, f"moved a value by {moved:.3e} (bound {bound:.3e})")

    reported = {}
    for line in (out / "evaluation.csv").read_text(encoding="utf-8").splitlines()[1:]:
        level, metric, value, _, series_id = line.split(",")
        if metric == "nmae" and not series_id:
            reported[level] = float(value)
    accuracy = {"nmae_fleet_pct": reported.get("fleet", math.nan),
                "nmae_asset_pct": reported.get("asset", math.nan)}
    ops.check("evaluation.csv reports fleet and asset NMAE in (0, 100] %",
              all(0.0 < v <= 100.0 for v in accuracy.values()), str(accuracy))
    return accuracy


def _check_sweep(workload, out: Path, ops: Operations) -> dict[str, float]:
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    ops.check("sweep.csv header", lines[0] == "diameter_km,criterion,objective,feasible",
              lines[0])
    rows = [line.split(",") for line in lines[1:]]
    diameters = [float(d) for d in workload.diameters.split(",")]
    expected = [(d, c) for c in ("savar", "imcy") for d in diameters]
    ops.check("sweep.csv has one row per criterion and diameter",
              [(float(r[0]), r[1]) for r in rows] == expected, str(rows))
    ops.check("every feasible sweep row has a positive objective",
              all(r[3] == "false" or float(r[2]) > 0.0 for r in rows), str(rows))
    return {}


# --- one workload ---------------------------------------------------------------------

def bench_workload(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns (result, record)."""
    started = time.perf_counter()
    ops = Operations()
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = SetUp(workload, seed, work)
        inputs = setup.once()
        reps, accuracy, reference = [], {}, None
        measure_start = time.perf_counter()
        for index in itertools.count():
            out = work / f"rep{index}"
            rep_start = time.perf_counter()
            rep = run_repetition(workload, inputs, out, trace and index % 2 == 1,
                                 f"{workload.name}-seed{seed}-rep{index}",
                                 timeout=started + BUDGET_S - rep_start)
            rep_wall = time.perf_counter() - rep_start
            for cmd, code, error in zip(workload.commands, rep["codes"], rep["errors"]):
                ops.check(f"rep{index} {cmd} exits 0", code == 0, error or f"exit {code}")
            if index == 0:
                try:
                    accuracy = check_outputs(workload, inputs, out, ops)
                except Exception as exc:  # unreadable outputs fail the check
                    ops.check("outputs of rep0 are readable", False, repr(exc))
                reference = tree_digest(out) if out.exists() else None
            else:
                ops.check(f"rep{index} run directory is byte-identical to rep0",
                          out.exists() and tree_digest(out) == reference)
                shutil.rmtree(out, ignore_errors=True)
            reps.append(rep)
            setup.again()

            traced = sum(r["traced"] for r in reps)
            enough = (len(reps) - traced >= (1 if trace else 2)
                      and traced >= (2 if trace else 0))
            now = time.perf_counter()
            if enough and now - measure_start + rep_wall / 2 >= seconds:
                break  # the next repetition would end more than half past the window
            if now + rep_wall > started + BUDGET_S:
                ops.check("enough repetitions fit into the time budget", enough)
                break
        while len(setup.totals) < SETUP_REPEATS:
            setup.again()
        ops.check("set-up inputs are byte-identical for one seed",
                  all(d == setup.digests[0] for d in setup.digests))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if any(r["times"] is None for r in reps):
        return None, {"failures": ops.failures, "reps": reps}
    run_s = {t: [sum(r["times"]) for r in reps if r["traced"] == t] for t in (False, True)}
    if trace:
        traced = [r for r in reps if r["traced"]]
        for r in traced:  # so that pipeline.self_s and the child spans add up to run_s
            covered = sum(s["end"] - s["start"] for s in r["spans"] if s["parent"] is None)
            ops.check(f"{r['run_id']}: command spans cover run_s",
                      abs(covered - sum(r["times"])) <= 1e-3 * (1.0 + sum(r["times"])),
                      f"{covered} vs {sum(r['times'])}")
        per_rep = [layer_metrics(r["spans"]) for r in traced]
        for name in EXACT_COUNTS:
            values = [m[name] for m in per_rep]
            ops.check(f"{name} repeats exactly across traced runs",
                      all(v == values[0] for v in values), str(values))
        samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
        samples["synth.write_synth_csv_s"] = setup.synth
        metrics = {name: (values[0] if name in EXACT_COUNTS else statistics.median(values))
                   for name, values in samples.items()}
        metrics["bench.trace_overhead_s"] = (statistics.median(run_s[True])
                                             - statistics.median(run_s[False]))
        units = LAYER_METRICS
    else:
        samples = {"run_s": run_s[False], "setup_s": setup.totals,
                   "peak_rss_mb": [r["maxrss_kb"] * 1024 / 1e6 for r in reps]}
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = END_TO_END
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "environment": environment(seed, reps[0]["blas_threads"]),
        "accuracy": accuracy,
        "fail_frac": len(ops.failures) / ops.attempted,
        "failures": ops.failures,
        "samples": samples,
        "reps": reps,
        "result": result,
    }
    return result, record


def report(workload, seed: int, trace: bool, result: dict, record: dict) -> None:
    """Print the human-readable lines that precede the JSON result."""
    reps = record["reps"]
    print(f"== {workload.name} seed={seed} trace={int(trace)} "
          f"repetitions={len(reps)} (traced {sum(r['traced'] for r in reps)})")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in result["metrics"].items():
        values = [] if name in EXACT_COUNTS else record["samples"].get(name, [])
        spread = (f" (median of {len(values)}, {min(values):.4g}..{max(values):.4g})"
                  if len(values) > 1 else "")
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{spread}")
    print(f"  fail_frac = {record['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for name, value in record["accuracy"].items():
        print(f"  {name} = {value:.12g} %")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="bench")
    args = parser.parse_args(argv)

    if not (SRC / "bundlecast" / "__init__.py").is_file():
        print(f"no bundlecast source tree under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        workload = SIZES[args.size][name]
        result, record = bench_workload(workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            for failure in record["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            print(f"{name}: no repetition completed", file=sys.stderr)
            return 1
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}_{args.size}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        report(workload, args.seed, bool(args.trace), result, record)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
