"""Mutants of ``src/bundlecast`` and the tests that must kill them.

Each entry of ``MUTANTS`` names a source text that occurs exactly once in
``src/bundlecast``, the text that replaces it, and the ids of the tests that
must fail on the edited copy. ``tests/test_mutants.py`` only checks that
each source text still occurs exactly once, so a refactor that moves the
code must update the entry; ``python tests/mutants.py`` runs every mutant.

For each mutant it copies ``src/`` to a temporary directory, applies the
edit there, and runs the mutant's tests from this checkout against the copy
with ``--hypothesis-seed=0 -p no:cacheprovider`` (Hypothesis keeps its
example database in the temporary directory too). A mutant is killed when
every one of its tests fails; the ids name single tests, and a
parametrized one names its case. Tests that run past ``TIMEOUT_S`` are
stopped and count as failed. The script prints one line per mutant and the
total run time, and exits 1 unless every mutant is killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bundlecast"
TIMEOUT_S = 180  # per mutant; the slowest takes about 10 s


class Mutant(NamedTuple):
    name: str
    source: str        # occurs exactly once under src/bundlecast
    replacement: str
    kills: tuple[str, ...]  # test ids, each of which must fail


GATHERS = "tests/test_bundling.py::test_aggregate_and_objective_keep_the_bits_of_the_full_gathers"
RECONCILE_BITS = "tests/test_reconcile.py::test_reconcile_keeps_the_bits_of_the_concatenated_rows"
READER = "tests/test_forecast.py::test_read_forecast_csv_"

MUTANTS = (
    # bit identity of the in-place kernels with their direct expressions
    Mutant("fleet-add-reduce",
           "fleet = np.add.reduceat(values, [0], axis=axis)",
           "fleet = np.add.reduce(values, axis=axis, keepdims=True)",
           (GATHERS, RECONCILE_BITS)),
    Mutant("objective-bincount",
           "return float(bundling._bundle_sums(own).sum())",
           "return float(np.bincount(bundling.labels, weights=own).sum())",
           (GATHERS,)),
    Mutant("reconcile-fused-reassociated",
           "fused = asset_sums + gains[1:1 + k] * (forecasts.bundles - asset_sums)",
           "fused = (1.0 - gains[1:1 + k]) * asset_sums + gains[1:1 + k] * forecasts.bundles",
           (RECONCILE_BITS,)),
    Mutant("reconcile-correction-reassociated",
           "correction = fused + shares[1:1 + k] * (fleet - total) - asset_sums",
           "correction = fused - asset_sums + shares[1:1 + k] * (fleet - total)",
           (RECONCILE_BITS,)),
    Mutant("haversine-reassociated",
           "weights = np.multiply.outer(cos_lat, cos_lat)\n    weights *= term",
           "weights = term * cos_lat[:, None]\n    weights *= cos_lat[None, :]",
           ("tests/test_core.py::test_haversine_keeps_the_bits_of_the_direct_expression",)),
    Mutant("covariance-without-syrk",
           "sigma = rows @ rows.T",
           "sigma = rows @ rows.T.copy()",
           ("tests/test_core.py::test_covariance_keeps_the_bits_of_the_direct_expression",)),
    # the forecast CSV reader's one check per line
    Mutant("reader-line-off-by-one",
           "ln = 2 + len(instants) * size",
           "ln = 1 + len(instants) * size",
           (READER + "rejects_malformed_rows[repeated-origin]",
            READER + "rejects_lines_out_of_order[swapped-leads]")),
    Mutant("reader-origin-lt",
           "if instants and instant <= instants[-1]:",
           "if instants and instant < instants[-1]:",
           (READER + "rejects_malformed_rows[repeated-origin]",)),
    Mutant("reader-no-isfinite",
           "if values is None or not np.isfinite(values).all():",
           "if values is None:",
           (READER + "rejects_lines_out_of_order[infinite-in-block]",
            READER + "reads_or_rejects_like_a_cell_by_cell_parse")),
    # one per oracle of the method's defining invariants
    Mutant("greedy-maximizes",
           "pairs = np.where(np.triu(distances <= diameter_km, k=1), s, np.inf)",
           "pairs = np.where(np.triu(distances <= diameter_km, k=1), -s, np.inf)",
           ("tests/test_acceptance.py::test_greedy_close_to_exact",
            "tests/test_bundling.py::test_greedy_within_tolerance_of_exact")),
    Mutant("reconcile-shifted-sums",
           "asset_sums = bundling.aggregate(forecasts.assets, axis=1)[:, 1:]",
           "asset_sums = bundling.aggregate(forecasts.assets, axis=1)[:, :-1]",
           ("tests/test_reconcile.py::test_gains_times_summing_is_identity",
            "tests/test_reconcile.py::test_reconcile_identity_on_coherent_input")),
    Mutant("reconcile-inverted-gain",
           "g_bundle = w_bundle / (v_bundle + w_bundle)",
           "g_bundle = v_bundle / (v_bundle + w_bundle)",
           ("tests/test_reconcile.py::test_reconciled_bottom_minimizes_weighted_least_squares",
            "tests/test_reconcile.py::test_reconcile_matches_dense_normal_solve")),
    Mutant("csv-eight-digits",
           'FLOAT_FORMAT = "%.12g"',
           'FLOAT_FORMAT = "%.8g"',
           ("tests/test_acceptance.py::test_end_to_end_run",
            "tests/test_pipeline.py::test_cli_stagewise_pipeline")),
    Mutant("manifest-clock",
           '"version": __version__,',
           '"version": f"{__version__}+{__import__(\'time\').time_ns()}",',
           ("tests/test_acceptance.py::test_run_directory_determinism",
            "tests/test_pipeline.py::test_cli_run_determinism")),
    # the run directory's producer table names the stage that writes a missing input
    Mutant("producer-reconciled-by-evaluate",
           'RECONCILED_FILE: "reconcile",',
           'RECONCILED_FILE: "evaluate",',
           ("tests/test_pipeline.py::test_cli_stage_names_the_stage_that_writes_a_missing_input"
            "[forecasts_reconciled.csv]",)),
    # one bit rule beside the forecast writer
    Mutant("same-bits-by-value",
           "return np.array_equal(a.view(np.int64), b.view(np.int64))",
           "return np.array_equal(a, b)",
           ("tests/test_forecast.py::test_same_bits_tells_signed_zeros_apart",
            "tests/test_forecast.py::test_splice_rejects_a_copied_row_that_differs_in_one_bit[0]",
            "tests/test_forecast.py::test_splice_rejects_a_copied_row_that_differs_in_one_bit[3]",
            "tests/test_pipeline.py::"
            "test_run_writes_a_reconciliation_that_turns_negative_zeros_positive")),
)


def source_counts(package: Path, source: str) -> dict[Path, int]:
    """How often ``source`` occurs in each module of ``package`` that holds it."""
    texts = {path: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    return {path: text.count(source) for path, text in texts.items() if source in text}


def mutate(package: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy of ``src/bundlecast`` at ``package``."""
    counts = source_counts(package, mutant.source)
    if list(counts.values()) != [1]:
        raise SystemExit(f"{mutant.name}: the source text does not occur once in {package}")
    [path] = counts
    path.write_text(path.read_text(encoding="utf-8").replace(mutant.source, mutant.replacement),
                    encoding="utf-8")


def failed_tests(mutant: Mutant) -> set[str]:
    """The ids of the tests that fail when ``mutant.kills`` run against a copy of
    ``src/`` with ``mutant`` applied; ``PYTHONPATH`` puts the copy first."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src / "bundlecast", mutant)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / ".hypothesis"),
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                            os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE",
                                   "--hypothesis-seed=0", "-p", "no:cacheprovider", *mutant.kills],
                                  env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{mutant.name}: its tests ran past {TIMEOUT_S} s and were stopped")
            return set(mutant.kills)
    if proc.returncode not in (0, 1):  # 2 and up: interrupted, usage or collection error
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}"
                         f"{proc.stderr}")
    # a short summary line is "FAILED <id>" or "FAILED <id> - <message>"
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def main() -> int:
    start = time.perf_counter()
    survivors = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        passed = [test for test in mutant.kills if test not in failed_tests(mutant)]
        print(f"{'survived' if passed else 'killed':8} {mutant.name} "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
        for test in passed:
            print(f"         passes: {test}")
        survivors += [mutant.name] if passed else []
    print(f"{len(survivors)} survived; total {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
