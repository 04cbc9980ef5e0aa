"""Guards on the API surface: every error kind is raised, every export resolves, the
names the benchmark binds stay put, and the command line needs NumPy alone."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bundlecast
from bundlecast import Bundling, build_reconciler, errors, greedy_merge, rundir
from bundlecast.forecast import read_forecast_csv, write_forecast_csv

PACKAGE_DIR = Path(bundlecast.__file__).parent
BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
BENCH_RUN = BENCH_SPANS.with_name("run.py")


def raised_classes():
    """Exception classes named by a ``raise`` statement anywhere in the package."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(
            "bundlecast" if path.stem == "__init__" else f"bundlecast.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                obj = getattr(module, target.id, None)
                if inspect.isclass(obj) and issubclass(obj, BaseException):
                    found.add(obj)
    return found


def test_every_error_class_is_raised():
    """A class in ``bundlecast.errors`` is raised itself or through a subclass
    (``pipeline._stage`` raises the base class itself)."""
    raised = raised_classes()
    defined = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__]
    unraised = [cls.__name__ for cls in defined
                if not any(issubclass(r, cls) for r in raised)]
    assert unraised == []


def test_every_export_resolves():
    missing = [name for name in bundlecast.__all__ if not hasattr(bundlecast, name)]
    assert missing == []
    assert len(set(bundlecast.__all__)) == len(bundlecast.__all__)


def used_names(tree) -> set[str]:
    """Names a module reads, bare (``f``) or as an attribute (``module.f``)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def attribute_reads(nodes) -> set[str]:
    """Names the given trees read as an attribute (``x.name``)."""
    return {node.attr for tree in nodes for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_the_package_holds_what_a_command_runs():
    """Each public top-level function or class is used by its own module or
    by another package module (a re-export in ``__init__`` does not count), or
    ``bench/run.py`` imports it from ``bundlecast``. Each public method or
    property of a public class is read as an attribute outside its class, by
    a package module or by the benchmark's code in ``bench/``. Oracles that
    only the tests need live in ``tests/oracles.py``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    uses = {stem: used_names(tree) for stem, tree in trees.items() if stem != "__init__"}
    bench = {alias.name for node in ast.walk(ast.parse(BENCH_RUN.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.partition(".")[0] == "bundlecast"
             for alias in node.names}
    unused = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in names for names in uses.values())
              and node.name not in bench]
    assert unused == []

    bench_code = attribute_reads(ast.parse(path.read_text(encoding="utf-8"))
                                 for path in sorted(BENCH_RUN.parent.glob("*.py"))
                                 if not path.name.startswith("test_"))
    classes = [(stem, node) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    unread = []
    for stem, cls in classes:
        outside = bench_code | attribute_reads(
            node for tree in trees.values() for node in tree.body if node is not cls)
        unread += [f"{stem}.{cls.name}.{node.name}" for node in cls.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                   and node.name not in outside]
    assert unread == []


def docstring_nodes(tree) -> set[int]:
    """``id`` of each docstring's node in ``tree``: the module's, each class's and
    each function's."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def test_only_rundir_holds_the_run_directory_file_names():
    """Outside docstrings, no module but ``rundir.py`` holds a string that names a
    run-directory file, so the layout of the run directory stays in one module."""
    names = sorted(rundir.PRODUCER)
    assert "bundling.csv" in names and "forecasts_reconciled.csv" in names
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "rundir.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = docstring_nodes(tree)
        found += [f"{path.name}:{node.lineno}: {name}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings
                  for name in names if name in node.value]
    assert found == []


def test_forecast_csv_parameters_keep_their_names():
    """The benchmark's span counters (``bench/spans.py``) bind these parameters
    and the return value by name, so a rename would silently zero them."""
    assert list(inspect.signature(write_forecast_csv).parameters) == [
        "forecast", "asset_ids", "path"]
    assert list(inspect.signature(read_forecast_csv).parameters) == [
        "path", "asset_ids", "n_bundles"]


def test_traced_layer_names_keep_their_names():
    """``bench/spans.py`` wraps each of its layer functions by name (among them
    ``forecast.ridge_fit``, ``forecast.rolling_forecast`` and
    ``reconcile.estimate_weights``), counts merges from ``greedy_merge``'s
    ``asset_order`` argument, counts rows and bytes from
    ``write_forecast_csv``'s ``forecast`` and ``path`` arguments, and reads
    ``horizon`` and ``gains`` off ``build_reconciler``'s result."""
    spec = importlib.util.spec_from_file_location("spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layers = {(module, function) for module, function, _ in spans.LAYERS}
    assert {("forecast", "ridge_fit"), ("forecast", "rolling_forecast"),
            ("reconcile", "estimate_weights"), ("core", "covariance"),
            ("core", "ingest_panel"), ("forecast", "write_forecast_csv")} <= layers
    for module, function in sorted(layers):
        obj = getattr(importlib.import_module(f"bundlecast.{module}"), function, None)
        assert inspect.isfunction(obj), f"{module}.{function}"
    assert {"forecast", "path"} <= set(inspect.signature(write_forecast_csv).parameters)
    assert "asset_order" in inspect.signature(greedy_merge).parameters
    model = build_reconciler(Bundling.single_bundle(("a", "b")), np.ones((3, 4)))
    assert model.horizon == 3
    assert isinstance(model.gains, np.ndarray) and model.gains.nbytes == 3 * 4 * 8


def test_importing_the_cli_loads_no_scipy():
    """scipy is a test-only dependency: the command line runs on NumPy alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, bundlecast.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
