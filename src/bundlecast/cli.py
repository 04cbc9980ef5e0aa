"""Command-line entry point.

Every subcommand takes `--config <path>` and an optional `--out <dir>` that
overrides the config's output directory. Exit code 0 on success; on failure
the message is tagged with the stage that failed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import BundlecastError
from .pipeline import (
    run,
    run_sweep,
    stage_bundle,
    stage_evaluate,
    stage_forecast,
    stage_reconcile,
    stage_synth,
)

_COMMANDS = {
    "synth": (stage_synth, "generate a seeded synthetic assets/series CSV pair"),
    "bundle": (stage_bundle, "learn asset bundles and write bundling.csv"),
    "forecast": (stage_forecast, "produce and score raw test forecasts; write residual moments"),
    "reconcile": (stage_reconcile, "reconcile raw forecasts into coherent ones"),
    "evaluate": (stage_evaluate, "score the reconciled forecasts"),
    "run": (run, "full pipeline: bundle, forecast, reconcile, evaluate"),
    "sweep": (run_sweep, "greedy objective vs. diameter cutoff (savar, imcy)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlecast",
        description="Hierarchical wind-power forecasting with learned asset bundles.",
    )
    parser.add_argument("--version", action="version", version=f"bundlecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command][0]
    try:
        result = command(args.config, args.out)
    except BundlecastError as exc:
        print(f"bundlecast {args.command}: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        for path in result:
            print(path)
    else:
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
