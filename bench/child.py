"""One measured repetition: bundlecast CLI commands in a fresh Python process.

    python3 child.py <spec.json> <result.json>

The spec names the source tree, the commands (argument lists for
``bundlecast.cli.main``) and whether to trace. The result holds each
command's wall time and exit code, the process's peak resident memory, the
BLAS thread count and, when traced, the spans of the run.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import bundlecast.cli

    if src not in Path(bundlecast.cli.__file__).resolve().parents:
        print(f"bundlecast was imported from {bundlecast.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import COMMAND_SPANS, Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    times, cpu_times, codes, errors = [], [], [], []
    for argv in spec["commands"]:
        command = bundlecast.cli.main
        if tracer is not None:
            command = tracer.wrap(COMMAND_SPANS[argv[0]], command)
        stderr = io.StringIO()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = command(argv)
        except Exception:  # a traceback out of the CLI counts as a failed command
            code = None
            stderr.write(traceback.format_exc())
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
        codes.append(code)
        errors.append(stderr.getvalue()[-2000:] or None)

    result = {
        "times": times,
        "cpu_times": cpu_times,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
