"""One pass of a workload, in a fresh interpreter.

Imports the library from ``src/`` of the checkout this file sits in, builds
the workload's inputs, runs every operation once in order, and prints one
JSON object: the set-up time, per-operation times, the timings of the
reference computation (``calibrate.py``) taken after set-up and between
operations, outputs, the process's peak resident memory and, with
``--trace``, the per-layer metrics.  A fresh interpreter is the only way
to start every pass with the library's memo tables empty without reaching
into them.

    python3 perfbench/worker.py --workload nc_catalog --seed 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """The ``nscycles`` package of this checkout, never an installed copy."""
    if not (SRC / "nscycles" / "__init__.py").is_file():
        raise SystemExit(f"worker: no library at {SRC / 'nscycles'}")
    sys.path.insert(0, str(SRC))
    import nscycles

    if Path(nscycles.__file__).resolve().parent != (SRC / "nscycles").resolve():
        raise SystemExit(f"worker: imported nscycles from {nscycles.__file__}")
    return nscycles


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ns = import_library()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import build, write_inputs

    ops = build(args.workload, args.seed, ns)
    setup_s = time.perf_counter() - STARTED
    from calibrate import reference_samples

    result: dict = {"setup_s": setup_s, "setup_ref_ms": reference_samples(setup_s * 1000),
                    "ops": []}
    if not args.setup_only:
        write_inputs(ops)
        result["ref_ms"] = []
        last_ms = setup_s * 1000
        for op in ops:
            result["ref_ms"].append(reference_samples(last_ms))
            record = {"label": op.label, "graph": op.graph}
            start = time.perf_counter()
            try:
                raw = op.run()
            except Exception:  # reported as a failed operation
                record["error"] = traceback.format_exc()
            else:
                record["ms"] = last_ms = (time.perf_counter() - start) * 1000
                record["output"] = op.convert(raw)
            result["ops"].append(record)
        result["ref_ms"].append(reference_samples(last_ms))
        if tracer:
            result["trace"] = tracer.metrics()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
