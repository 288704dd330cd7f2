#!/usr/bin/env python3
"""Benchmark of the nscycles library: four workloads, checked outputs.

    python3 perfbench/run.py --workload nc_catalog [--seed 0] [--seconds 20] [--trace 0]

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (``worker.py``), one at a time, so that every pass starts with
empty memo tables; passes repeat until ``--seconds`` of wall time have gone
(at least two).

The host's speed swings by up to 1.8x over seconds and minutes, so every
time is scaled to a fixed host speed: the worker times a fixed reference
computation (``calibrate.py``) before and after every operation, and an
operation's scaled time is its measured time x ``REF_MS`` / the mean of
the reference timings of the two gaps before it and the two after it.  An
operation's time is the median over the passes of its scaled time.  Raw
times stay in the result file.

End-to-end metrics (``--trace 0``, no tracing in any pass):
  ops_per_s    operations / summed per-operation times
  op_ms_p50    median over operations of the per-operation times
  setup_s      median over the run's interpreters of import + input build,
               each scaled by the reference timed right after it
  peak_rss_mb  median over passes of the worker's peak resident memory

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics, and ``trace.overhead_pct`` compares the two.

The first pass's outputs go through the independent checks in
``checks.py``, later passes must reproduce them exactly, and the checker of
the workload must reject a corrupted copy of the first output.  The last
line of standard output is the JSON result; details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibrate import REF_MS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 15
DEADLINE_S = 170
WORKER_ENV = {"PYTHONHASHSEED": "0"}


def run_worker(workload: str, seed: int, trace: bool, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **WORKER_ENV)
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


CHECKERS = {
    "verify_corpus": (checks.check_verify_report, checks.selftest_verify_report),
    "decompose_sweep": (checks.check_certificate, checks.selftest_certificate),
    "nc_catalog": (checks.check_catalog, checks.selftest_catalog),
    "ears_sweep": (checks.check_ears, checks.selftest_ears),
}


def verify_outputs(workload: str, passes: list[dict]) -> list[str]:
    """Check the first pass's outputs, require every later pass to repeat
    them, and self-test the checker on the first output."""
    check, selftest = CHECKERS[workload]
    errors = []
    checked = [(i, op) for i, op in enumerate(passes[0]["ops"]) if "error" not in op]
    for i, op in checked:
        errors += [f"{op['label']}: {e}" for e in check(op["graph"], op["output"])]
        if any(p["ops"][i].get("output", op["output"]) != op["output"] for p in passes[1:]):
            errors.append(f"{op['label']}: output differs between passes")
    if checked:
        verdict = selftest(checked[0][1]["graph"], checked[0][1]["output"])
        if verdict:
            errors.append(f"self-test: {verdict}")
    return errors


def scale(ms: float, refs: list[float]) -> float:
    """``ms`` converted to a host that runs the reference in ``REF_MS``."""
    return ms * REF_MS / statistics.fmean(refs)


def scaled_times(p: dict) -> list[float | None]:
    """Each operation's scaled ms in pass ``p`` (None if it failed), by the
    reference timings of the two gaps before it and the two after it."""
    refs = p["ref_ms"]
    return [
        scale(op["ms"], [r for gap in refs[max(0, i - 1):i + 3] for r in gap])
        if "ms" in op else None
        for i, op in enumerate(p["ops"])
    ]


def summarise(passes: list[dict]) -> tuple[list[str], list[float], int]:
    """Labels, the median scaled ms over passes of every operation that no
    pass saw fail, and the number of failed operations over all passes."""
    labels = [op["label"] for op in passes[0]["ops"]]
    failed = sum("error" in op for p in passes for op in p["ops"])
    scaled = [scaled_times(p) for p in passes]
    times = [
        statistics.median(s[i] for s in scaled)
        for i in range(len(labels))
        if all(s[i] is not None for s in scaled)
    ]
    return labels, times, failed


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    return "%" if name.endswith("_pct") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nscycles" / "__init__.py").is_file():
        print(f"run.py: no library source at {ROOT / 'src' / 'nscycles'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    setup_refs: list[list[float]] = []
    longest = 0.0
    while True:
        trace_next = args.trace == 1 and len(traced) < len(plain)
        budget = DEADLINE_S - (time.perf_counter() - began)
        if budget < longest * 1.5:
            break
        started = time.perf_counter()
        result = run_worker(args.workload, args.seed, trace_next, False, budget)
        longest = max(longest, time.perf_counter() - started)
        (traced if trace_next else plain).append(result)
        if not trace_next:
            setups.append(result["setup_s"])
            setup_refs.append(result["setup_ref_ms"])
        enough = len(plain) >= MIN_PASSES and (args.trace == 0 or len(traced) >= 1)
        if enough and time.perf_counter() - began >= args.seconds:
            break
    if len(plain) < MIN_PASSES or (args.trace == 1 and not traced):
        print("run.py: too little time for the minimum number of passes", file=sys.stderr)
        return 1
    while args.trace == 0 and len(setups) < MIN_SETUPS:
        result = run_worker(args.workload, args.seed, False, True, 60)
        setups.append(result["setup_s"])
        setup_refs.append(result["setup_ref_ms"])

    labels, times, failed = summarise(plain)
    errors = verify_outputs(args.workload, plain + traced)
    wall_s = time.perf_counter() - began

    if args.trace == 0:
        metrics = {
            "ops_per_s": {"value": len(times) / (sum(times) / 1000), "unit": "ops/s"},
            "op_ms_p50": {"value": statistics.median(times), "unit": "ms"},
            "setup_s": {"value": statistics.median(map(scale, setups, setup_refs)),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mib"] for p in plain),
                            "unit": "MiB"},
        }
    else:
        _, traced_times, traced_failed = summarise(traced)
        failed += traced_failed
        layer = {}
        for name in traced[0]["trace"]:
            if name.endswith("ms"):
                layer[name] = statistics.median(
                    scale(p["trace"][name], [r for refs in p["ref_ms"] for r in refs])
                    for p in traced)
            else:
                layer[name] = traced[0]["trace"][name]
        layer["trace.overhead_pct"] = (sum(traced_times) / sum(times) - 1) * 100
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}

    passes_total = len(plain) + len(traced)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": len(plain), "traced_passes": len(traced), "wall_s": wall_s,
        "setups_s": setups, "setup_ref_ms": setup_refs, "errors": errors, "metrics": metrics,
        "ops": [
            {"label": label, "ms": [p["ops"][i].get("ms") for p in plain],
             "scaled_ms": [s[i] for s in map(scaled_times, plain)]}
            for i, label in enumerate(labels)
        ],
        "ref_ms": [p["ref_ms"] for p in plain],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"per_layer": traced[0]["trace"]}, indent=1) + "\n")
    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": passes_total * len(labels),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
