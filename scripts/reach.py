#!/usr/bin/env python3
"""Reach: the largest random3c-N graph each command finishes within a budget.

    python3 scripts/reach.py [--out BENCH_reach.json]

For each of nc, theta, decompose, ears and verify-all, runs the CLI on
``--gen random3c-N`` (seed 0) as one subprocess at a time, killed at the
BUDGET_S, and finds the largest N that exits 0 in time: N doubles from 4 until
a run fails, then the last pass and the first failure are bisected.  A run
fails when it exceeds BUDGET_S or exits nonzero (CircuitExplosion,
TooLarge, a failed check).  Reach is not monotone in N (random3c-28 has more
circuits than random3c-32), so the result is the N this search finds; every
trial is recorded.  BUDGET_S is fixed so that every committed
result file is comparable with every other; it covers the whole invocation, interpreter
start and graph generation included.

Bisection tests only a few N, so a slow N between two fast ones goes
unseen.  theta and decompose are therefore also run at every N of a fixed
sweep, N = 100, 110, ..., 1000, at the same budget: the file records each
sweep's worst passing time and every N that failed, beside each trial.

theta takes the graph's first thread; decompose takes the XOR of its
fundamental basis as the target.  The result file also records the git
SHA (suffixed -dirty for an uncommitted tree), the sha256 of the
src/nscycles/*.py files concatenated in sorted name order (which names the
measured code with or without a commit), the Python version,
os.cpu_count() and the line counts of src/nscycles/*.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from nscycles import fundamental_basis, gen_corpus, threads  # noqa: E402
from nscycles.corpus import MAX_GEN_N as MAX_N  # noqa: E402

COMMANDS = ("nc", "theta", "decompose", "ears", "verify-all")
START_N = 4
BUDGET_S = 2.0


def _extra_args(command: str, g) -> list[str]:
    if command == "theta":
        return ["--thread", ",".join(map(str, threads(g)[0].edges))]
    if command == "decompose":
        target = 0
        for row in fundamental_basis(g):
            target ^= row.bits
        return ["--circuit", ",".join(str(e) for e in sorted(g.edges) if target >> e & 1)]
    return []


def trial(command: str, n: int) -> dict:
    name = f"random3c-{n}"
    argv = [sys.executable, "-m", "nscycles.cli", command, "--gen", name, "--quiet"]
    argv += _extra_args(command, gen_corpus(name, 0))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        return {"n": n, "status": "timeout", "seconds": None}
    seconds = round(time.perf_counter() - start, 3)
    if done.returncode != 0:
        reason = done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
        return {"n": n, "status": f"exit {done.returncode}: {reason[0]}", "seconds": seconds}
    return {"n": n, "status": "ok", "seconds": seconds}


def reach(command: str) -> dict:
    trials: list[dict] = []

    def passes(n: int) -> bool:
        result = trial(command, n)
        trials.append(result)
        print(f"{command} N={n}: {result['status']} {result['seconds']}", file=sys.stderr)
        return result["status"] == "ok"

    best, fail, n = None, None, START_N
    while n <= MAX_N:
        if not passes(n):
            fail = n
            break
        best, n = n, n * 2
    if best is not None and fail is not None:
        while fail - best > 1:
            mid = (best + fail) // 2
            if passes(mid):
                best = mid
            else:
                fail = mid
    return {"largest_n": best, "trials": trials}


def sweep(command: str) -> dict:
    trials = []
    for n in range(100, 1001, 10):
        trials.append(trial(command, n))
        print(f"{command} sweep N={n}: {trials[-1]['status']} {trials[-1]['seconds']}",
              file=sys.stderr)
    passed = [t["seconds"] for t in trials if t["status"] == "ok"]
    return {"worst_seconds": max(passed, default=None),
            "failing_n": [t["n"] for t in trials if t["status"] != "ok"],
            "trials": trials}


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _sources() -> list[Path]:
    return sorted(SRC.glob("nscycles/*.py"))


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in _sources():
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _src_lines() -> dict:
    counts = {p.name: p.read_text().count("\n") for p in _sources()}
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_reach.json"),
                        help="result file (default BENCH_reach.json at the checkout root)")
    args = parser.parse_args()
    result = {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": _src_lines(),
        "budget_s": BUDGET_S,
        "seed": 0,
        "commands": {command: reach(command) for command in COMMANDS},
        "sweeps": {command: sweep(command) for command in ("theta", "decompose")},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for command, row in result["commands"].items():
        print(f"{command}: largest N = {row['largest_n']}")
    for command, row in result["sweeps"].items():
        print(f"{command} sweep: worst {row['worst_seconds']} s, failing N = {row['failing_n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
