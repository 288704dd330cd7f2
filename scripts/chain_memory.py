#!/usr/bin/env python3
"""Memory of the ear walk: what ``decomposition._chain`` keeps, by tracemalloc.

    python3 scripts/chain_memory.py [--compare SRC] [--out BENCH_memory.json]

The hosts are random3c-256, -512 and -1024 (seed 0), and a 2048-vertex host
past MAX_GEN_N, built by the random3c generator's own function with the
seed gen_corpus would give random3c-2048.  Each host is measured in a fresh
interpreter, one at a time: it is built and given the 3-connectivity test
that every caller of the walk runs first, then ``_chain(host)`` runs under
tracemalloc.  ``growth_mib`` is the traced memory still allocated when it
returns, which the host's memo keeps; ``peak_mib`` is the most allocated
while it ran; both are counted from the traced size before the call.
``seconds`` is the call's wall time under tracing, which slows it, so it
only compares runs of this script.

``--compare SRC`` measures the library source directory SRC too (say the
``src`` of a checkout of the parent commit), each host right after this
checkout's, so the two trees are measured side by side.  The result file
records the git SHA and sha256 of this checkout's ``src/nscycles/*.py``,
the Python version and os.cpu_count().
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOSTS = ("random3c-256", "random3c-512", "random3c-1024", "random3c-2048")
MIB = 2**20


def measure(name: str) -> dict:
    """One host's row, measured in this interpreter on the ``nscycles``
    first on sys.path."""
    import random

    from nscycles import corpus, gen_corpus, is_top_3_connected
    from nscycles.decomposition import _chain

    n = int(name.rsplit("-", 1)[1])
    if n <= corpus.MAX_GEN_N:
        g = gen_corpus(name)
    else:
        g = corpus._random_3connected(n, random.Random(f"{name}:0"))
    assert is_top_3_connected(g)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    steps, _ = _chain(g)
    seconds = time.perf_counter() - start
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"host": name, "vertices": len(g.vertices), "edges": len(g.edges),
            "steps": len(steps), "growth_mib": round((current - before) / MIB, 2),
            "peak_mib": round((peak - before) / MIB, 2), "seconds": round(seconds, 3)}


def child(src: Path, name: str) -> dict:
    """``measure(name)`` in a fresh interpreter importing from ``src``."""
    done = subprocess.run([sys.executable, __file__, "--host", name, "--src", str(src)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("nscycles/*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_memory.json"),
                        help="result file (default BENCH_memory.json at the checkout root)")
    parser.add_argument("--compare", help="another library source directory to measure")
    parser.add_argument("--host", help=argparse.SUPPRESS)
    parser.add_argument("--src", default=str(SRC), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.host:
        sys.path.insert(0, args.src)
        import nscycles
        if Path(nscycles.__file__).resolve().parent != (Path(args.src) / "nscycles").resolve():
            raise SystemExit(f"nscycles was not imported from {args.src}")
        print(json.dumps(measure(args.host)))
        return 0
    trees = {"this": SRC} | ({"compare": Path(args.compare).resolve()} if args.compare else {})
    rows: dict = {label: [] for label in trees}
    for name in HOSTS:
        for label, src in trees.items():
            rows[label].append(child(src, name))
            row = rows[label][-1]
            print(f"{label} {name}: {row['steps']} steps, growth {row['growth_mib']} MiB, "
                  f"peak {row['peak_mib']} MiB, {row['seconds']} s", file=sys.stderr)
    result = {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows["this"],
    }
    if args.compare:
        result["compare"] = {"src": str(trees["compare"]), "rows": rows["compare"]}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
