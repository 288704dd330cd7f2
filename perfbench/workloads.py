"""Workload inputs and operations.

``build(workload, seed, ns)`` makes the inputs of one workload from its seed,
using the library package ``ns`` only through its public names, and returns
the operations to time.  Each operation carries the input record the
checkers need and a function turning its raw result into plain JSON.

The graph *shapes* of a workload are fixed: the default corpus, or
``random3c-N`` graphs drawn by slot.  A slot fixes N and, where the run
time depends strongly on it, the edge count |E|; it draws generator seeds
from ``random.Random(f"{workload}:{slot}")`` until the graph has that edge
count and differs from the graphs already drawn.  The workload seed picks a
relabelling of every shape: a random permutation of its vertex ids and of
its edge ids (seed 0 keeps the generator's labels).  Every seed therefore
gives new inputs to the library, on which its label-ordered choices differ,
while the amount of work stays that of the same shapes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from checks import Host, fundamental_cycles

WORKLOADS = ("verify_corpus", "decompose_sweep", "nc_catalog", "ears_sweep")

# The default corpus of scripts/run_corpus_verification.py.
NAMED = ["k4", "k5", "k6", "k33", "wheel-4", "wheel-5", "wheel-6", "wheel-7",
         "prism", "petersen"]
CORPUS_SIZES = range(8, 13)
CORPUS_SEEDS = range(5)

# (N, |E|) slots: |E| is the most common edge count of random3c-N.
DECOMPOSE_SLOTS = [(14, 23), (15, 23), (16, 26), (17, 29), (18, 28), (19, 31),
                   (20, 32)]
DECOMPOSE_TARGETS = 24
NC_SLOTS = [(16, 26), (17, 29), (18, 28), (19, 31), (20, 32), (22, 34),
            (16, 26), (17, 29), (18, 28), (19, 31)]
# Ear slots fix N only; (N, True) is random3c-N with every edge subdivided.
EAR_SLOTS = [(40, False), (42, False), (45, False), (48, False), (50, False),
             (52, False), (55, False), (58, False), (60, False),
             (30, True), (35, True), (40, True)]
MAX_DRAWS = 2000
# verify-all seeds its sampling with the graph name, which for --input is the
# path as given, so the path is relative to the checkout root (the worker's
# working directory) and does not depend on where the checkout lives.
ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path("perfbench", "out", "inputs")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    convert: Callable[[Any], Any]
    graph: dict
    input_file: tuple[Path, str] | None = None  # (path under ROOT, text)


def write_inputs(ops: list[Op]) -> None:
    """Write the files the operations read.  The worker calls this after
    set-up is timed: the writing is the benchmark's work, not the library's."""
    for op in ops:
        if op.input_file:
            path, text = op.input_file
            (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
            (ROOT / path).write_text(text)


def _record(g, **extra) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [list(g.psi[e]) for e in sorted(g.edges)],
        **extra,
    }


def _draw(ns, size: int, edges: int | None, key: str, taken: set):
    rng = random.Random(key)
    for _ in range(MAX_DRAWS):
        gen_seed = rng.randrange(1 << 30)
        g = ns.gen_corpus(f"random3c-{size}", gen_seed)
        shape = tuple(g.psi[e] for e in sorted(g.edges))
        if (edges is None or len(g.edges) == edges) and shape not in taken:
            taken.add(shape)
            return g, gen_seed
    raise RuntimeError(f"no random3c-{size} graph with {edges} edges in {MAX_DRAWS} draws")


def _relabel(ns, g, seed: int, key: str):
    """The graph with vertex and edge ids permuted by the workload seed.
    Seed 0 keeps the labels."""
    if seed == 0:
        return g
    rng = random.Random(f"{key}:{seed}")
    vertices = sorted(g.vertices)
    new_vertex = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    order = rng.sample(sorted(g.edges), len(g.edges))
    return ns.build_graph(len(vertices), [tuple(new_vertex[v] for v in g.psi[e]) for e in order])


def _verify_corpus(ns, seed: int) -> list[Op]:
    from nscycles import cli

    shapes = [(name, ns.gen_corpus(name)) for name in NAMED]
    for n in CORPUS_SIZES:
        for k in CORPUS_SEEDS:
            shapes.append((f"random3c-{n}#{k}", ns.gen_corpus(f"random3c-{n}", k)))
    folder = INPUTS / f"verify_corpus-s{seed}"

    def verify_all(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run_command(argv)
        return rc, out.getvalue()

    ops = []
    for label, shape in shapes:
        g = _relabel(ns, shape, seed, f"verify_corpus:{label}")
        path = folder / f"{label.replace('#', '-s')}.edges"
        lines = [f"{len(g.vertices)} {len(g.edges)}"]
        lines += [f"{u} {v}" for u, v in (g.psi[e] for e in sorted(g.edges))]
        argv = ["verify-all", "--input", str(path)]
        ops.append(Op(
            label,
            lambda argv=argv: verify_all(argv),
            lambda raw: {"rc": raw[0], "report": json.loads(raw[1])},
            _record(g),
            (path, "\n".join(lines) + "\n"),
        ))
    return ops


def _decompose_sweep(ns, seed: int) -> list[Op]:
    ops = []
    taken: set = set()
    for slot, (n, m) in enumerate(DECOMPOSE_SLOTS):
        g, gen_seed = _draw(ns, n, m, f"decompose_sweep:{slot}", taken)
        record = _record(g)
        basis = fundamental_cycles(Host(record["vertices"], record["edges"]))
        rng = random.Random(f"decompose_sweep:{seed}:{slot}")
        targets: list[int] = []
        while len(targets) < DECOMPOSE_TARGETS:
            x = 0
            for row in basis:
                if rng.random() < 0.5:
                    x ^= row
            if x and x not in targets:
                targets.append(x)
        for k, bits in enumerate(targets):
            ids = [e for e in range(g.universe) if bits >> e & 1]
            target = ns.EdgeSet.from_ids(ids, g.universe)
            ops.append(Op(
                f"random3c-{n}#{gen_seed}/t{k}",
                lambda g=g, target=target: ns.decompose_cs_element(g, target),
                lambda cert: {
                    "target": list(cert.target.ids()),
                    "parts": [list(c.edges.ids()) for c in cert.parts],
                },
                _record(g, target=ids),
            ))
    return ops


def _nc_work(ns, g):
    """What ``nscycles nc`` computes: the catalog, then each fundamental
    circuit expressed in its span."""
    catalog = ns.non_separating_circuits(g)
    matrix = ns.Gf2Matrix.from_rows(catalog.edge_sets(), g.universe)
    expressions = [
        sorted(ns.express_in_span(row, matrix).coefficients)
        for row in ns.fundamental_basis(g)
    ]
    return catalog, expressions


def _nc_catalog(ns, seed: int) -> list[Op]:
    ops = []
    taken: set = set()
    for slot, (n, m) in enumerate(NC_SLOTS):
        shape, gen_seed = _draw(ns, n, m, f"nc_catalog:{slot}", taken)
        g = _relabel(ns, shape, seed, f"nc_catalog:{slot}")
        ops.append(Op(
            f"random3c-{n}#{gen_seed}",
            lambda g=g: _nc_work(ns, g),
            lambda raw: {
                "circuits": [list(c.edges.ids()) for c in raw[0]],
                "basis_expressions": raw[1],
            },
            _record(g),
        ))
    return ops


def _ears_sweep(ns, seed: int) -> list[Op]:
    ops = []
    taken: set = set()
    for slot, (n, subdivided) in enumerate(EAR_SLOTS):
        shape, gen_seed = _draw(ns, n, None, f"ears_sweep:{slot}", taken)
        label = f"random3c-{n}#{gen_seed}"
        if subdivided:
            shape = ns.subdivide_every_edge(shape)
            label = f"subdivided-{label}"
        g = _relabel(ns, shape, seed, f"ears_sweep:{slot}")
        ops.append(Op(
            label,
            lambda g=g: ns.ear_sequence(g),
            lambda seq: {
                "steps": [
                    {"thread": list(t.edges), "vertices": list(t.vertices)}
                    for _, t in seq.steps
                ],
                "terminal": {
                    "vertices": sorted(seq.terminal.vertices),
                    "edges": [[e, *seq.terminal.psi[e]] for e in sorted(seq.terminal.edges)],
                },
            },
            _record(g),
        ))
    return ops


def build(workload: str, seed: int, ns) -> list[Op]:
    return {
        "verify_corpus": _verify_corpus,
        "decompose_sweep": _decompose_sweep,
        "nc_catalog": _nc_catalog,
        "ears_sweep": _ears_sweep,
    }[workload](ns, seed)
