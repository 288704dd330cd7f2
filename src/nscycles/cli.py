"""Command-line front end: graph I/O, corpus generation, batch verification.

All output is canonical JSON (sorted keys, fixed indentation), so identical
invocations produce byte-identical reports.  Each subcommand reads one graph
(--gen NAME [--seed N] or --input FILE; --seed is rejected without --gen).
--cap bounds circuit enumeration (on a subdivision of a simple 3-connected
graph, the chordless cycles a non-separating catalog examines) and is taken
only by circuits, nc, whitney and verify-all; theta and decompose list no
circuits of their own and reject it.  Timing is volatile and
is only emitted by verify-all, the one subcommand that takes --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager

from .errors import (
    DanglingVertexId,
    DuplicateEdge,
    GraphError,
    InputTooLarge,
    LoopRejected,
    NotAThread,
    NotEven,
    ParseError,
    UniverseMismatch,
    UnknownName,
)
from .graph_core import (
    Graph,
    blocks,
    build_graph,
    fingerprint,
    is_connected,
    is_k_connected,
    is_top_3_connected,
    is_top_k4,
    thread_from_edges,
    threads,
)
from .cycle_space import (
    Gf2Matrix,
    cyclomatic_number,
    express_in_span,
    fundamental_basis,
)
from .circuits import DEFAULT_CIRCUIT_CAP, enumerate_circuits, non_separating_circuits
from .decomposition import decompose_cs_element, ear_sequence, theta_pair
from .cocircuits import _bond_masks, bonds, families_match, minimal_cut_candidates
from .corpus import gen_corpus
from .verify import verify_graph

# build_graph materialises every vertex the header declares, before any
# edge line is read; larger headers are rejected as bad input (exit 2).
MAX_EDGE_LIST_VERTICES = 100_000


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then m lines ``u v``."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("line 1: expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("line 1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("line 1: header fields must be integers") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: header counts must be non-negative")
    if n > MAX_EDGE_LIST_VERTICES:
        raise InputTooLarge(
            f"line 1: {n} vertices exceeds the edge-list bound of {MAX_EDGE_LIST_VERTICES}"
        )
    pairs = []
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    for i, line in enumerate(body, start=2):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {i}: expected 'u v'")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(f"line {i}: endpoints must be integers") from None
    return build_graph(n, pairs)


@contextmanager
def _bad_input(*errors):
    """Re-raise ``errors``, caused by user input, as ParseError (exit 2)."""
    try:
        yield
    except errors as exc:
        raise ParseError(f"{type(exc).__name__}: {exc}") from None


def _load_graph(args) -> tuple[Graph, str]:
    if args.gen is not None:
        return gen_corpus(args.gen, args.seed or 0), args.gen
    if args.input is not None:
        if args.seed is not None:
            raise ParseError("--seed applies only to --gen")
        try:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from None
        with _bad_input(LoopRejected, DuplicateEdge, DanglingVertexId):
            return parse_edge_list(text), args.input
    raise UnknownName("one of --gen NAME or --input FILE is required")


def _edge_ids(flag: str) -> list[int]:
    try:
        return [int(part) for part in flag.split(",") if part.strip()]
    except ValueError:
        raise ParseError(f"bad edge id list {flag!r}") from None


def _cmd_gen(g: Graph, name: str, args) -> tuple[dict | str, int]:
    if args.edgelist:
        lines = [f"{len(g.vertices)} {len(g.edges)}"]
        lines += [f"{u} {v}" for u, v in (g.psi[e] for e in sorted(g.edges))]
        return "\n".join(lines), 0
    return {
        "name": name,
        "seed": args.seed or 0,
        "vertices": len(g.vertices),
        "edges": [list(g.psi[e]) for e in sorted(g.edges)],
    }, 0


def _cmd_info(g: Graph, name: str, args) -> tuple[dict, int]:
    connected = is_connected(g)
    return {
        "graph": name,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "simple": g.simple,
        "connected": connected,
        "three_connected": g.simple and is_k_connected(g, 3),
        "top_three_connected": is_top_3_connected(g),
        "top_k4": is_top_k4(g),
        "cyclomatic_number": cyclomatic_number(g) if connected else None,
        "fingerprint": fingerprint(g),
    }, 0


def _cmd_blocks(g: Graph, name: str, args) -> tuple[dict, int]:
    decomposition = blocks(g)
    return {
        "graph": name,
        "blocks": [list(b.ids()) for b in decomposition.blocks],
        "cut_vertices": sorted(decomposition.cut_vertices),
        "block_count": decomposition.block_count,
    }, 0


def _cmd_threads(g: Graph, name: str, args) -> tuple[dict, int]:
    return {
        "graph": name,
        "threads": [
            {"edges": list(t.edges), "vertices": list(t.vertices)}
            for t in threads(g)
        ],
    }, 0


def _cmd_circuits(g: Graph, name: str, args) -> tuple[dict, int]:
    found = enumerate_circuits(g, args.cap)
    return {
        "graph": name,
        "count": len(found),
        "circuits": [list(c.edges.ids()) for c in found],
    }, 0


def _cmd_nc(g: Graph, name: str, args) -> tuple[dict, int]:
    catalog = non_separating_circuits(g, args.cap)
    matrix = Gf2Matrix.from_rows(catalog.edge_sets(), g.universe)
    expressions = [
        sorted(express_in_span(row, matrix).coefficients)
        for row in fundamental_basis(g)
    ]
    return {
        "graph": name,
        "fingerprint": catalog.graph_fingerprint,
        "count": len(catalog),
        "circuits": [list(c.edges.ids()) for c in catalog],
        "basis_expressions": expressions,
    }, 0


def _cmd_basis(g: Graph, name: str, args) -> tuple[dict, int]:
    basis = fundamental_basis(g)
    return {
        "graph": name,
        "count": len(basis),
        "circuits": [list(row.ids()) for row in basis],
    }, 0


def _cmd_decompose(g: Graph, name: str, args) -> tuple[dict, int]:
    with _bad_input(UniverseMismatch, NotEven):  # NotEven only for an odd target
        cert = decompose_cs_element(g, g.edge_set(_edge_ids(args.circuit)))
    return {
        "graph": name,
        "target": list(cert.target.ids()),
        "parts": [list(c.edges.ids()) for c in cert.parts],
        "host_fingerprint": cert.host_fingerprint,
    }, 0


def _cmd_theta(g: Graph, name: str, args) -> tuple[dict, int]:
    with _bad_input(NotAThread):
        t = thread_from_edges(g, _edge_ids(args.thread))
    pair = theta_pair(g, t)
    return {
        "graph": name,
        "thread": list(t.edges),
        "first": list(pair.first.edges.ids()),
        "second": list(pair.second.edges.ids()),
    }, 0


def _cmd_ears(g: Graph, name: str, args) -> tuple[dict, int]:
    seq = ear_sequence(g)
    return {
        "graph": name,
        "steps": [
            {"fingerprint": fp, "thread": list(t.edges)} for fp, t in seq.steps
        ],
        "terminal": {
            "vertices": sorted(seq.terminal.vertices),
            "edges": [[e, *seq.terminal.psi[e]] for e in sorted(seq.terminal.edges)],
        },
    }, 0


def _cmd_bonds(g: Graph, name: str, args) -> tuple[dict, int]:
    found = bonds(g)
    return {
        "graph": name,
        "count": len(found),
        "bonds": [list(b.edges.ids()) for b in found],
    }, 0


def _cmd_whitney(g: Graph, name: str, args) -> tuple[dict, int]:
    catalog = non_separating_circuits(g, args.cap)
    found_bonds = _bond_masks(g)
    candidates = minimal_cut_candidates(g, catalog)
    match = families_match(found_bonds, candidates)
    return {
        "graph": name,
        "bond_count": len(found_bonds),
        "candidate_count": len(candidates),
        "match": match,
    }, 0 if match else 1


def _cmd_verify_all(g: Graph, name: str, args) -> tuple[dict, int]:
    report = verify_graph(g, name, args.cap)
    return report.to_dict(include_timing=args.timing), 0 if report.all_passed else 1


_COMMANDS = {
    "info": _cmd_info,
    "blocks": _cmd_blocks,
    "threads": _cmd_threads,
    "circuits": _cmd_circuits,
    "nc": _cmd_nc,
    "basis": _cmd_basis,
    "decompose": _cmd_decompose,
    "theta": _cmd_theta,
    "ears": _cmd_ears,
    "bonds": _cmd_bonds,
    "whitney": _cmd_whitney,
    "verify-all": _cmd_verify_all,
    "gen": _cmd_gen,
}

# The subcommands whose enumeration honors --cap.
_CAPPED = {"circuits", "nc", "whitney", "verify-all"}


def _cap(text: str) -> int:
    """A --cap value: a negative cap is bad input, not an exceeded one."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {cap}")
    return cap


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # one parser per process; each parse_args fills a fresh namespace
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group()
    source.add_argument("--gen", metavar="NAME", help="generate a named corpus graph")
    source.add_argument("--input", metavar="FILE", help="read an edge-list file")
    common.add_argument("--seed", type=int, help="seed for --gen (default 0)")
    common.add_argument("--quiet", action="store_true", help="suppress output; exit code only")

    parser = argparse.ArgumentParser(
        prog="nscycles",
        description="Cycle-space decompositions into non-separating circuits, with verifiable reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name in _CAPPED:
            p.add_argument("--cap", type=_cap, default=DEFAULT_CIRCUIT_CAP,
                           help="circuit (or chordless cycle) enumeration cap "
                                f"(default {DEFAULT_CIRCUIT_CAP})")
        if name == "verify-all":
            p.add_argument("--timing", action="store_true",
                           help="include volatile elapsed_ms in reports")
        if name == "decompose":
            p.add_argument("--circuit", required=True, metavar="e1,e2,...",
                           help="edge ids of the target cycle-space element")
        if name == "theta":
            p.add_argument("--thread", required=True, metavar="e1,e2,...",
                           help="edge ids of the thread")
        if name == "gen":
            p.add_argument("--edgelist", action="store_true",
                           help="emit the plain edge-list format instead of JSON")
    return parser


def run_command(argv) -> int:
    """Parse and run one CLI invocation, returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        g, name = _load_graph(args)
        payload, code = _COMMANDS[args.command](g, name, args)
    except (ParseError, UnknownName) as exc:
        print(f"nscycles: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"nscycles: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(payload if isinstance(payload, str)
              else json.dumps(payload, indent=2, sort_keys=True))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
