"""Named invariant checks bundled into a machine-readable report.

Each check exercises one statement the library is built around (rank of
the cycle space, spanning by non-separating circuits, ear reduction,
path-chord lifting, theta pairs, unit-overlap witnesses, cocircuit
recovery, orthogonality) plus two structural partitions.  Checks whose
hypotheses the input graph does not meet report as skipped, neither
passed nor failed: ``"pass": null``, details starting ``skipped:``.
Those that walk the ear sequence or test separation read one replica of
it, :func:`_replica`, and no verdict the library left in a memo.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations

from .errors import AllDegreesTwo, TooLarge, VerificationFailed
from .graph_core import (
    EdgeSet,
    Graph,
    _incident_bits,
    blocks,
    fingerprint,
    is_connected,
    is_k_connected,
    is_top_3_connected,
    is_top_k4,
    memoized,
    thread_delete,
    threads,
)
from .cycle_space import (
    Gf2Matrix,
    cyclomatic_number,
    express_in_span,
    fundamental_basis,
    gf2_rank,
)
from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    _is_separating_edges,
    circuit_from_edges,
    is_separating,
    non_separating_circuits,
)
from .decomposition import _chain, _lift_bits, decompose_cs_element, ear_sequence, theta_pair
from .cocircuits import (
    CounterexampleReport,
    _bond_masks,
    circuits_meeting_once,
    verify_cocircuit_identity,
)

# Cuts tested for witnesses: each scans the catalog, and there are O(m^2) cuts.
WITNESS_SAMPLE_CAP = 150
# Targets decomposed and replayed: each is one full decomposition.
DECOMPOSE_SAMPLE_CAP = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None: skipped, its hypothesis unmet
    details: str
    elapsed_ms: int


@dataclass(frozen=True)
class VerificationReport:
    graph_name: str
    checks: tuple[CheckResult, ...]
    elapsed_ms: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_dict(self, include_timing: bool) -> dict:
        payload: dict = {
            "graph": self.graph_name,
            "checks": [
                {"name": c.name, "pass": c.passed, "details": c.details}
                for c in self.checks
            ],
        }
        if include_timing:
            payload["elapsed_ms"] = self.elapsed_ms
            for entry, c in zip(payload["checks"], self.checks):
                entry["elapsed_ms"] = c.elapsed_ms
        return payload


def _skip(reason: str) -> tuple[None, str]:
    return None, f"skipped: {reason}"


def _simple_3_connected(g: Graph) -> bool:
    return g.simple and is_k_connected(g, 3)


# Hypotheses a check may need: (predicate, skip reason).  The predicates look
# their functions up at call time, so a rebound module name reaches them.
_CONNECTED = (lambda g: is_connected(g), "graph is disconnected")
_SIMPLE_3_CONNECTED = (_simple_3_connected, "requires a simple 3-connected host")
_TOP_3_CONNECTED = (
    lambda g: is_top_3_connected(g), "requires a subdivision of a 3-connected graph")


@memoized
def _replica(g: Graph) -> tuple[Graph, ...]:
    """Copies of the graphs g = g_0, ..., g_n = K4 terminal of the ear walk
    :func:`_chain`, each built from the last by ``thread_delete``, which
    validates the step's thread again; kept in g's memo for the checks."""
    walk = [Graph(g.vertices, g.edges, g.psi, g.universe)]
    for t, _, _ in _chain(g)[0]:
        walk.append(thread_delete(walk[-1], t))
    return tuple(walk)


def _check_blocks_partition(g: Graph) -> tuple[bool, str]:
    decomposition = blocks(g)
    union = 0
    total = 0
    for block in decomposition.blocks:
        if union & block.bits:
            return False, "blocks overlap"
        union |= block.bits
        total += len(block)
    if union != g.full_edge_set().bits:
        return False, "blocks miss some edges"
    return True, f"{decomposition.block_count} blocks cover {total} edges"


def _check_threads_partition(g: Graph) -> tuple[bool | None, str]:
    try:
        ts = threads(g)
    except AllDegreesTwo:
        return _skip("thread partition undefined")
    seen: set[int] = set()
    for t in ts:
        if seen & set(t.edges):
            return False, "threads overlap"
        seen |= set(t.edges)
    if seen != set(g.edges):
        return False, "threads miss some edges"
    return True, f"{len(ts)} threads cover {len(seen)} edges"


def _check_host(g: Graph) -> tuple[bool, str]:
    ok = _simple_3_connected(g)
    return ok, "simple and 3-connected" if ok else "host must be simple and 3-connected"


def _check_cycle_space_rank(g: Graph) -> tuple[bool, str]:
    basis = fundamental_basis(g)
    rank = gf2_rank(Gf2Matrix.from_rows(basis, g.universe))
    dim = cyclomatic_number(g)
    ok = rank == dim == len(basis)
    return ok, f"rank {rank}, dimension {dim}"


def _check_nc_span(g: Graph, cap: int) -> tuple[bool, str]:
    nc = non_separating_circuits(g, cap)
    matrix = Gf2Matrix.from_rows(nc.edge_sets(), g.universe)
    rank = gf2_rank(matrix)
    dim = cyclomatic_number(g)
    if rank != dim:
        return False, f"rank {rank} != dimension {dim}"
    for circuit in fundamental_basis(g):
        express_in_span(circuit, matrix)
    return True, f"{len(nc)} circuits span dimension {dim}"


def _check_decomposition_replay(g: Graph, rng: random.Random) -> tuple[bool, str]:
    # Targets: the fundamental circuits, then seeded sums of them.
    basis = fundamental_basis(g)
    targets = list(basis[:DECOMPOSE_SAMPLE_CAP])
    while len(targets) < DECOMPOSE_SAMPLE_CAP:
        x = EdgeSet.empty(g.universe)
        for row in basis:
            if rng.random() < 0.5:
                x = x ^ row
        targets.append(x)
    fresh = _replica(g)[0]
    seen = set()  # edge bitmasks of the parts already tested: a circuit is its edge set
    for target in targets:
        cert = decompose_cs_element(g, target)
        if cert.replay() != target:
            return False, "replay mismatch"
        for part in cert.parts:
            if part.edges.bits not in seen and is_separating(fresh, part):
                return False, "certificate part is separating"
        seen.update(part.edges.bits for part in cert.parts)
    return True, f"{len(targets)} targets decomposed and replayed"


def _check_ear_assembly(g: Graph) -> tuple[bool, str]:
    if is_top_k4(g):
        return True, "already a subdivision of K4"
    # every graph of the walk, the terminal too, must be top-3-connected:
    # the walk stops on a count of branch vertices, so a wrong removal can
    # be its last step
    seq, walk = ear_sequence(g), _replica(g)
    if [fp for fp, _ in seq.steps] != list(map(fingerprint, walk[:-1])) \
            or not all(map(is_top_3_connected, walk)):
        return False, "intermediate graph fails the reduction invariant"
    if walk[-1] != seq.terminal or not is_top_k4(walk[-1]):
        return False, "terminal graph is not a subdivision of K4"
    return True, f"{len(seq.steps)} reduction steps"


def _check_path_chord_lifting(g: Graph, cap: int) -> tuple[bool, str]:
    # The decomposition's own steps (g_i, t, g_i - t), replicated: t
    # path-chords each non-separating circuit of g_i - t that passes both of
    # its ends, its lift splits it, and each half must be a non-separating
    # circuit of g_i (VerificationFailed otherwise), the two summing to it.
    checked = 0
    walk = _replica(g)
    at = _incident_bits(g)
    for (t, tbits, _), current, reduced in zip(_chain(g)[0], walk, walk[1:]):
        for c in non_separating_circuits(reduced, cap):
            if set(t.endpoints) <= set(c.vertex_cycle):
                halves = _lift_bits(g, at, t, tbits, c.edges.bits)
                for half in halves:
                    lifted = circuit_from_edges(current, EdgeSet(half, g.universe).ids())
                    if _is_separating_edges(current, lifted.edges):
                        raise VerificationFailed("lifted circuit is separating in the host")
                if len(halves) != 2 or halves[0] ^ halves[1] != c.edges.bits:
                    return False, "split halves do not sum to the circuit"
                checked += 1
    return True, f"{checked} split pairs verified"


def _check_theta_pairs(g: Graph) -> tuple[bool, str]:
    pool = threads(g)
    fresh = _replica(g)[0]
    for t in pool:
        pair = theta_pair(g, t)
        tset = g.edge_set(t.edges)
        if pair.first.edges & pair.second.edges != tset:
            return False, "edge intersection is not the thread"
        shared = set(pair.first.vertex_cycle) & set(pair.second.vertex_cycle)
        if shared != set(t.vertices):
            return False, "vertex intersection is not the thread"
        if is_separating(fresh, pair.first) or is_separating(fresh, pair.second):
            return False, "theta circuit is separating"
    return True, f"{len(pool)} threads paired"


def _check_unit_overlap_witnesses(g: Graph, cap: int) -> tuple[bool, str]:
    nc = non_separating_circuits(g, cap)
    ids = sorted(g.edges)
    pool = [(e,) for e in ids] + list(combinations(ids, 2))
    pool = pool[:WITNESS_SAMPLE_CAP]
    for combo in pool:
        # a simple 3-connected host is 3-edge-connected: deleting one or two
        # edges leaves it connected, else Disconnected fails the check
        result = circuits_meeting_once(g, g.edge_set(combo), nc)
        if isinstance(result, CounterexampleReport):
            return False, f"no witness pair for edges {list(combo)}"
    return True, f"{len(pool)} cuts witnessed"


def _check_cocircuit_recovery(g: Graph, cap: int) -> tuple[bool | None, str]:
    try:
        ok = verify_cocircuit_identity(g, cap)
    except TooLarge as exc:
        return _skip(str(exc))
    return ok, "minimal cut candidates equal bonds" if ok else "families differ"


def _check_orthogonality(g: Graph) -> tuple[bool | None, str]:
    # By GF(2) bilinearity, a bond even on a cycle basis is even on every circuit.
    try:
        found = _bond_masks(g)
    except TooLarge as exc:
        return _skip(str(exc))
    basis = fundamental_basis(g)
    if any((cut & c.bits).bit_count() & 1 for cut, _ in found for c in basis):
        return False, "odd bond-circuit intersection"
    return True, f"{len(found)} bonds x {len(basis)} basis circuits all even"


def verify_graph(g: Graph, name: str, cap: int = DEFAULT_CIRCUIT_CAP) -> VerificationReport:
    """Run every named check against one graph.  A check that raises fails,
    its details the exception's type and message: a ``GraphError`` the
    check met, or a fault of the code it checks."""
    rng = random.Random(f"verify:{name}:{fingerprint(g)}")
    started = time.monotonic()
    battery = [
        ("blocks_partition", None, lambda: _check_blocks_partition(g)),
        ("cocircuit_recovery", _SIMPLE_3_CONNECTED, lambda: _check_cocircuit_recovery(g, cap)),
        ("cut_cycle_orthogonality", _CONNECTED, lambda: _check_orthogonality(g)),
        ("cycle_space_rank", _CONNECTED, lambda: _check_cycle_space_rank(g)),
        ("decomposition_replay", _TOP_3_CONNECTED,
         lambda: _check_decomposition_replay(g, rng)),
        ("ear_assembly_reduction", _TOP_3_CONNECTED, lambda: _check_ear_assembly(g)),
        ("host_three_connected", None, lambda: _check_host(g)),
        ("nc_spans_cycle_space", _SIMPLE_3_CONNECTED, lambda: _check_nc_span(g, cap)),
        ("path_chord_split_lifting", _TOP_3_CONNECTED,
         lambda: _check_path_chord_lifting(g, cap)),
        ("theta_pairs", _TOP_3_CONNECTED, lambda: _check_theta_pairs(g)),
        ("threads_partition", _CONNECTED, lambda: _check_threads_partition(g)),
        ("unit_overlap_witnesses", _SIMPLE_3_CONNECTED,
         lambda: _check_unit_overlap_witnesses(g, cap)),
    ]
    results = []
    for check_name, hypothesis, run in battery:
        check_started = time.monotonic()
        try:
            if hypothesis is not None and not hypothesis[0](g):
                passed, details = _skip(hypothesis[1])
            else:
                passed, details = run()
        except Exception as exc:
            passed, details = False, f"{type(exc).__name__}: {exc}"
        check_ms = int((time.monotonic() - check_started) * 1000)
        results.append(CheckResult(check_name, passed, details, check_ms))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return VerificationReport(name, tuple(results), elapsed_ms)
