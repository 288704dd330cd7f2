"""Ear assembly, theta pairs, and decomposition into non-separating circuits.

The decomposition runs an induction on threads: peel a reducible thread,
decompose in the smaller graph, and lift the parts back, splitting along
path-chords and toggling a theta circuit when the target uses the removed
thread.  Every intermediate claim is re-verified, so a returned certificate
is sound by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IsTopK4,
    NotACircuit,
    NotAThread,
    NotInNcOfReduced,
    NotTop3Connected,
    VerificationFailed,
)
from .graph_core import (
    EdgeSet,
    Graph,
    Thread,
    _validate_thread,
    bfs_tree,
    fingerprint,
    is_top_3_connected,
    is_top_k4,
    memoized,
    thread_delete,
    threads,
)
from .cycle_space import Gf2Matrix, express_in_span, is_cycle_space_member
from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    _enumerate,
    _is_separating_edges,
    _validate_circuit,
    even_subgraph_to_circuits,
    is_path_chord,
    non_separating_circuits,
    split_on_path_chord,
)


@dataclass(frozen=True)
class EarSequence:
    """Thread removals taking a graph down to a subdivision of K4.

    Each step records the fingerprint of the graph it was applied to and
    the thread removed from it.
    """

    steps: tuple[tuple[str, Thread], ...]
    terminal: Graph


@dataclass(frozen=True)
class ThetaPair:
    """Two non-separating circuits meeting exactly in one thread."""

    first: Circuit
    second: Circuit
    thread: Thread


@dataclass(frozen=True)
class DecompositionCertificate:
    """Non-separating circuits whose GF(2) sum equals the target."""

    target: EdgeSet
    parts: tuple[Circuit, ...]
    host_fingerprint: str

    def replay(self) -> EdgeSet:
        total = EdgeSet.empty(self.target.universe)
        for part in self.parts:
            total = total ^ part.edges
        return total


def _require_top3(g: Graph) -> None:
    if not is_top_3_connected(g):
        raise NotTop3Connected("graph is not a subdivision of a 3-connected graph")


def count_threads(g: Graph) -> int:
    _require_top3(g)
    return len(threads(g))


@memoized
def _reduction(g: Graph) -> tuple[Thread, Graph]:
    for t in threads(g):
        reduced = thread_delete(g, t)
        if is_top_3_connected(reduced):
            return t, reduced
    raise VerificationFailed(
        "no removable thread found; impossible for a subdivision of a 3-connected graph"
    )


def find_reducible_thread(g: Graph) -> Thread:
    """Lexicographically first thread whose removal keeps the graph a
    subdivision of a 3-connected graph."""
    _require_top3(g)
    if is_top_k4(g):
        raise IsTopK4("already a subdivision of K4; nothing to reduce")
    return _reduction(g)[0]


def ear_sequence(g: Graph) -> EarSequence:
    """Iterate thread removals until a subdivision of K4 remains."""
    _require_top3(g)
    steps = []
    current = g
    while not is_top_k4(current):
        t, reduced = _reduction(current)
        steps.append((fingerprint(current), t))
        current = reduced
    return EarSequence(tuple(steps), current)


def _vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _anchored_block_size(g: Graph, contract: Circuit, anchor: EdgeSet) -> int:
    """Edge count of the block of G/C holding ``anchor``, a path outside C
    with its ends on C.  On a 2-connected host the blocks of G/C are C's
    bridges: the one holding the anchor's inner vertices, or a single chord."""
    on_cycle = set(contract.vertex_cycle)
    inner = next((v for e in anchor for v in g.psi[e] if v not in on_cycle), None)
    if inner is None:
        return 1
    bridge = bfs_tree(g.adjacency, inner, on_cycle)
    return len({e for v in bridge for e, _ in g.adjacency[v]})


@memoized
def _theta(g: Graph, t: Thread, cap: int) -> ThetaPair:
    tset = g.edge_set(t.edges)
    tbits, tmask = tset.bits, _vertex_mask(t.vertices)
    through = [
        (c, _vertex_mask(c.vertex_cycle))
        for c in _enumerate(g, cap) if tset.issubset(c.edges)
    ]

    def partners(ref: Circuit) -> list[Circuit]:
        """Circuits through the thread meeting ``ref`` exactly in it.

        Both tests are needed: by vertices alone, the thread plus an edge
        joining its ends would be its own partner.
        """
        rbits, rmask = ref.edges.bits, _vertex_mask(ref.vertex_cycle)
        return [
            c for c, cmask in through
            if c.edges.bits & rbits == tbits and cmask & rmask == tmask
        ]

    def best_partner(ref: Circuit) -> Circuit:
        anchor = ref.edges - tset
        return max(partners(ref), key=lambda c: _anchored_block_size(g, c, anchor))

    initial = next((c for c, _ in through if partners(c)), None)
    if initial is None:
        raise VerificationFailed("no two circuits meet exactly in the thread")

    # Meeting exactly in the thread is symmetric, so each reference has a partner.
    p = best_partner(initial)
    q = best_partner(p)
    if _is_separating_edges(g, p.edges) or _is_separating_edges(g, q.edges):
        raise VerificationFailed("the alpha-maximized theta pair is separating")
    return ThetaPair(p, q, t)


def theta_pair(g: Graph, t: Thread, cap: int = DEFAULT_CIRCUIT_CAP) -> ThetaPair:
    """Two non-separating circuits whose edge and vertex intersections are
    exactly the given thread.

    Follows the alpha-maximization recipe: among circuits meeting a
    reference circuit exactly in the thread, pick the one maximizing the
    edge count of its bridge holding the reference's remainder (the block
    of its contraction holding it), then repeat with the roles swapped.
    Outputs are verified non-separating before returning;
    VerificationFailed otherwise.
    """
    _require_top3(g)
    _validate_thread(g, t)
    return _theta(g, t, cap)


def lift_circuit(g: Graph, t: Thread, q: Circuit) -> list[Circuit]:
    """Lift a non-separating circuit of the thread-deleted graph back to ``g``.

    If the thread is not a path-chord of the circuit, the circuit survives
    unchanged; otherwise it splits into the two cycles of its union with
    the thread.  Either way the returned circuits are non-separating in
    ``g`` and their GF(2) sum equals the input circuit.
    """
    _validate_thread(g, t)
    reduced = thread_delete(g, t)
    try:
        q = _validate_circuit(reduced, q)
    except NotACircuit as exc:
        raise NotInNcOfReduced(f"not a circuit of the reduced graph: {exc}") from exc
    if _is_separating_edges(reduced, q.edges):
        raise NotInNcOfReduced("circuit is separating in the reduced graph")
    if is_path_chord(g, q, t):
        r, s = split_on_path_chord(g, q, t)
        lifted = [r, s]
    else:
        lifted = [q]
    for c in lifted:
        if _is_separating_edges(g, c.edges):
            raise VerificationFailed("lifted circuit is separating in the host")
    return lifted


def _cancel_mod2(parts) -> tuple[Circuit, ...]:
    parity: dict[Circuit, int] = {}
    for part in parts:
        parity[part] = parity.get(part, 0) ^ 1
    kept = [c for c, odd in parity.items() if odd]
    kept.sort(key=Circuit.sort_key)
    return tuple(kept)


@memoized
def _decompose(g: Graph, circ: Circuit) -> tuple[Circuit, ...]:
    if is_top_k4(g):
        nc = non_separating_circuits(g)
        matrix = Gf2Matrix.from_rows(nc.edge_sets(), g.universe)
        cert = express_in_span(circ.edges, matrix)
        return tuple(nc.members[i] for i in cert.coefficients)
    t, reduced = _reduction(g)
    tbits = g.edge_set(t.edges)
    if circ.edges.isdisjoint(tbits):
        parts = []
        for part in _decompose(reduced, circ):
            parts.extend(lift_circuit(g, t, part))
        return _cancel_mod2(parts)
    if not tbits.issubset(circ.edges):
        raise VerificationFailed("circuit meets the thread in a proper nonempty subset")
    p = _theta(g, t, DEFAULT_CIRCUIT_CAP).first
    leftover = circ.edges ^ p.edges
    parts = [p]
    for piece in even_subgraph_to_circuits(reduced, leftover):
        for part in _decompose(reduced, piece):
            parts.extend(lift_circuit(g, t, part))
    return _cancel_mod2(parts)


def decompose_circuit(g: Graph, a: Circuit) -> DecompositionCertificate:
    """Express a circuit as a GF(2) sum of non-separating circuits of ``g``."""
    _require_top3(g)
    return decompose_cs_element(g, _validate_circuit(g, a).edges)


def decompose_cs_element(g: Graph, x: EdgeSet) -> DecompositionCertificate:
    """Express any cycle-space member as a GF(2) sum of non-separating
    circuits: peel it into edge-disjoint circuits and decompose each."""
    _require_top3(g)
    parts = []
    for piece in even_subgraph_to_circuits(g, x):
        parts.extend(_decompose(g, piece))
    cert = DecompositionCertificate(x, _cancel_mod2(parts), fingerprint(g))
    if cert.replay() != x:
        raise VerificationFailed("certificate replay does not reproduce the target")
    return cert
