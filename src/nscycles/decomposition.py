"""Ear assembly, theta pairs, and decomposition into non-separating circuits.

The decomposition runs an induction on threads: peel a reducible thread,
decompose in the smaller graph, and lift the parts back, splitting along
path-chords and toggling a theta circuit when the target uses the removed
thread.  Every intermediate claim is re-verified, so a returned certificate
is sound by construction.

The theta search runs on the branch graph H alone, one edge per thread,
and builds no circuit list.  A theta pair's reference circuit, the
lexicographically first circuit through the thread with a partner, is
found edge by edge: each edge of H, in ascending id order, is kept iff a
pruned depth-first search finds a valid path holding it and the edges
kept so far.  Each partner is the shortest non-separating circuit meeting
the other in the thread (alpha = |E| - |C|); those are chordless in H, so
they are grown as induced paths between the thread's ends there.  The
non-separating catalog is built only for the K4 terminal of the induction.

A thread t = xy is removable when g - t stays top-3-connected, decided on
g's branch graph H: as H is 3-connected, every cut of at most two vertices
of H - xy, x and y suppressed, separates x from y, so only the inner
vertices of one x-y path are tested, each by one low-point search.  The
full test of every vertex runs only on the host and on the K4 terminal.
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
    _branch_graph,
    _ear_step,
    _validate_thread,
    fingerprint,
    is_top_3_connected,
    is_top_k4,
    memoized,
    thread_delete,
    threads,
)
from .cycle_space import Gf2Matrix, express_in_span, is_cycle_space_member
from .circuits import (
    Circuit,
    _branch_cycle_circuit,
    _induced_paths,
    _is_separating_edges,
    _separates,
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
    step = _ear_step(g)
    if step is None:
        raise VerificationFailed(
            "no removable thread found; impossible for a subdivision of a 3-connected graph"
        )
    return step


def find_reducible_thread(g: Graph) -> Thread:
    """Lexicographically first thread whose removal keeps the graph a
    subdivision of a 3-connected graph.

    Removability is decided on g's branch graph H: a cut of at most two
    vertices of H - t's edge, t's ends suppressed, separates those ends,
    so it is decided by the inner vertices of one path between them.
    """
    _require_top3(g)
    if is_top_k4(g):
        raise IsTopK4("already a subdivision of K4; nothing to reduce")
    return _reduction(g)[0]


def ear_sequence(g: Graph) -> EarSequence:
    """Iterate thread removals until a subdivision of K4 remains.

    Each graph of the sequence is top-3-connected, so each removal is
    tested on its branch graph, as in :func:`find_reducible_thread`; g - t
    is built only for the thread removed, and only the host and the
    terminal get the full test.
    """
    _require_top3(g)
    steps = []
    current = g
    while not is_top_k4(current):
        t, reduced = _reduction(current)
        steps.append((fingerprint(current), t))
        current = reduced
    return EarSequence(tuple(steps), current)


def _first_with_partner(g: Graph, t: Thread) -> Circuit | None:
    """The lexicographically first circuit through ``t`` that has a partner,
    a circuit meeting it exactly in ``t``; None if there is none.

    The search runs on the branch graph h, where a circuit through t is
    t's edge ht = xy plus an x-y path P of h - ht; h numbers its edges as
    the threads, by smallest id, so they order circuits as g's ids do.
    P's edges are decided in ascending id order, include before exclude:
    two circuits compare by their smallest differing id and neither holds
    the other, so an edge is included iff some valid P holds it together
    with the edges included so far and none of those excluded.  That
    question is answered by a witness, a valid P: an edge on the current
    witness is included at once, any other one only if :func:`extend`
    finds a new witness holding it.  P is valid when h - ht minus P's
    edges and inner vertices still joins x to y: that path closes a partner.
    """
    h = _branch_graph(g)
    x, y = t.endpoints
    ht = next(e for e, w in h.adjacency[x] if w == y)  # t's edge in h
    psi = h.psi
    # vertex -> (edge, neighbor) over the candidate edges
    adj = {v: [(e, w) for e, w in pairs if e != ht] for v, pairs in h.adjacency.items()}

    # A state is (included edges as a bitmask, degrees, fragment ends,
    # fragment count), the undecided edges being those from some id k on:
    # the included edges form vertex-disjoint paths, the fragments, and
    # ``end`` maps each end of a fragment to its other end.
    def free(v, deg: dict) -> bool:
        d = deg.get(v, 0)
        return d == 0 or d == 1 and v != x and v != y

    def joinable(v, w, deg: dict, end: dict, frags: int) -> bool:
        """Including an edge v-w keeps the fragments extendable to one path:
        no degree above 2 (1 at x or y), no cycle, and x's and y's
        fragments joined only when no other fragment is left."""
        if not (free(v, deg) and free(w, deg)) or end.get(v, v) == w:
            return False
        if {v, w} == {end.get(x, x), end.get(y, y)}:
            return frags == (x in deg) + (y in deg)
        return True

    def include(e: int, deg: dict, end: dict) -> int:
        """Add edge ``e`` to ``deg`` and ``end``; the change in the fragment
        count."""
        u, v = psi[e]
        a, b = end.pop(u, u), end.pop(v, v)
        end[a], end[b] = b, a
        grown = 1 - (u in deg) - (v in deg)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        return grown

    def partner_room(s: int, deg: dict) -> bool:
        """G minus t, the included edges ``s`` and their vertices other than
        x and y still joins x to y; no later inclusion undoes a failure."""
        reached = {x}
        queue = [x]
        for v in queue:
            for e, w in adj[v]:
                if w not in reached and not s >> e & 1 and (w == y or w not in deg):
                    if w == y:
                        return True
                    reached.add(w)
                    queue.append(w)
        return False

    def open_ends(deg: dict, end: dict):
        """The vertices P must still leave: x and y while bare, and the
        fragment ends other than x and y."""
        return (*(v for v in (x, y) if v not in deg),
                *(v for v in end if v != x and v != y))

    def nearness(k: int, s: int, deg: dict, end: dict, v) -> dict:
        """Hops from each free vertex, over undecided edges and avoiding
        ``v``, to the nearest open end that P may join ``v`` to."""
        targets = [u for u in open_ends(deg, end) if u != v and u != end.get(v)]
        dist = dict.fromkeys(targets, 0)
        for u in targets:  # grows while it is read: a breadth-first queue
            for e, w in adj[u]:
                if w not in dist and w != v and e >= k and not s >> e & 1 and free(w, deg):
                    dist[w] = dist[u] + 1
                    targets.append(w)
        return dist

    def extend(k: int, s: int, deg: dict, end: dict, frags: int) -> int | None:
        """The edges, as a bitmask, of some valid P holding the included
        edges ``s`` and otherwise only edges from id ``k`` on; None if there
        is none.

        A depth-first search on an explicit stack that branches on the open
        end with the fewest joinable edges left, since P leaves it by
        exactly one of them: with one it takes it, with none, or with no
        partner's room left, the node is dead.  Where it branches it tries
        first the edge whose far end lies nearest another open end.
        """
        stack = [(s, deg, end, frags)]
        while stack:
            s, deg, end, frags = stack.pop()
            if not partner_room(s, deg):
                continue
            if end.get(x) == y:
                return s
            best = None
            for v in open_ends(deg, end):
                options = [e for e, w in adj[v]
                           if e >= k and not s >> e & 1 and joinable(v, w, deg, end, frags)]
                if best is None or len(options) < len(best):
                    best, at = options, v
                    if len(best) < 2:
                        break
            if len(best) > 1:
                dist = nearness(k, s, deg, end, at)
                best.sort(key=lambda e: dist.get(psi[e][psi[e][0] == at], len(adj)),
                          reverse=True)
            for e in best:  # the last pushed is tried first
                child_deg, child_end = dict(deg), dict(end)
                grown = include(e, child_deg, child_end)
                stack.append((s | 1 << e, child_deg, child_end, frags + grown))
        return None

    s, deg, end, frags = 0, {}, {}, 0
    witness = extend(0, s, deg, end, frags)
    if witness is None:
        return None
    for e in sorted({e for pairs in adj.values() for e, _ in pairs}):
        if end.get(x) == y:
            break
        if not witness >> e & 1:  # kept only if a new witness holds it
            if not joinable(*psi[e], deg, end, frags):
                continue
            child_deg, child_end = dict(deg), dict(end)
            grown = include(e, child_deg, child_end)
            found = extend(e + 1, s | 1 << e, child_deg, child_end, frags + grown)
            if found is None:
                continue
            witness = found
        frags += include(e, deg, end)
        s |= 1 << e
    return _branch_cycle_circuit(g, s | 1 << ht)


@memoized
def _theta(g: Graph, t: Thread) -> ThetaPair:
    initial = _first_with_partner(g, t)
    if initial is None:
        raise VerificationFailed("no two circuits meet exactly in the thread")
    h = _branch_graph(g)
    x, y = t.endpoints
    ht = next(e for e, w in h.adjacency[x] if w == y)  # t's edge in h

    def best_partner(ref: Circuit) -> Circuit | None:
        """The shortest non-separating circuit meeting ``ref`` exactly in
        the thread, the first by sorted edge ids on ties: the alpha maximizer.

        Non-separating circuits are chordless in h, so a partner is t plus
        an induced x-y path of h - ht that avoids ref's other branch
        vertices: an edge from a path vertex to y would be a chord, so the
        path stops at the first neighbor of y.
        """
        allowed = h.vertices.difference(ref.vertex_cycle)
        to_y = {w: e for e, w in h.adjacency[y] if w in allowed}
        partners = []
        for path, bits, last in _induced_paths(h, x, allowed, to_y):
            bits |= 1 << to_y[last] | 1 << ht
            if not _separates(h, {*path, last, y}, bits):
                partners.append(_branch_cycle_circuit(g, bits))
        return min(partners, key=lambda c: (len(c), c.sort_key()), default=None)

    p = best_partner(initial)
    q = None if p is None else best_partner(p)
    if q is None or _is_separating_edges(g, p.edges) or _is_separating_edges(g, q.edges):
        raise VerificationFailed("the shortest non-separating theta pair is separating")
    return ThetaPair(p, q, t)


def theta_pair(g: Graph, t: Thread) -> ThetaPair:
    """Two non-separating circuits whose edge and vertex intersections are
    exactly the given thread.

    Follows the alpha-maximization recipe on the branch graph alone.  The
    reference circuit is the lexicographically first circuit through the
    thread that has a partner (a circuit meeting it exactly in the
    thread), found by a pruned include/exclude search over the branch
    graph's edges, so no circuit list is built.  Its partner is the
    shortest non-separating circuit meeting it exactly in the thread, the
    first by sorted edge ids on ties, and the second circuit is that
    partner's partner: a non-separating circuit C has one bridge, holding
    every edge off C, so its alpha is |E| - |C|, and every alpha maximizer
    is non-separating.  Partners are the induced paths of the branch graph
    that avoid the reference's other branch vertices and do not separate.
    Outputs are verified non-separating before returning;
    VerificationFailed otherwise.
    """
    _require_top3(g)
    _validate_thread(g, t)
    return _theta(g, t)


def lift_circuit(g: Graph, t: Thread, q: Circuit) -> list[Circuit]:
    """Lift a non-separating circuit of the thread-deleted graph back to ``g``.

    If the thread is not a path-chord of the circuit, the circuit survives
    unchanged; otherwise it splits into the two cycles of its union with
    the thread.  Either way the returned circuits are non-separating in
    ``g`` and their GF(2) sum equals the input circuit.
    """
    return list(_lift(g, t, q))


@memoized
def _lift(g: Graph, t: Thread, q: Circuit) -> tuple[Circuit, ...]:
    _validate_thread(g, t)
    reduced = thread_delete(g, t)
    try:
        q = _validate_circuit(reduced, q)
    except NotACircuit as exc:
        raise NotInNcOfReduced(f"not a circuit of the reduced graph: {exc}") from exc
    if _is_separating_edges(reduced, q.edges):
        raise NotInNcOfReduced("circuit is separating in the reduced graph")
    lifted = split_on_path_chord(g, q, t) if is_path_chord(g, q, t) else (q,)
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
def _catalog_matrix(g: Graph) -> Gf2Matrix:
    return Gf2Matrix.from_rows(non_separating_circuits(g).edge_sets(), g.universe)


@memoized
def _decompose(g: Graph, circ: Circuit) -> tuple[Circuit, ...]:
    if is_top_k4(g):
        cert = express_in_span(circ.edges, _catalog_matrix(g))
        return tuple(non_separating_circuits(g).members[i] for i in cert.coefficients)
    t, reduced = _reduction(g)
    tbits = g.edge_set(t.edges)
    if circ.edges.isdisjoint(tbits):
        parts = []
        for part in _decompose(reduced, circ):
            parts.extend(lift_circuit(g, t, part))
        return _cancel_mod2(parts)
    if not tbits.issubset(circ.edges):
        raise VerificationFailed("circuit meets the thread in a proper nonempty subset")
    p = _theta(g, t).first
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
