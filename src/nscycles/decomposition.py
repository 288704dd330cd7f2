"""Ear assembly, theta pairs, and decomposition into non-separating circuits.

The decomposition runs the induction on threads in one pass down the ear
sequence, toggling the target with a theta circuit wherever it holds the
removed thread; nothing recurses.  The parts are the lifts to the host of
those theta circuits and of the K4 terminal's catalog members used, kept
or split along path-chords step by step, mod 2.  Each such lift is built
once per host and source and kept in the host's memo, so later targets on
one host only sum them.  Everything runs on edge bitmasks, and no
intermediate part is checked.  The output is certified instead (McConnell,
Mehlhorn, Naeher and Schweitzer, "Certifying algorithms", 2011): each
final part is checked once to be a circuit of the host and non-separating
there, and the parts must sum to the target, so a returned certificate is
sound whatever the passes did.  verify-all's lifting check takes the
threads of the same ear walk, :func:`_chain`, and the same lift,
:func:`_lift_bits`; the public :func:`lift_circuit` takes that split,
``circuits._halves``, too.

The theta search runs on the branch graph H as the ear walk carries it,
with no graph built for H: its index lists and neighbor masks
(``graph_core._lists``, which the ear step hands down) and g's thread
runs, each run's edge bitmask giving its length.  The host reads them off
its own branch graph; one walk per host (:func:`_handed_down`) hands each
g_i - t of a decomposition its runs, derived from g_i's by O(degree)
edits on top of a copy.  The search compares candidates as edge bitmasks
and builds only its winner.  One search returns the shortest
non-separating circuit through the thread meeting a vertex set only in
the thread's ends, ties going to the smallest sorted edge ids: a theta
pair is the shortest one through the thread, then the shortest meeting
that exactly in the thread (alpha = |E| - |C|); the decomposition needs
only the first.  Non-separating circuits are chordless in H (Tutte
1963), so each is the thread plus an induced path between its ends
there, grown by a depth-first search that drops a path once its length
plus its Dijkstra distance to the far end exceeds a limit.  The limit
starts at the least such bound and rises by 1 until a circuit is found,
so no path longer than the answer is grown; it stays exponential in the
worst case.  The non-separating catalog is built only for the K4
terminal of the induction.

A thread t = xy is removable when g - t stays top-3-connected, decided on
g's branch graph H: as H is 3-connected, every cut of at most two vertices
of H - xy, x and y suppressed, separates x from y, so only the inner
vertices of one x-y path are tested, each by one low-point search.  One
ear sequence runs all its removal tests on one set of index lists for H:
the host's are its branch graph's index lists, as its 3-connectivity test
reads them, and each removal hands g - t those of its own branch graph.
The full test of every vertex runs only on the host and on the K4
terminal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import (
    IsTopK4,
    NotACircuit,
    NotEven,
    NotInNcOfReduced,
    NotTop3Connected,
    VerificationFailed,
)
from .graph_core import (
    EdgeSet,
    Graph,
    Thread,
    _ear_step,
    _incident_bits,
    _key_digest,
    _lists,
    _remember,
    _validate_thread,
    fingerprint,
    is_top_3_connected,
    is_top_k4,
    memoized,
    thread_delete,
    threads,
)
from . import circuits
from .cycle_space import Gf2Matrix, express_in_span, is_cycle_space_member
from .circuits import (
    Circuit,
    _Steps,
    _branch_cycle_circuit,
    _halves,
    _induced_paths,
    _is_separating_edges,
    _separates,
    _thread_runs,
    _validate_circuit,
    circuit_from_edges,
    non_separating_circuits,
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
        total = 0
        for part in self.parts:
            self.target._check(part.edges)
            total ^= part.edges.bits
        return EdgeSet(total, self.target.universe)


def _require_top3(g: Graph) -> None:
    if not is_top_3_connected(g):
        raise NotTop3Connected("graph is not a subdivision of a 3-connected graph")


def count_threads(g: Graph) -> int:
    _require_top3(g)
    return len(threads(g))


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
    return _ear_step(g)[0]


def ear_sequence(g: Graph) -> EarSequence:
    """Iterate thread removals until a subdivision of K4 remains.

    Each graph of the sequence is top-3-connected, so each removal is
    tested on its branch graph, as in :func:`find_reducible_thread`, read
    from index lists that each removal hands down to the next graph; g - t
    is built only for the thread removed, and only the host and the
    terminal get the full test.  It reads the walk of :func:`_chain`, each
    g - t handed its degree table, threads, connectivity and removal
    lists.  Step i's fingerprint is hashed from the reprs of the host's
    sorted vertices and edge triples less those threads 0..i-1 removed.
    """
    _require_top3(g)
    steps, terminal = _chain(g)
    vertices = {v: repr(v) for v in sorted(g.vertices)}
    triples = {e: repr((e, *p)) for e, p in sorted(g.psi.items())}
    out = []
    for t, _, _ in steps:
        out.append((_key_digest(vertices.values(), triples.values(), g.universe), t))
        for v in t.inner_vertices():
            del vertices[v]
        for e in t.edges:
            del triples[e]
    return EarSequence(tuple(out), terminal)


def _distances_to(nbrs: list, vertex: list, runs: dict, ends: dict, allowed: int) -> dict:
    """Least length of a path from each index of ``allowed`` to y, in the
    branch graph given by the neighbor index lists ``nbrs``, whose only
    index in ``ends`` (y's neighbors, each mapped to the length of its
    thread to y) is its last before y; indices with no such path are left
    out.  A step's length is that of its thread in ``runs``, g's
    :func:`_thread_runs`, read through ``vertex``, index -> branch vertex.
    Dijkstra, from ``ends`` inwards."""
    dist = dict(ends)
    heap = [(d, w) for w, d in dist.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        u = vertex[v]
        for w in nbrs[v]:
            if allowed >> w & 1 and w not in ends:
                via = d + runs[u, vertex[w]][0].bit_count()
                if via < dist.get(w, math.inf):
                    dist[w] = via
                    heapq.heappush(heap, (via, w))
    return dist


def _precedes(a: int, b: int) -> bool:
    """True iff the edge set with bitmask ``a`` comes before the other one
    ``b``, by size and then by sorted edge ids, as ``(len(c), c.sort_key())``
    orders circuits: of two sets of one size, a's ids come first iff the
    lowest edge in just one of them is a's."""
    if a.bit_count() != b.bit_count():
        return a.bit_count() < b.bit_count()
    return bool((a ^ b) & -(a ^ b) & a)


@memoized
def _theta(g: Graph, t: Thread, avoid: tuple) -> Circuit:
    """The shortest non-separating circuit through the thread that meets
    the vertices ``avoid`` only in its ends, the first by sorted edge ids
    on ties: t plus an induced x-y path of the branch graph H - t's edge
    off ``avoid``, as non-separating circuits are chordless in H.  H is
    read as g's index lists and neighbor masks (:func:`_lists`), its live
    indices being those not suppressed, and g's thread runs
    (``circuits._thread_runs``), which below a decomposition's host
    :func:`_handed_down` has handed down the ear walk; no graph is built
    for it.  The path stops at the first neighbor of y, as an edge from a
    path vertex to y would be a chord.  The search is deepened: every path
    within a limit is yielded, and the limit rises by 1 from the least
    bound, so the first limit at which a circuit appears is the shortest
    one's length.  Candidates are compared on their edge bitmasks
    (:func:`_precedes`), only one that would be the new best is tested for
    bridges in H, and only the winner is built, from its vertex order.
    The winner is not tested again in g: a circuit has as many bridges in
    g as its cycle in H, and the callers certify what they return.
    VerificationFailed if there is none."""
    index, nbrs, masks, suppressed = _lists(g)
    live = (1 << len(masks)) - 1 - sum(1 << v for v in suppressed)
    runs = _thread_runs(g)
    vertex = list(index)
    x, y = (index[v] for v in t.endpoints)
    free = live & ~sum(1 << index[v] for v in avoid if v in index)
    to_y = {w: runs[vertex[w], t.endpoints[1]][0] for w in nbrs[y] if free >> w & 1}
    bound = _distances_to(nbrs, vertex, runs, {w: m.bit_count() for w, m in to_y.items()}, free)
    order = _Steps(nbrs, vertex, runs, bound)
    ends, tbits = sum(1 << w for w in to_y), runs[t.endpoints][0]
    limit = min((m.bit_count() + bound[w] for m, w in order[x]), default=math.inf)
    best, best_bits = None, 0
    # on the length of the x-y path, which is shorter than all threads
    # together: past that, the search was exhaustive
    while best is None and limit < len(g.edges):
        for path, bits, last in _induced_paths(masks, x, free, ends, order, limit):
            bits |= to_y[last] | tbits
            if best is None or _precedes(bits, best_bits):
                if not _separates(masks, live, sum(1 << v for v in path) | 1 << last | 1 << y, 0):
                    best, best_bits = [*path, last, y], bits
        limit += 1
    if best is None:
        raise VerificationFailed("the shortest non-separating theta pair is separating")
    return _branch_cycle_circuit(g, [vertex[v] for v in best])


def theta_pair(g: Graph, t: Thread) -> ThetaPair:
    """Two non-separating circuits whose edge and vertex intersections are
    exactly the given thread.

    ``first`` is the shortest non-separating circuit through the thread,
    and ``second`` the shortest non-separating circuit meeting ``first``
    exactly in the thread, each the first by sorted edge ids on ties.  A
    non-separating circuit C has one bridge, holding every edge off C, so
    its alpha is |E| - |C|: ``second`` is the paper's alpha maximizer
    among ``first``'s partners, which is non-separating.  Partners exist:
    ``first`` is chordless in the branch graph H, H has minimum degree 3,
    and H - V(first) is connected, so the thread's ends each have a
    neighbor in it and are joined through it.  Both circuits are grown as
    induced paths of H by a search bounded by a limit raised from below,
    exponential in the worst case.  Both circuits are verified
    non-separating in g before returning; VerificationFailed otherwise.
    """
    _require_top3(g)
    _validate_thread(g, t)
    first = _theta(g, t, t.endpoints)
    second = _theta(g, t, first.vertex_cycle)
    if _is_separating_edges(g, first.edges) or _is_separating_edges(g, second.edges):
        raise VerificationFailed("the shortest non-separating theta pair is separating")
    return ThetaPair(first, second, t)


def lift_circuit(g: Graph, t: Thread, q: Circuit) -> list[Circuit]:
    """Lift a non-separating circuit of the thread-deleted graph back to ``g``.

    If the thread is not a path-chord of the circuit, the circuit survives
    unchanged; otherwise it splits, as :func:`_lift_bits` splits it, into
    the two cycles of its union with the thread, the one holding the
    circuit's smallest edge id first.  Either way the returned circuits are
    non-separating in ``g`` and their GF(2) sum equals the input circuit.
    """
    _validate_thread(g, t)
    reduced = thread_delete(g, t)
    try:
        q = _validate_circuit(reduced, q)
    except NotACircuit as exc:
        raise NotInNcOfReduced(f"not a circuit of the reduced graph: {exc}") from exc
    if _is_separating_edges(reduced, q.edges):
        raise NotInNcOfReduced("circuit is separating in the reduced graph")
    tbits = g.edge_set(t.edges).bits
    lifted = [circuit_from_edges(g, EdgeSet(h, g.universe).ids())
              for h in _lift_bits(g, _incident_bits(g), t, tbits, q.edges.bits)]
    for c in lifted:
        if _is_separating_edges(g, c.edges):
            raise VerificationFailed("lifted circuit is separating in the host")
    return lifted


@memoized
def _catalog_matrix(g: Graph) -> Gf2Matrix:
    return Gf2Matrix.from_rows(non_separating_circuits(g).edge_sets(), g.universe)


@memoized
def _chain(g: Graph) -> tuple[tuple, Graph]:
    """The ear steps of ``g`` as (t, t's edge bitmask, g_i - t), g_i the
    graph t is removed from (g_0 = g), and the K4 terminal."""
    steps = []
    while not is_top_k4(g):
        t, reduced = _ear_step(g)
        steps.append((t, sum(1 << e for e in t.edges), reduced))
        g = reduced
    return tuple(steps), g


@memoized
def _handed_down(g: Graph) -> None:
    """Hands each g_i - t of :func:`_chain` the thread runs of its branch
    graph that :func:`_theta` reads, derived from g_i's: t's two pairs are
    dropped, and at each end of t left with degree 2 the two runs there are
    joined.  Walked once per host by :func:`_decompose`;
    :func:`ear_sequence` reads the same chain and pays for none of it."""
    runs = _thread_runs(g)
    index, _, _, before = _lists(g)
    vertex = list(index)  # the host's indices, kept down the chain
    for t, _, reduced in _chain(g)[0]:
        _, nbrs, _, suppressed = _lists(reduced)
        runs = dict(runs)
        x, y = t.endpoints
        del runs[x, y], runs[y, x]
        for v in suppressed[len(before):]:
            a, b = nbrs[v]
            u, p, q = vertex[v], vertex[a], vertex[b]
            (bits, p_run), (q_bits, q_run) = runs.pop((p, u)), runs.pop((q, u))
            bits |= q_bits
            runs[p, q] = bits, p_run + runs.pop((u, q))[1]
            runs[q, p] = bits, q_run + runs.pop((u, p))[1]
        # circuits' own name: a tracer's wrapper on the name imported here
        # would store the table under a key the memo never reads
        _remember(reduced, circuits._thread_runs, runs)
        before = suppressed


def _lift_bits(g: Graph, at: dict, t: Thread, tbits: int, q: int) -> tuple[int, ...]:
    """The lift of q, the edge bitmask of a circuit of g_i - t, to g_i, read
    on the host ``g`` and its vertex -> edge bitmask ``at``: q passes both
    ends of t exactly when t path-chords it, and then splits into its two
    walks between them, each closed by t (``tbits``); else q is kept."""
    x, y = t.endpoints
    if not (q & at[x] and q & at[y]):
        return (q,)
    return _halves(g, q, x, y, tbits)


@memoized
def _lifted(g: Graph, i: int, q: int) -> frozenset:
    """The edge bitmasks of host circuits that q, the edge bitmask of a
    non-separating circuit of g_i (the K4 terminal for i = the number of
    steps), becomes when lifted up steps i - 1, ..., 0 of
    :func:`_chain`, mod 2: each lift keeps a part or splits it, and the
    lemma keeps every part non-separating.  Built once per host and source,
    a p or a terminal member, and kept in the host's memo."""
    steps, at = _chain(g)[0], _incident_bits(g)
    parts = {q}
    for t, tbits, _ in reversed(steps[:i]):
        lifted = set()
        for r in parts:
            lifted.symmetric_difference_update(_lift_bits(g, at, t, tbits, r))
        parts = lifted
    return frozenset(parts)


def _decompose(g: Graph, x: EdgeSet) -> set[int]:
    """Edge bitmasks of non-separating circuits of ``g`` summing to the
    even set x, each still to be certified (see ``_part``).

    Down the ear sequence, an x holding the removed thread t is toggled
    with p, the shortest non-separating circuit through t (the first of
    t's theta pair, found by one search); at the K4 terminal, x is
    expressed in the catalog.  The parts are the lifts to g of each p and
    of each catalog member used, mod 2: lifting is linear, so this is the
    pass back up that lifts the parts below and adds p at each step.  The
    lifts are built once per host and source (:func:`_lifted`), so a
    repeated target on one host lifts nothing.  Everything runs on edge
    bitmasks and no intermediate part is checked: the lemma makes each
    lift non-separating, and the final parts are checked once.  This is
    linear in x: the catalog expression reduces against fixed pivots, p
    is fixed by (g, t), and an even set holds t iff it holds t's first
    edge.  So any split of x, such as a peel into circuits, gives these
    same parts.
    """
    steps, terminal = _chain(g)
    _handed_down(g)
    parts: set[int] = set()
    bits, level = x.bits, g
    for i, (t, tbits, reduced) in enumerate(steps):
        if bits & tbits:
            if bits & tbits != tbits:
                raise VerificationFailed("edge set meets the thread in a proper nonempty subset")
            p = _theta(level, t, t.endpoints).edges.bits
            parts ^= _lifted(g, i, p)
            bits ^= p
        level = reduced
    members = non_separating_circuits(terminal).members
    coefficients = express_in_span(EdgeSet(bits, g.universe), _catalog_matrix(terminal)).coefficients
    for j in coefficients:
        parts ^= _lifted(g, len(steps), members[j].edges.bits)
    return parts


@memoized
def _part(g: Graph, bits: int) -> tuple[tuple[int, ...], Circuit]:
    """The circuit of ``g`` with edge bitmask ``bits``, certified, after its
    sort key: it must be a circuit of g and non-separating there;
    VerificationFailed otherwise."""
    try:
        c = circuit_from_edges(g, EdgeSet(bits, g.universe).ids())
    except NotACircuit as exc:
        raise VerificationFailed(f"decomposition part is not a circuit: {exc}") from exc
    if _is_separating_edges(g, c.edges):
        raise VerificationFailed("decomposition part is separating in the host")
    return c.sort_key(), c


def decompose_circuit(g: Graph, a: Circuit) -> DecompositionCertificate:
    """Express a circuit as a GF(2) sum of non-separating circuits of ``g``."""
    _require_top3(g)
    return decompose_cs_element(g, _validate_circuit(g, a).edges)


def decompose_cs_element(g: Graph, x: EdgeSet) -> DecompositionCertificate:
    """Express any cycle-space member as a GF(2) sum of non-separating
    circuits, sorted by edge ids (see ``_decompose``).  Each part is checked
    once to be a non-separating circuit of g, and the parts to sum to x;
    VerificationFailed otherwise."""
    _require_top3(g)
    if not is_cycle_space_member(g, x):
        raise NotEven("edge set has a vertex of odd degree")
    parts = tuple(c for _, c in sorted(_part(g, q) for q in _decompose(g, x)))
    cert = DecompositionCertificate(x, parts, fingerprint(g))
    if cert.replay() != x:
        raise VerificationFailed("certificate replay does not reproduce the target")
    return cert
