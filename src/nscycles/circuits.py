"""Circuit enumeration, the separating test, and path-chord geometry.

A circuit C is *separating* when it has two or more *bridges* (Tutte 1963,
"How to draw a graph"): chords, the non-loop edges outside C with both ends
on C, and components of G - V(C) meeting C in two or more vertices, each
with its edges to C.  Contracting C turns its block into one block per
bridge, so this is contracting C leaving more blocks than the host has.
Subdivisions of simple 3-connected graphs read their non-separating catalog
off the chordless cycles of the branch graph; other hosts test every circuit.

The induced-path search and the separation test work on integer
vertices and their neighbor masks, and the test floods each component of
G - V(C) with ``graph_core._flood``.  The vertices are the indices of
``graph_core._index`` with the masks of ``graph_core._masks`` for the
separation tests in g and in the catalog's branch graph, the labels
themselves for the chordless-cycle search, and the indices of
``graph_core._lists`` for the theta search of ``decomposition``, which
runs both kernels on the tables an ear walk carries.  The search yields each
chordless cycle of the branch graph as its cyclic vertex order, and the
circuit of g along it is built in that one pass
(:func:`_branch_cycle_circuit`): each consecutive pair of branch vertices
gives its thread's edge bitmask and vertex run from one per-graph table,
so no circuit is walked a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise

from .errors import (
    CircuitExplosion,
    Disconnected,
    NotACircuit,
    NotAPathChord,
    NotEven,
)
from .graph_core import (
    EdgeSet,
    Graph,
    Thread,
    _branch,
    _flood,
    _incidence,
    _index,
    _masks,
    _threads,
    _validate_thread,
    _walk,
    fingerprint,
    is_connected,
    is_top_3_connected,
    memoized,
)
from .cycle_space import is_cycle_space_member

DEFAULT_CIRCUIT_CAP = 100_000


@dataclass(frozen=True)
class Circuit:
    """Edge set of a single cycle, with its canonical cyclic vertex order."""

    edges: EdgeSet
    vertex_cycle: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def sort_key(self) -> tuple[int, ...]:
        return self.edges.ids()


@dataclass(frozen=True)
class NcCatalog:
    """All non-separating circuits of one graph, in canonical order."""

    members: tuple[Circuit, ...]
    graph_fingerprint: str

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def edge_sets(self) -> tuple[EdgeSet, ...]:
        return tuple(c.edges for c in self.members)


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    if len(seq) <= 2:
        return tuple(sorted(seq))
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def _cycle_walk(psi: dict, ids) -> tuple[list[int], list]:
    """The edges and vertices (both ends included) of the one cycle that the
    edges ``ids`` of ``psi`` form, walked from its least vertex; else NotACircuit."""
    if not ids:
        raise NotACircuit("empty edge set")
    inc = _incidence(psi, ids)
    if any(len(lst) != 2 for lst in inc.values()):
        raise NotACircuit("some vertex does not have degree 2")
    start = min(inc)
    edges, cycle = _walk(inc, start, *inc[start][0])
    if len(edges) != len(ids):
        raise NotACircuit("edges form more than one cycle")
    return edges, cycle


def circuit_from_edges(g: Graph, edge_ids) -> Circuit:
    """Validate that the edges form one cycle of ``g`` and canonicalize it."""
    ids = sorted(set(edge_ids))
    for e in ids:
        if e not in g.edges:
            raise NotACircuit(f"edge {e} is not an edge of the graph")
    loops = [e for e in ids if g.psi[e][0] == g.psi[e][1]]
    if len(ids) == 1 and not loops:
        raise NotACircuit("a single non-loop edge is not a cycle")
    if loops and len(ids) > 1:
        raise NotACircuit(f"loop edge {loops[0]} inside a multi-edge set")
    cycle = _cycle_walk(g.psi, ids)[1]
    return Circuit(g.edge_set(ids), _canonical_cycle(tuple(cycle[:-1])))


def _validate_circuit(g: Graph, c: Circuit) -> Circuit:
    rebuilt = circuit_from_edges(g, c.edges.ids())
    if rebuilt.vertex_cycle != c.vertex_cycle:
        raise NotACircuit("vertex cycle does not match the edge set")
    return rebuilt


@memoized
def _enumerate(g: Graph, cap: int) -> tuple[Circuit, ...]:
    # Depth-first over simple paths from each start vertex s through larger
    # vertices only; an edge back to s closes a circuit, kept once per edge set.
    adjacency = g.adjacency
    found: dict[int, tuple[int, ...]] = {}
    for s in sorted(g.vertices):
        path_edges: list[int] = []
        path_verts = [s]
        on_path = {s}
        used: set[int] = set()  # the edges of path_edges
        frames = [iter(adjacency[s])]
        while frames:
            for e, w in frames[-1]:
                if e in used:
                    continue
                if w == s:
                    bits = 1 << e
                    for x in path_edges:
                        bits |= 1 << x
                    if bits not in found:
                        if len(found) >= cap:
                            raise CircuitExplosion(f"more than {cap} circuits")
                        found[bits] = tuple(path_verts)
                elif w > s and w not in on_path:
                    used.add(e)
                    path_edges.append(e)
                    path_verts.append(w)
                    on_path.add(w)
                    frames.append(iter(adjacency[w]))
                    break
            else:
                frames.pop()
                if path_edges:
                    used.remove(path_edges.pop())
                    on_path.remove(path_verts.pop())

    circuits = [
        Circuit(EdgeSet(bits, g.universe), _canonical_cycle(verts))
        for bits, verts in found.items()
    ]
    circuits.sort(key=Circuit.sort_key)
    return tuple(circuits)


def enumerate_circuits(g: Graph, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """All circuits of ``g``, ordered lexicographically by sorted edge ids.

    Raises CircuitExplosion when the count exceeds ``cap``.
    """
    return list(_enumerate(g, cap))


def _separates(nbrs: list, live: int, on: int, bridges: int) -> bool:
    """True iff the cycle on the vertices ``on``, which has ``bridges``
    chords, has two or more bridges in the graph on the vertices ``live``,
    both vertex bitmasks over ``nbrs``, index -> the bits of that vertex's
    neighbors.  O(m) bitmask operations."""
    rest = live & ~on
    while rest and bridges < 2:
        # one component of G - V(C), and its neighbors
        part, reach = _flood(nbrs, rest & -rest, rest)
        if not bridges and part == rest:
            return False  # no chord and one component: at most one bridge
        rest &= ~part
        bridges += (reach & on).bit_count() >= 2
    return bridges >= 2


@memoized
def _is_separating_edges(g: Graph, edges: EdgeSet) -> bool:
    bits = edges.bits
    on_cycle = {v for e in edges for v in g.psi[e]}
    # chords, each counted at its smaller end; the branch-graph callers of
    # _separates pass chordless cycles only
    chords = sum(1 for v in on_cycle for e, w in g.adjacency[v]
                 if v < w and w in on_cycle and not bits >> e & 1)
    index, masks = _index(g)[0], _masks(g)
    return _separates(masks, (1 << len(masks)) - 1, sum(1 << index[v] for v in on_cycle), chords)


def is_separating(g: Graph, c: Circuit) -> bool:
    """True iff the circuit has two or more bridges (chords, and components
    of G - V(C) meeting it in two or more vertices), that is, iff
    contracting it leaves more blocks than the host has.  O(m)."""
    if not is_connected(g):
        raise Disconnected("the separating test is defined on connected graphs")
    _validate_circuit(g, c)
    return _is_separating_edges(g, c.edges)


class _Steps(dict):
    """Index -> its steps to the indices of ``bound`` in the branch graph
    with neighbor index lists ``nbrs``, as (its thread's edge bitmask in g,
    neighbor index) pairs (see :func:`_induced_paths`).  Threads are read
    from ``runs``, g's :func:`_thread_runs`, through ``vertex``, index ->
    branch vertex.  A tip's steps are built on their first lookup and kept,
    so a search builds only the tips it reaches."""

    def __init__(self, nbrs: list, vertex: list, runs: dict, bound: dict):
        super().__init__()
        self.nbrs, self.vertex, self.runs, self.bound = nbrs, vertex, runs, bound

    def __missing__(self, v):
        vertex, runs, u = self.vertex, self.runs, self.vertex[v]
        steps = self[v] = [(runs[u, vertex[w]][0], w) for w in self.nbrs[v] if w in self.bound]
        return steps


def _induced_paths(nbrs: list, start: int, allowed: int, ends: int, order, limit=None):
    """Each induced path of the simple graph with neighbor masks ``nbrs``
    (index -> the bits of its neighbors' indices) that leaves ``start``
    through the indices whose bits are in ``allowed`` and stops at the
    first one in ``ends``, as its indices but the last (a list the search
    goes on to change), its edge bitmask and its last index.

    ``order`` maps each index to its steps, (edge bitmask, neighbor index)
    pairs; a path's edge bitmask is the OR of its steps'.  Grows the path
    depth first.  Each frame carries ``free``: the allowed indices off the
    path and adjacent to no path index but the tip, which are those that
    extend the tip without a chord; a push clears the old tip and its
    neighbors.  An index of ``ends`` closes a path, unpassed.

    Given ``limit``, ``order`` is a :class:`_Steps`: a step's bitmask is its
    thread in g, so a path's length is its bitmask's bit count, and
    ``order.bound`` maps an index to a lower bound on the length still to
    go after it.  A step is dropped when its length plus its bound is
    strictly greater than ``limit``, so every path within the limit is
    still yielded.  It stays exponential in the worst case.  A caller that
    searches under several limits passes one ``order``, so each tip's steps
    are built once.
    """
    bound = limit and order.bound
    path = [start]
    # DFS frames: (free indices, edge bitmask of the path, iterator over
    # its tip's steps)
    frames = [(allowed, 0, iter(order[start]))]
    while frames:
        free, bits, steps = frames[-1]
        for step, w in steps:
            if not free >> w & 1 or limit and (bits | step).bit_count() + bound[w] > limit:
                continue
            if ends >> w & 1:
                yield path, bits | step, w
            else:
                u = path[-1]
                free &= ~(1 << u | nbrs[u])
                path.append(w)
                frames.append((free, bits | step, iter(order[w])))
                break
        else:
            frames.pop()
            path.pop()


def _chordless_cycles(h: Graph, cap: int):
    """Each chordless cycle of the simple graph ``h`` once, as its cyclic
    vertex order and edge bitmask: the order starts at the cycle's least
    vertex s, and its second vertex is smaller than its last.

    From each vertex s and each larger neighbor p1 but the largest, grows
    the induced paths p1, ... through vertices larger than s, closing at a
    neighbor of s, with each vertex's own label as its bit.  Each cycle is
    found in both directions and kept when p1 is smaller than its last
    vertex, so a path from s's largest neighbor is never kept.  Raises
    CircuitExplosion past ``cap`` cycles.
    """
    nbrs = [0] * (max(h.vertices) + 1)
    steps = [()] * len(nbrs)
    for v, pairs in h.adjacency.items():
        steps[v] = [(1 << e, w) for e, w in pairs]
        nbrs[v] = sum(1 << w for _, w in pairs)
    every = sum(1 << v for v in h.vertices)
    found = 0
    for s in sorted(h.vertices):
        to_s = {w: e for e, w in h.adjacency[s] if w > s}
        above = every >> s + 1 << s + 1
        top = max(to_s, default=None)  # its paths close at smaller neighbors only
        for first, e1 in to_s.items():
            if first == top:
                continue
            for path, bits, last in _induced_paths(nbrs, first, above, nbrs[s] & above, steps):
                if first < last:
                    found += 1
                    if found > cap:
                        raise CircuitExplosion(f"more than {cap} chordless cycles")
                    yield [s, *path, last], bits | 1 << e1 | 1 << to_s[last]


@memoized
def _thread_runs(g: Graph) -> dict:
    """Each ordered pair (u, v) of branch vertices joined by a thread of
    ``g`` mapped to that thread's edge bitmask and its vertices from u up
    to v, v left out.  A branch graph that is simple has one thread per
    pair."""
    runs = {}
    for t in _threads(g):
        x, y = t.endpoints
        bits = sum(1 << e for e in t.edges)
        runs[x, y], runs[y, x] = (bits, t.vertices[:-1]), (bits, t.vertices[:0:-1])
    return runs


def _branch_cycle_circuit(g: Graph, order) -> Circuit:
    """The circuit of ``g`` along the cycle of its simple branch graph that
    visits the branch vertices ``order`` in turn, each thread laid out in
    that direction; NotACircuit when two consecutive vertices (the last
    and the first included) are not adjacent there, or a vertex repeats."""
    if len(set(order)) < max(len(order), 3):
        raise NotACircuit("branch vertices repeat, or are fewer than three")
    runs = _thread_runs(g)
    bits, cycle = 0, []
    for pair in pairwise(chain(order, order[:1])):
        try:
            mask, run = runs[pair]
        except KeyError:
            raise NotACircuit("branch vertices {} and {} are not adjacent".format(*pair)) from None
        bits |= mask
        cycle += run
    return Circuit(EdgeSet(bits, g.universe), _canonical_cycle(tuple(cycle)))


@memoized
def _nc_catalog(g: Graph, cap: int) -> NcCatalog:
    """The catalog of :func:`non_separating_circuits`.  On a top-3-connected
    g, each chordless cycle of the branch graph without a second bridge
    there is built from its vertex order (:func:`_branch_cycle_circuit`);
    elsewhere every circuit is enumerated and tested in g.  Either way the
    members are sorted by their sorted edge ids."""
    if not is_top_3_connected(g):
        members = [c for c in _enumerate(g, cap) if not _is_separating_edges(g, c.edges)]
    else:
        # A circuit of g runs along a cycle of the branch graph h, one thread
        # per edge, and has as many bridges in g as that cycle has in h.
        h = _branch(g)
        index, masks = _index(h)[0], _masks(h)
        every = (1 << len(masks)) - 1
        members = sorted(
            (_branch_cycle_circuit(g, order) for order, _ in _chordless_cycles(h, cap)
             if not _separates(masks, every, sum(1 << index[v] for v in order), 0)),
            key=Circuit.sort_key,
        )
    return NcCatalog(tuple(members), fingerprint(g))


def non_separating_circuits(g: Graph, cap: int = DEFAULT_CIRCUIT_CAP) -> NcCatalog:
    """Catalog of all non-separating circuits of a connected graph, ordered
    by sorted edge ids.

    A circuit is non-separating when it has at most one bridge.  On a
    subdivision of a simple 3-connected graph these are read off the
    chordless cycles of the branch graph (``cap`` bounds the cycles
    examined); on any other connected host every circuit is enumerated
    (``cap`` bounds them).  Either way CircuitExplosion is raised past ``cap``.
    """
    if not is_connected(g):
        raise Disconnected("non-separating circuits require a connected graph")
    return _nc_catalog(g, cap)


def is_path_chord(g: Graph, c: Circuit, t: Thread) -> bool:
    """True iff the thread meets the circuit exactly in its two endpoints
    and shares no edge with it."""
    _validate_thread(g, t)
    c = _validate_circuit(g, c)
    if not c.edges.isdisjoint(g.edge_set(t.edges)):
        return False
    return set(c.vertex_cycle) & set(t.vertices) == set(t.endpoints)


def split_on_path_chord(g: Graph, c: Circuit, t: Thread) -> tuple[Circuit, Circuit]:
    """Split circuit ``c`` along path-chord ``t`` into the two other cycles
    of their union.

    The first returned circuit is the one containing the lowest edge id of
    ``c``; both contain all of ``t``, and their symmetric difference is ``c``.
    """
    if not is_path_chord(g, c, t):
        raise NotAPathChord("thread is not a path-chord of the circuit")
    return tuple(circuit_from_edges(g, EdgeSet(h, g.universe).ids())
                 for h in _halves(g, c.edges.bits, *t.endpoints, g.edge_set(t.edges).bits))


def _halves(g: Graph, q: int, x, y, tbits: int) -> tuple[int, int]:
    """The edge bitmasks of the two walks of the circuit with edge bitmask
    ``q`` from x to y, each closed by the thread with edge bitmask
    ``tbits``, the one holding q's lowest edge id first."""
    inc = _incidence(g.psi, EdgeSet(q, g.universe).ids())
    r, s = (sum(1 << f for f in _walk(inc, x, e, w, (y,))[0]) | tbits for e, w in inc[x])
    return (r, s) if r & q & -q else (s, r)


def even_subgraph_to_circuits(g: Graph, x: EdgeSet) -> list[Circuit]:
    """Peel an even edge set into edge-disjoint circuits.

    Greedy and deterministic: each round walks from the lowest remaining
    edge id, always choosing the lowest-id unused edge, and extracts the
    first cycle the walk closes.
    """
    if not is_cycle_space_member(g, x):
        raise NotEven("edge set has a vertex of odd degree")
    remaining = x.bits
    out = []
    while remaining:
        e0 = (remaining & -remaining).bit_length() - 1
        start = min(g.psi[e0])
        seq_verts = [start]
        seq_edges: list[int] = []
        pos = {start: 0}
        cur = start
        while True:
            e, w = next(
                (e, w)
                for e, w in g.adjacency[cur]
                if remaining >> e & 1 and (not seq_edges or e != seq_edges[-1])
            )
            seq_edges.append(e)
            if w in pos:
                cycle_edges = seq_edges[pos[w]:]
                break
            seq_verts.append(w)
            pos[w] = len(seq_verts) - 1
            cur = w
        for e in cycle_edges:
            remaining ^= 1 << e
        out.append(circuit_from_edges(g, cycle_edges))
    return out
