"""Multigraph core: stable edge ids, minors, blocks, threads, subdivisions.

Edge ids are assigned once and never renumbered: deletion and contraction
return new graphs over the same edge universe, so edge sets stay comparable
across a graph and its minors.

Derived results (fingerprints, connectivity tests, threads, circuit
catalogs, reductions, decomposition parts) are memoized on the ``Graph``
that owns them, through :func:`memoized`: they live and die with that
graph.  The branch graph is built by one function, :func:`_branch_graph`,
and each graph has one vertex numbering, :func:`_index`, with its neighbor
index lists, from which :func:`_masks` derives its neighbor masks when
they are first asked for.  The 3-connectivity test reads the lists; an
ear walk reads both, as :func:`_lists`: each removal test
(:func:`_removable`) derives g - t's tables from g's, and
:func:`_threads_after_delete` its threads, so below the host the walk
builds no graph, only tables.

Reachability on vertex bitmasks is one flood, :func:`_flood`, over
:func:`_masks`: it decides :func:`is_connected`, the components of
G - V(C) in the separation test, whether a bond's other side is
connected and whether deleting an edge set disconnects a graph.

Threads, circuits rebuilt from their edges, and a circuit's two arcs between
a path-chord's ends (``circuits._halves``) are all traced by one walk,
:func:`_walk`.
"""

from __future__ import annotations

import functools
import hashlib
from collections import deque
from dataclasses import dataclass

from .errors import (
    AllDegreesTwo,
    DanglingVertexId,
    Disconnected,
    DuplicateEdge,
    LoopRejected,
    NotAThread,
    UniverseMismatch,
    VerificationFailed,
)


@dataclass(frozen=True)
class EdgeSet:
    """Subset of an edge universe, stored as a bitmask keyed by edge id."""

    bits: int
    universe: int

    @staticmethod
    def from_ids(ids, universe: int) -> EdgeSet:
        bits = 0
        for e in ids:
            if not 0 <= e < universe:
                raise UniverseMismatch(
                    f"edge id {e} outside universe of {universe} edges"
                )
            bits |= 1 << e
        return EdgeSet(bits, universe)

    @staticmethod
    def empty(universe: int) -> EdgeSet:
        return EdgeSet(0, universe)

    def ids(self) -> tuple[int, ...]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return tuple(out)

    def _check(self, other: EdgeSet) -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"edge universes differ: {self.universe} vs {other.universe}"
            )

    def __xor__(self, other: EdgeSet) -> EdgeSet:
        self._check(other)
        return EdgeSet(self.bits ^ other.bits, self.universe)

    def __or__(self, other: EdgeSet) -> EdgeSet:
        self._check(other)
        return EdgeSet(self.bits | other.bits, self.universe)

    def __and__(self, other: EdgeSet) -> EdgeSet:
        self._check(other)
        return EdgeSet(self.bits & other.bits, self.universe)

    def __sub__(self, other: EdgeSet) -> EdgeSet:
        self._check(other)
        return EdgeSet(self.bits & ~other.bits, self.universe)

    def issubset(self, other: EdgeSet) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: EdgeSet) -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.universe and self.bits >> e & 1 == 1

    def __iter__(self):
        return iter(self.ids())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"EdgeSet({set(self.ids()) or '{}'} / {self.universe})"


class Graph:
    """Undirected multigraph with immutable structure and stable edge ids.

    ``psi`` maps each edge id to its unordered endpoint pair; loops (equal
    endpoints) and parallel edges are allowed internally, though graphs
    built by :func:`build_graph` are simple.  Instances are values: all
    operations return new graphs.
    """

    __slots__ = ("vertices", "edges", "psi", "universe", "simple",
                 "_key_tuple", "_adj", "_deg", "_memo")

    def __init__(self, vertices, edges, psi, universe: int):
        edges = frozenset(edges)
        psi = {e: (min(p), max(p)) for e, p in psi.items() if e in edges}
        self._fill(vertices, edges, psi, universe, _is_simple(psi))

    def _fill(self, vertices, edges: frozenset, psi: dict, universe: int,
              simple: bool) -> None:
        self.vertices = frozenset(vertices)
        self.edges = edges
        self.psi = psi
        self.universe = universe
        self.simple = simple
        self._key_tuple = None
        self._adj = None
        self._deg = None
        self._memo = {}

    @property
    def _key(self) -> tuple:
        """Sorted vertices, sorted (edge, u, v) triples and the universe."""
        if self._key_tuple is None:
            self._key_tuple = (
                tuple(sorted(self.vertices)),
                tuple(sorted((e, u, v) for e, (u, v) in self.psi.items())),
                self.universe,
            )
        return self._key_tuple

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        kind = "simple" if self.simple else "multi"
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, {kind})"

    @property
    def adjacency(self) -> dict:
        """Vertex -> tuple of (edge id, other endpoint), sorted by edge id.

        Loops appear once, as (edge, same vertex).
        """
        if self._adj is None:
            adj = {v: [] for v in self.vertices}
            for e in sorted(self.edges):
                u, v = self.psi[e]
                adj[u].append((e, v))
                if u != v:
                    adj[v].append((e, u))
            self._adj = {v: tuple(lst) for v, lst in adj.items()}
        return self._adj

    def degree(self, v: int) -> int:
        if self._deg is None:
            deg = {u: 0 for u in self.vertices}
            for u, w in self.psi.values():
                deg[u] += 1
                deg[w] += 1
            self._deg = deg
        return self._deg[v]

    def edge_set(self, ids) -> EdgeSet:
        return EdgeSet.from_ids(ids, self.universe)

    def full_edge_set(self) -> EdgeSet:
        return EdgeSet.from_ids(self.edges, self.universe)


def _is_simple(psi: dict) -> bool:
    """No loop and no two edges on one pair, for a normalized ``psi``."""
    pairs = list(psi.values())
    return all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)


def _subgraph(g: Graph, vertices, dropped) -> Graph:
    """The graph on ``vertices`` of ``g`` and its edges but ``dropped``,
    whose psi is g's copied without them and not normalized again: g's is
    already.  A subgraph of a simple graph is simple."""
    psi = g.psi.copy()
    for e in dropped:
        psi.pop(e, None)
    sub = Graph.__new__(Graph)
    sub._fill(vertices, g.edges.difference(dropped), psi, g.universe,
              g.simple or _is_simple(psi))
    return sub


_MISSING = object()


def memoized(fn):
    """Memoize ``fn(g, *args)`` in ``g._memo``, so the result lives and dies
    with the graph ``g``.  Exceptions are not memoized."""

    @functools.wraps(fn)
    def wrapper(g, *args):
        key = (fn, *args)
        result = g._memo.get(key, _MISSING)
        if result is _MISSING:
            result = g._memo[key] = fn(g, *args)
        return result

    return wrapper


@memoized
def fingerprint(g: Graph) -> str:
    """Stable 16-hex-digit digest of the graph's labeled structure."""
    return hashlib.sha256(repr(g._key).encode()).hexdigest()[:16]


def _key_digest(vertices, triples, universe: int) -> str:
    """:func:`fingerprint` of the graph whose sorted vertices and (edge, u,
    v) triples have the reprs ``vertices`` and ``triples``, joined as
    repr(g._key) joins them, a one-element tuple written ``(x,)``."""
    a, b = ("(" + ", ".join(s) + ("," if len(s) == 1 else "") + ")"
            for s in (vertices, triples))
    return hashlib.sha256(f"({a}, {b}, {universe!r})".encode()).hexdigest()[:16]


@memoized
def _index(g: Graph) -> tuple[dict, list]:
    """Vertex -> index, in the order of ``g.vertices``, and index ->
    neighbor indices, one per edge end (a loop appears once at its vertex).
    The one vertex numbering of a graph: :func:`_masks`, the low-point DFS
    and the bitmask kernels all read it."""
    index = {v: i for i, v in enumerate(g.vertices)}
    lists = [[] for _ in index]
    for u, v in g.psi.values():
        i, j = index[u], index[v]
        lists[i].append(j)
        if i != j:
            lists[j].append(i)
    return index, lists


@memoized
def _masks(g: Graph) -> list:
    """Index of :func:`_index` -> the OR of its distinct neighbors' bits
    ``1 << index``: a loop puts a vertex among its own neighbors, and
    parallel edges set one bit."""
    masks = []
    for row in _index(g)[1]:
        mask = 0
        for j in row:
            mask |= 1 << j
        masks.append(mask)
    return masks


@memoized
def _bit(g: Graph) -> dict:
    """Vertex -> its bit in :func:`_masks`, ``1 << index`` over :func:`_index`."""
    return {v: 1 << i for v, i in _index(g)[0].items()}


@memoized
def _incident_bits(g: Graph) -> dict:
    """Vertex -> the bitmask of its non-loop edges: a vertex's degree parity
    in an edge set is that of its mask's bits there, as a loop adds 2."""
    return {v: sum(1 << e for e, w in pairs if w != v) for v, pairs in g.adjacency.items()}


def _flood(nbrs: list, seed: int, within: int) -> tuple[int, int]:
    """The vertices of ``within`` that ``seed`` reaches inside it, seed
    included, and the OR of their neighbor masks, both as vertex bitmasks
    over ``nbrs``, index -> the bits of its neighbors (:func:`_masks`)."""
    part = frontier = seed
    reach = 0
    while frontier:
        low = frontier & -frontier
        reach |= nbrs[low.bit_length() - 1]
        new = reach & within & ~part
        frontier ^= low | new
        part |= new
    return part, reach


def build_graph(vertex_count: int, edge_pairs) -> Graph:
    """Build a simple graph with edge ids 0..m-1 in input order."""
    vertices = range(vertex_count)
    psi = {}
    seen = set()
    for i, (u, v) in enumerate(edge_pairs):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise DanglingVertexId(f"edge ({u},{v}) has an endpoint outside 0..{vertex_count - 1}")
        if u == v:
            raise LoopRejected(f"edge {i} is a loop at vertex {u}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise DuplicateEdge(f"edge {i} repeats pair {pair}")
        seen.add(pair)
        psi[i] = pair
    return Graph(vertices, range(len(psi)), psi, len(psi))


def _check_universe(g: Graph, z: EdgeSet) -> None:
    if z.universe != g.universe:
        raise UniverseMismatch(
            f"edge set universe {z.universe} does not match graph universe {g.universe}"
        )


def delete_edges(g: Graph, z: EdgeSet) -> Graph:
    """Remove the edges of ``z``; every vertex is retained."""
    _check_universe(g, z)
    return _subgraph(g, g.vertices, z.ids())


def find_root(parent: dict, v):
    """Root of ``v`` in the union-find forest ``parent`` (vertex -> parent,
    roots map to themselves), halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def contract_edges(g: Graph, z: EdgeSet) -> tuple[Graph, dict]:
    """Contract the edges of ``z``.

    Each connected component of the spanning subgraph (V, z) collapses to a
    single vertex named by its smallest member.  Surviving edges keep their
    ids; merged endpoints may create loops and parallel edges, which are
    retained.  Returns the contracted graph and the old-to-new vertex map.
    """
    _check_universe(g, z)
    parent = {v: v for v in g.vertices}
    for e in z:
        if e in g.edges:
            u, v = g.psi[e]
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru != rv:
                parent[ru] = rv
    rep = {}
    for v in sorted(g.vertices):
        rep.setdefault(find_root(parent, v), v)
    vertex_map = {v: rep[find_root(parent, v)] for v in g.vertices}
    keep = [e for e in g.edges if e not in z]
    psi = {e: (vertex_map[g.psi[e][0]], vertex_map[g.psi[e][1]]) for e in keep}
    return Graph(set(vertex_map.values()), keep, psi, g.universe), vertex_map


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as edge sets), cut vertices, and the total block count."""

    blocks: tuple[EdgeSet, ...]
    cut_vertices: frozenset
    block_count: int


def blocks(g: Graph) -> BlockDecomposition:
    """Partition the edges into blocks (biconnected components).

    Every loop is its own block, as is every bridge.  Works on any
    multigraph, one component at a time.
    """
    adj = g.adjacency
    loop_blocks = [[e] for e, (u, v) in g.psi.items() if u == v]
    disc: dict = {}
    low: dict = {}
    used = set()
    stack: list[int] = []
    found: list[list[int]] = []
    cut = set()
    for root in sorted(g.vertices):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        root_children = 0
        # DFS frames: (vertex, tree edge into it, iterator over its edges).
        frames = [(root, None, iter(adj[root]))]
        while frames:
            v, into, edges = frames[-1]
            for e, w in edges:
                if e in used or w == v:
                    continue
                used.add(e)
                stack.append(e)
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    frames.append((w, e, iter(adj[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                frames.pop()
                if not frames:
                    continue
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    if u == root:
                        root_children += 1
                    else:
                        cut.add(u)
                    block = []
                    while True:
                        x = stack.pop()
                        block.append(x)
                        if x == into:
                            break
                    found.append(block)
        if root_children > 1:
            cut.add(root)

    all_blocks = [EdgeSet.from_ids(b, g.universe) for b in found + loop_blocks]
    all_blocks.sort(key=lambda b: b.ids())
    return BlockDecomposition(tuple(all_blocks), frozenset(cut), len(all_blocks))


def _biconnected_without(nbrs: list, removed: tuple) -> bool:
    """True iff ``nbrs`` (vertex index -> neighbor indices) minus ``removed``
    is connected with no cut vertex, by one low-point DFS that stops early:
    the root's first subtree must span the rest and hold no cut vertex.
    Removed vertices look visited, at a discovery time no low point reaches.
    The edge back to the tree parent may count: it cannot lower a low point
    below the parent, so it hides no cut vertex.
    """
    n = len(nbrs)
    disc = [-1] * n
    for x in removed:
        disc[x] = n
    root = disc.index(-1)
    disc[root] = 0
    low = [0] * n
    count = 1
    frames = [(root, root, iter(nbrs[root]))]
    while True:
        v, parent, it = frames[-1]
        for w in it:
            d = disc[w]
            if d < 0:
                disc[w] = low[w] = count
                count += 1
                frames.append((w, v, iter(nbrs[w])))
                break
            if d < low[v]:
                low[v] = d
        else:
            frames.pop()
            if parent == root:
                return count == n - len(removed)
            if low[v] >= disc[parent]:
                return False
            if low[v] < low[parent]:
                low[parent] = low[v]


@memoized
def is_connected(g: Graph) -> bool:
    """True iff one flood from the first vertex, if any, reaches them all."""
    masks = _masks(g)
    every = (1 << len(masks)) - 1
    return _flood(masks, every & 1, every)[0] == every


@memoized
def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex k-connectivity of the underlying simple graph.

    True iff |V| > k and no vertex set of size < k disconnects the graph.
    For k >= 2 that holds iff |V| > k and G - v is (k-1)-connected for
    every v; one low-point DFS decides k = 2, so k = 3 takes n DFS runs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(g.vertices) <= k:
        return False
    if k == 1:
        return is_connected(g)
    return _k_connected_without(_index(g)[1], (), k)


def _k_connected_without(nbrs: list, removed: tuple, k: int) -> bool:
    # |V - removed| > k holds at every level once it holds for removed = ().
    if k == 2:
        return _biconnected_without(nbrs, removed)
    return all(
        _k_connected_without(nbrs, removed + (v,), k - 1)
        for v in range(len(nbrs)) if v not in removed
    )


@dataclass(frozen=True)
class Thread:
    """Maximal path whose inner vertices all have degree two in the host.

    ``edges`` and ``vertices`` run along the path; the orientation is
    canonical, so equal threads compare equal.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def inner_vertices(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    @staticmethod
    def oriented(edges, vertices) -> Thread:
        fwd = (tuple(edges), tuple(vertices))
        rev = (tuple(reversed(edges)), tuple(reversed(vertices)))
        return Thread(*min(fwd, rev))


def _incidence(psi: dict, ids) -> dict:
    """Vertex -> list of (edge, other end) over the edges ``ids`` of ``psi``;
    a loop appears twice at its vertex."""
    inc: dict = {}
    for e in ids:
        u, v = psi[e]
        inc.setdefault(u, []).append((e, v))
        inc.setdefault(v, []).append((e, u))
    return inc


def _walk(inc: dict, v, e: int, w, stop=()) -> tuple[list[int], list]:
    """Follow edge ``e`` from ``v`` to ``w``, then leave each vertex by its
    other edge in ``inc`` (vertex -> (edge, neighbor) pairs; each vertex
    passed must have two) until a vertex of the container ``stop`` or ``v``.
    Returns the edges and the vertices walked, both ends included."""
    edges, verts = [e], [v, w]
    while w != v and w not in stop:
        a, b = inc[w]
        e, w = b if a[0] == e else a
        edges.append(e)
        verts.append(w)
    return edges, verts


@memoized
def _threads(g: Graph) -> tuple[Thread, ...]:
    if not is_connected(g):
        raise Disconnected("thread partition requires a connected graph")
    branch = {v for v in g.vertices if g.degree(v) != 2}
    if g.edges and not branch:
        raise AllDegreesTwo("every vertex has degree 2: the graph is a cycle")
    covered: set[int] = set()
    out = []
    for v in sorted(branch):
        for e, w in g.adjacency[v]:
            if e in covered:
                continue
            if w == v:
                raise AllDegreesTwo(f"loop at vertex {v}: thread partition undefined")
            edge_seq, vert_seq = _walk(g.adjacency, v, e, w, branch)
            if vert_seq[-1] == v:
                raise AllDegreesTwo(
                    f"degree-2 run closes on vertex {v}: thread partition undefined"
                )
            covered.update(edge_seq)
            out.append(Thread.oriented(edge_seq, vert_seq))
    if covered != set(g.edges):
        raise AllDegreesTwo("some degree-2 run never reaches a branch vertex")
    out.sort(key=lambda t: tuple(sorted(t.edges)))
    return tuple(out)


def _threads_after_delete(lists: tuple, t: Thread, ts: tuple) -> tuple:
    """The threads of g - t from ``ts``, the threads of ``g``, and g's
    tables ``lists`` (see :func:`_lists`), whose neighbor index lists give
    each branch vertex's degree: every thread but t, with the two threads
    at each end of t that is left with degree two joined into one, found in
    the pass that drops t.  No join closes a run on itself, nor does a
    thread meet both ends, when g's branch graph is simple.

    The result keeps the walk's order: threads are edge-disjoint, so their
    sorted edge tuples compare by smallest edge, and a joined thread takes
    the place of the earlier of its two halves.
    """
    index, nbrs = lists[:2]
    first, out = t.edges[0], []
    at = {v: [] for v in t.endpoints if len(nbrs[index[v]]) == 3}  # v -> indices in out
    for s in ts:
        if s.edges[0] != first:
            u, w = s.vertices[0], s.vertices[-1]
            if u in at or w in at:
                at[u if u in at else w].append(len(out))
            out.append(s)
    for v, (i, j) in sorted(at.items(), key=lambda item: -item[1][1]):  # later j first
        a, b = out[i], out[j]
        a_edges, a_verts = (a.edges, a.vertices) if a.vertices[-1] == v else (
            a.edges[::-1], a.vertices[::-1])
        b_edges, b_verts = (b.edges, b.vertices) if b.vertices[0] == v else (
            b.edges[::-1], b.vertices[::-1])
        out[i] = Thread.oriented(a_edges + b_edges, a_verts + b_verts[1:])
        del out[j]
    return tuple(out)


def threads(g: Graph) -> list[Thread]:
    """The unique partition of the edges into maximal threads."""
    return list(_threads(g))


def _validate_thread(g: Graph, t: Thread) -> None:
    if len(t.edges) + 1 != len(t.vertices) or not t.edges:
        raise NotAThread("malformed thread")
    if len(set(t.vertices)) != len(t.vertices):
        raise NotAThread("thread repeats a vertex")
    for e, u, v in zip(t.edges, t.vertices, t.vertices[1:]):
        if e not in g.edges:
            raise NotAThread(f"edge {e} not in graph")
        if g.psi[e] != (min(u, v), max(u, v)):
            raise NotAThread(f"edge {e} does not join {u} and {v}")
    for v in t.inner_vertices():
        if g.degree(v) != 2:
            raise NotAThread(f"inner vertex {v} has degree {g.degree(v)}")
    for v in t.endpoints:
        if g.degree(v) == 2:
            raise NotAThread(f"end vertex {v} has degree 2")


@memoized
def thread_delete(g: Graph, t: Thread) -> Graph:
    """Remove a thread: all of its edges and all of its inner vertices."""
    _validate_thread(g, t)
    return _subgraph(g, g.vertices.difference(t.inner_vertices()), t.edges)


def thread_from_edges(g: Graph, edge_ids) -> Thread:
    """Reassemble a thread of ``g`` from its (unordered) edge ids."""
    ids = sorted(set(edge_ids))
    if not ids:
        raise NotAThread("empty edge list")
    for e in ids:
        if e not in g.edges:
            raise NotAThread(f"edge {e} not in graph")
        if g.psi[e][0] == g.psi[e][1]:
            raise NotAThread(f"edge {e} is a loop")
    inc = _incidence(g.psi, ids)
    ends = sorted(v for v, lst in inc.items() if len(lst) == 1)
    if len(ends) != 2 or any(len(lst) > 2 for lst in inc.values()):
        raise NotAThread("edges do not form a path")
    (e, w), = inc[ends[0]]
    edge_seq, vert_seq = _walk(inc, ends[0], e, w, ends)
    if len(edge_seq) != len(ids):
        raise NotAThread("edges do not form a simple path")
    t = Thread.oriented(edge_seq, vert_seq)
    _validate_thread(g, t)
    return t


def suppress_degree_two(g: Graph) -> tuple[Graph, dict]:
    """Replace every maximal thread by a single edge joining its endpoints.

    The result lives in a fresh edge universe (edge i stands for thread i);
    ``thread_map`` records which original thread each new edge represents.
    The result may be a multigraph when two threads share both endpoints.
    It is built once per graph and shared by every call.
    """
    return _branch_graph(g), dict(enumerate(_threads(g)))


@memoized
def _branch_graph(g: Graph) -> Graph:
    """The branch graph of ``g``: edge i joins the ends of thread i.  Built
    once per graph, so the theta searches of its threads, its catalog and
    its 3-connectivity test share one graph and its memo table."""
    ts = _threads(g)
    branch = [v for v in g.vertices if g.degree(v) != 2]
    return Graph(branch, range(len(ts)), {i: t.endpoints for i, t in enumerate(ts)}, len(ts))


def _branch(g: Graph) -> Graph:
    """``g`` itself when it has no degree-2 vertex, else its branch graph:
    a graph with none is its own branch graph up to edge ids."""
    if all(g.degree(v) != 2 for v in g.vertices):
        return g
    return _branch_graph(g)


@memoized
def is_top_3_connected(g: Graph) -> bool:
    """True iff the graph is a subdivision of a simple 3-connected graph,
    tested on :func:`_branch`, so a host already tested 3-connected is not
    tested again."""
    if not g.edges or not is_connected(g):
        return False
    try:
        h = _branch(g)
    except AllDegreesTwo:
        return False
    return h.simple and is_k_connected(h, 3)


@memoized
def _lists(g: Graph) -> tuple[dict, list, list, tuple]:
    """The branch graph of top-3-connected ``g`` as the removal test and the
    theta search read it: branch vertex -> index, index -> neighbor indices
    (one per thread end), index -> neighbor mask, and the indices
    suppressed, none here.  Read off the branch graph's :func:`_index` and
    :func:`_masks` for a host; down an ear walk, each g - t has the tables
    its removal test (:func:`_removable`) derived, which keep the host's
    indices."""
    h = _branch(g)
    return (*_index(h), _masks(h), ())


def _removable(lists: tuple, i: int, j: int) -> tuple | None:
    """The tables of g - t (see :func:`_lists`) if g - t is
    top-3-connected, else None, where g is top-3-connected with branch
    graph H given by ``lists``, and t is a thread of g whose ends x and y
    have indices ``i`` and ``j``.

    g - t's branch graph H' is H - xy with x and y suppressed where they
    are left with degree 2.  It must be simple, and then has more than 3
    vertices: it keeps |E(H)| - 1 - s edges on |V(H)| - s vertices, s <= 2
    the ends suppressed, and H has minimum degree 3.  A cut S of at most
    two vertices of H' cuts H - xy but not H, so xy is a bridge of H - S:
    S holds neither x nor y, separates them, and so holds an inner vertex
    of every x-y path of H - xy.  It therefore suffices to check that
    removing each inner vertex of one such path leaves H' 2-connected,
    instead of removing every vertex.  The path is found by breadth-first
    search from x, stopping at the first neighbor of y reached.  The
    neighbor lists are edited for the test, the masks only once g - t is
    accepted.
    """
    index, nbrs, masks, suppressed = lists
    ends = set(nbrs[j]) - {i}
    parent = {i: i, j: j}  # y is never entered
    queue = deque([i])
    w = i
    while w not in ends:
        v = queue.popleft()
        for w in nbrs[v]:
            if w not in parent:
                parent[w] = v
                if w in ends:
                    break
                queue.append(w)
    nbrs = list(nbrs)
    for v, u in ((i, j), (j, i)):
        nbrs[v] = list(nbrs[v])
        nbrs[v].remove(u)
    for v in (i, j):
        if len(nbrs[v]) == 2:
            # v is suppressed into an edge ab: a's and b's lists name each
            # other in its place, so no list names a suppressed index
            a, b = nbrs[v]
            if b in nbrs[a]:
                return None
            nbrs[a] = [b if u == v else u for u in nbrs[a]]
            nbrs[b] = [a if u == v else u for u in nbrs[b]]
            suppressed += (v,)
    while w != i:
        if not _biconnected_without(nbrs, suppressed + (w,)):
            return None
        w = parent[w]
    masks = list(masks)
    masks[i] ^= 1 << j
    masks[j] ^= 1 << i
    for v in suppressed[len(lists[3]):]:
        a, b = nbrs[v]
        masks[a] ^= 1 << v | 1 << b
        masks[b] ^= 1 << v | 1 << a
    return index, nbrs, masks, suppressed


def _first_removable(ts: tuple, lists: tuple) -> tuple[Thread, tuple]:
    """The first thread t of ``ts``, the threads of top-3-connected g, whose
    removal leaves g top-3-connected, and the tables of g - t, both decided
    on g's tables ``lists`` (see :func:`_removable`); VerificationFailed if
    there is none."""
    index = lists[0]
    for t in ts:
        x, y = t.endpoints
        reduced = _removable(lists, index[x], index[y])
        if reduced is not None:
            return t, reduced
    raise VerificationFailed(
        "no removable thread found; impossible for a subdivision of a 3-connected graph"
    )


@memoized
def is_top_k4(g: Graph) -> bool:
    """True iff suppressing degree-2 vertices yields K4: a simple
    3-connected graph on 4 vertices is K4."""
    return sum(g.degree(v) != 2 for v in g.vertices) == 4 and is_top_3_connected(g)
