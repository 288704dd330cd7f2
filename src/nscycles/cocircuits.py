"""Bonds, cut candidates recovered from non-separating circuits, and the
identity between the two.

A *cut candidate* is a nonempty edge set that no cataloged non-separating
circuit crosses in exactly one edge.  Every bond is one; the inclusion-
minimal candidates of a 3-connected graph are exactly its bonds, which is
what :func:`verify_cocircuit_identity` checks.  Bonds are grown as
connected vertex sets on vertex bitmasks, and the minimal candidates by a
branching search over edge sets on masks of circuit indices; two guards,
``MAX_BOND_VERTICES`` and ``MAX_CUT_SEARCH_EDGES``, bound the graphs they
and the identity check accept.  Both keep edge sets as bitmasks: the
checks compare and count :func:`_bond_masks`, and only :func:`bonds`
builds :class:`Bond` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Disconnected, EmptyX, TooLarge
from .graph_core import (EdgeSet, Graph, _check_universe, _flood, _incident_bits, _index, _masks,
                         fingerprint, is_connected, memoized)
from .circuits import DEFAULT_CIRCUIT_CAP, Circuit, NcCatalog, non_separating_circuits

MAX_BOND_VERTICES = 16
MAX_CUT_SEARCH_EDGES = 21


@dataclass(frozen=True)
class Bond:
    """Minimal edge cut: all edges between ``side`` and its complement,
    both of which induce connected subgraphs."""

    edges: EdgeSet
    side: frozenset


@dataclass(frozen=True)
class CounterexampleReport:
    """Fewer than two qualifying circuits were found for the given cut."""

    host_fingerprint: str
    target: EdgeSet
    witnesses: tuple[Circuit, ...]


def bonds(g: Graph) -> list[Bond]:
    """All bonds, sorted by edge ids: the cuts of the connected sides
    holding the least vertex whose complements are connected too."""
    vertices = list(_index(g)[0])  # index -> vertex
    found = [Bond(EdgeSet(cut, g.universe),
                  frozenset(v for i, v in enumerate(vertices) if side >> i & 1))
             for cut, side in _bond_masks(g)]
    found.sort(key=lambda b: b.edges.ids())
    return found


@memoized
def _bond_masks(g: Graph) -> tuple[tuple[int, int], ...]:
    """(cut, side) of each bond, the cut an edge bitmask and the side a
    vertex bitmask over :func:`_index`, in the order they are grown.

    Each connected side S holding the least vertex is grown once, as in
    Wernicke's ESU: a node extends S by each vertex of its extension in
    turn, barring those it took before, and a child's extension gains only
    the new vertex's neighbors outside the barred closed neighborhood of S.
    S's cut is the XOR of its vertices' non-loop edge masks."""
    if not is_connected(g):
        raise Disconnected("bond enumeration requires a connected graph")
    if len(g.vertices) > MAX_BOND_VERTICES:
        raise TooLarge(f"bond enumeration is capped at {MAX_BOND_VERTICES} vertices")
    if len(g.vertices) < 2:
        return ()
    index, nbrs = _index(g)[0], _masks(g)
    full = (1 << len(index)) - 1
    incident = list(map(_incident_bits(g).__getitem__, index))  # index -> mask of its non-loop edges
    root = 1 << index[min(g.vertices)]
    out = []
    # (side, cut, extension, barred), from the empty side, whose one extension is the root
    stack = [(0, 0, root, root)]
    while stack:
        side, cut, ext, barred = stack.pop()
        rest = full & ~side
        if side and rest and _flood(nbrs, rest & -rest, rest)[0] == rest:  # rest connected
            out.append((cut, side))
        while ext:
            low = ext & -ext
            ext ^= low
            j = low.bit_length() - 1
            stack.append((side | low, cut ^ incident[j], ext | nbrs[j] & ~barred, barred | nbrs[j]))
    return tuple(out)


def is_cut_candidate(x: EdgeSet, nc: NcCatalog) -> bool:
    """True iff ``x`` is nonempty and no cataloged circuit meets it in
    exactly one edge."""
    if not x:
        return False
    for c in nc.members:
        if (c.edges.bits & x.bits).bit_count() == 1:
            return False
    return True


def minimal_cut_candidates(g: Graph, nc: NcCatalog) -> list[EdgeSet]:
    """Inclusion-minimal cut candidates, sorted by size, then by edge ids.

    A branching search over edge sets X with a set of forbidden edges.  The
    root for edge e is X = {e} with every smaller edge forbidden.  A node
    that some circuit meets exactly once branches on that circuit's free
    edges (neither in X nor forbidden), taking the circuit with the fewest:
    the i-th child adds the i-th free edge in ascending order to X and
    forbids the ones before it.  A node no circuit meets exactly once is a
    candidate.  Every minimal candidate Y is reached: a node inside Y has a
    child inside Y, since the chosen circuit, whichever it is, meets Y in a
    second edge, which is free, and the child for the least such edge
    forbids no edge of Y.  Nodes are expanded level by level, in order of
    |X|, and a node holding a candidate already found is dropped, so every
    candidate found is minimal.  A node tests only the candidates holding
    its last edge: any other one inside it lies in its parent, which was
    kept and branched, so held none.  A node holds the masks of the circuit
    indices missing X and meeting it once; a child updates them from the
    mask of the circuits through the edge it adds.
    A level's candidates all have |X| edges, so by sorted ids X precedes Y
    iff the least edge of X ^ Y is X's: a descending sort on bit strings
    read from bit 0 up orders them on masks.
    """
    edge_ids = sorted(g.edges)
    if len(edge_ids) > MAX_CUT_SEARCH_EDGES:
        raise TooLarge(f"the cut-candidate search is capped at {MAX_CUT_SEARCH_EDGES} edges")
    members = [c.edges.bits for c in nc.members]
    # edge -> mask of the indices of the circuits through it
    through = {e: sum(1 << i for i, c in enumerate(members) if c >> e & 1) for e in edge_ids}
    every = (1 << len(members)) - 1
    found: dict[int, list[int]] = {e: [] for e in edge_ids}  # edge -> candidates holding it
    width = f"0{g.universe}b"
    out: list[EdgeSet] = []
    # (X, forbidden, X's last edge, circuits missing X, circuits meeting X once)
    level = [(1 << e, (1 << e) - 1, e, every & ~through[e], through[e]) for e in edge_ids]
    while level:
        candidates = []
        next_level = []
        for x, forbidden, last, miss, once in level:
            for f in found[last]:
                if f & x == f:
                    break
            else:
                if not once:
                    candidates.append(x)
                    continue
                blocked = x | forbidden
                free = None
                rest = once
                while rest:
                    low = rest & -rest
                    rest ^= low
                    bits = members[low.bit_length() - 1] & ~blocked
                    if free is None or bits.bit_count() < free.bit_count():
                        free = bits
                while free:
                    low = free & -free
                    e = low.bit_length() - 1
                    t = through[e]
                    next_level.append((x | low, forbidden, e, miss & ~t, once & ~t | miss & t))
                    forbidden |= low
                    free ^= low
        for x in sorted(candidates, key=lambda x: format(x, width)[::-1], reverse=True):
            out.append(EdgeSet(x, g.universe))
            rest = x
            while rest:
                low = rest & -rest
                found[low.bit_length() - 1].append(x)
                rest ^= low
        level = next_level
    return out


def _connected_without(g: Graph, x: EdgeSet) -> bool:
    """True iff g - x is connected: one flood over a copy of g's neighbor
    masks in which two vertices stop being neighbors when x holds every
    edge joining them, as many as their :func:`_index` lists count, so a
    parallel edge outside x still joins its ends.  Loops and ids of x that
    are not edges of g are ignored."""
    index, lists = _index(g)
    masks = list(_masks(g))
    ends = [sorted(map(index.__getitem__, g.psi[e])) for e in x if e in g.edges]
    for i, j in ends:
        if i != j and lists[i].count(j) == ends.count([i, j]):
            masks[i] &= ~(1 << j)
            masks[j] &= ~(1 << i)
    every = (1 << len(masks)) - 1
    return _flood(masks, every & 1, every)[0] == every


def circuits_meeting_once(g: Graph, x: EdgeSet, nc: NcCatalog):
    """Two distinct non-separating circuits each crossing ``x`` in exactly
    one edge (the lexicographically first two).

    For a 3-connected host whose deletion of ``x`` stays connected, such a
    pair always exists; a CounterexampleReport return would refute that.
    """
    _check_universe(g, x)
    if not x:
        raise EmptyX("the edge set must be nonempty")
    if not _connected_without(g, x):
        raise Disconnected("deleting the edge set disconnects the graph")
    witnesses = []
    for c in nc.members:
        if (c.edges.bits & x.bits).bit_count() == 1:
            witnesses.append(c)
            if len(witnesses) == 2:
                return witnesses[0], witnesses[1]
    return CounterexampleReport(fingerprint(g), x, tuple(witnesses))


def families_match(found: tuple, candidates: list[EdgeSet]) -> bool:
    """True iff the bonds of :func:`_bond_masks` and the minimal cut
    candidates are the same edge sets."""
    return sorted(cut for cut, _ in found) == sorted(x.bits for x in candidates)


def verify_cocircuit_identity(g: Graph, cap: int = DEFAULT_CIRCUIT_CAP) -> bool:
    """True iff the minimal cut candidates recovered from the
    non-separating circuits, cataloged under ``cap`` (see
    ``non_separating_circuits``), coincide with the bonds."""
    if len(g.vertices) > MAX_BOND_VERTICES or len(g.edges) > MAX_CUT_SEARCH_EDGES:
        raise TooLarge("graph exceeds the bond enumeration or cut-candidate search bounds")
    nc = non_separating_circuits(g, cap)
    return families_match(_bond_masks(g), minimal_cut_candidates(g, nc))
