"""Bonds, cut candidates recovered from non-separating circuits, and the
identity between the two.

A *cut candidate* is a nonempty edge set that no cataloged non-separating
circuit crosses in exactly one edge.  Every bond is one; the inclusion-
minimal candidates of a 3-connected graph are exactly its bonds, which is
what :func:`verify_cocircuit_identity` checks.  The minimal candidates are
found by a branching search that grows each set one edge at a time, level
by level; one guard, ``MAX_CUT_SEARCH_EDGES``, bounds the graphs it and the
identity check accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import Disconnected, EmptyX, TooLarge, UniverseMismatch
from .graph_core import EdgeSet, Graph, bfs_tree, delete_edges, fingerprint, is_connected, memoized
from .circuits import Circuit, NcCatalog, non_separating_circuits

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
    """All bonds, by exhausting vertex bipartitions with connected sides."""
    return list(_bonds(g))


@memoized
def _bonds(g: Graph) -> tuple[Bond, ...]:
    if not is_connected(g):
        raise Disconnected("bond enumeration requires a connected graph")
    if len(g.vertices) > MAX_BOND_VERTICES:
        raise TooLarge(f"bond enumeration is capped at {MAX_BOND_VERTICES} vertices")
    if len(g.vertices) < 2:
        return []
    verts = sorted(g.vertices)
    anchor, rest = verts[0], verts[1:]
    out = []
    for size in range(len(rest)):
        for extra in combinations(rest, size):
            side = frozenset((anchor,) + extra)
            other = g.vertices - side
            if len(bfs_tree(g.adjacency, anchor, other)) != len(side):
                continue
            if len(bfs_tree(g.adjacency, min(other), side)) != len(other):
                continue
            cut = [
                e
                for e, (u, v) in g.psi.items()
                if (u in side) != (v in side)
            ]
            out.append(Bond(EdgeSet.from_ids(cut, g.universe), side))
    out.sort(key=lambda b: b.edges.ids())
    return tuple(out)


def is_cut_candidate(x: EdgeSet, nc: NcCatalog) -> bool:
    """True iff ``x`` is nonempty and no cataloged circuit meets it in
    exactly one edge."""
    if not x:
        return False
    for c in nc.members:
        if len(c.edges & x) == 1:
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
    child inside Y, since the chosen circuit meets Y in a second edge, which
    is free, and the child for the least such edge forbids no edge of Y.
    Nodes are expanded level by level, in order of |X|, and a node holding a
    candidate already found is dropped, so every candidate found is minimal.
    A node tests only the candidates holding its last edge: any other one
    inside it lies in its parent, which was kept and branched, so held none.
    """
    edge_ids = sorted(g.edges)
    if len(edge_ids) > MAX_CUT_SEARCH_EDGES:
        raise TooLarge(f"the cut-candidate search is capped at {MAX_CUT_SEARCH_EDGES} edges")
    through: dict[int, list[int]] = {e: [] for e in edge_ids}
    for c in nc.members:
        for e in c.edges.ids():
            through[e].append(c.edges.bits)
    found: dict[int, list[int]] = {e: [] for e in edge_ids}  # edge -> candidates holding it
    out: list[EdgeSet] = []
    level = [(1 << e, (1 << e) - 1, (e,)) for e in edge_ids]  # (X, forbidden, X's edges)
    while level:
        candidates = []
        next_level = []
        for x, forbidden, members in level:
            if any(f & x == f for f in found[members[-1]]):
                continue
            blocked = x | forbidden
            free = None
            for e in members:
                for c in through[e]:
                    if (c & x).bit_count() == 1:
                        bits = c & ~blocked
                        if free is None or bits.bit_count() < free.bit_count():
                            free = bits
            if free is None:
                candidates.append(x)
                continue
            while free:
                low = free & -free
                next_level.append((x | low, forbidden, members + (low.bit_length() - 1,)))
                forbidden |= low
                free ^= low
        for x in sorted((EdgeSet(x, g.universe) for x in candidates), key=EdgeSet.ids):
            out.append(x)
            for e in x.ids():
                found[e].append(x.bits)
        level = next_level
    return out


def circuits_meeting_once(g: Graph, x: EdgeSet, nc: NcCatalog):
    """Two distinct non-separating circuits each crossing ``x`` in exactly
    one edge (the lexicographically first two).

    For a 3-connected host whose deletion of ``x`` stays connected, such a
    pair always exists; a CounterexampleReport return would refute that.
    """
    if x.universe != g.universe:
        raise UniverseMismatch(
            f"edge set universe {x.universe} does not match graph universe {g.universe}"
        )
    if not x:
        raise EmptyX("the edge set must be nonempty")
    if not is_connected(delete_edges(g, x)):
        raise Disconnected("deleting the edge set disconnects the graph")
    witnesses = []
    for c in nc.members:
        if len(c.edges & x) == 1:
            witnesses.append(c)
            if len(witnesses) == 2:
                return witnesses[0], witnesses[1]
    return CounterexampleReport(fingerprint(g), x, tuple(witnesses))


def families_match(found_bonds: list[Bond], candidates: list[EdgeSet]) -> bool:
    """True iff the bonds and the minimal cut candidates are the same edge sets."""
    return (sorted(b.edges.ids() for b in found_bonds)
            == sorted(x.ids() for x in candidates))


def verify_cocircuit_identity(g: Graph) -> bool:
    """True iff the minimal cut candidates recovered from the
    non-separating circuits coincide with the bonds."""
    if len(g.vertices) > MAX_BOND_VERTICES or len(g.edges) > MAX_CUT_SEARCH_EDGES:
        raise TooLarge("graph exceeds the bond enumeration or cut-candidate search bounds")
    nc = non_separating_circuits(g)
    return families_match(bonds(g), minimal_cut_candidates(g, nc))
