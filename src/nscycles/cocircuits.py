"""Bonds, cut candidates recovered from non-separating circuits, and the
identity between the two.

A *cut candidate* is a nonempty edge set that no cataloged non-separating
circuit crosses in exactly one edge.  Every bond is one; the inclusion-
minimal candidates of a 3-connected graph are exactly its bonds, which is
what :func:`verify_cocircuit_identity` checks by exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import Disconnected, EmptyX, TooLarge, UniverseMismatch
from .graph_core import EdgeSet, Graph, bfs_tree, delete_edges, fingerprint, is_connected
from .circuits import Circuit, NcCatalog, non_separating_circuits

MAX_BOND_VERTICES = 16
MAX_SUBSET_EDGES = 20


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
    if not is_connected(g):
        raise Disconnected("bond enumeration requires a connected graph")
    if len(g.vertices) > MAX_BOND_VERTICES:
        raise TooLarge(f"bond enumeration is capped at {MAX_BOND_VERTICES} vertices")
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
    return out


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
    """Inclusion-minimal cut candidates, by subset enumeration in size
    order with superset pruning."""
    edge_ids = sorted(g.edges)
    if len(edge_ids) > MAX_SUBSET_EDGES:
        raise TooLarge(f"subset enumeration is capped at {MAX_SUBSET_EDGES} edges")
    member_bits = [c.edges.bits for c in nc.members]
    found: list[int] = []
    out: list[EdgeSet] = []
    for size in range(1, len(edge_ids) + 1):
        for combo in combinations(edge_ids, size):
            bits = 0
            for e in combo:
                bits |= 1 << e
            if any(fb & bits == fb for fb in found):
                continue
            if all((mb & bits).bit_count() != 1 for mb in member_bits):
                found.append(bits)
                out.append(EdgeSet(bits, g.universe))
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
    if len(g.vertices) > MAX_BOND_VERTICES or len(g.edges) > MAX_SUBSET_EDGES:
        raise TooLarge("graph exceeds the exhaustive-verification bounds")
    nc = non_separating_circuits(g)
    return families_match(bonds(g), minimal_cut_candidates(g, nc))
