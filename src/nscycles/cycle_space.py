"""GF(2) linear algebra over the edge universe of a graph.

A :class:`Gf2Matrix` is eliminated once, on first use, into a pivot table it
keeps: rank reads the table, and span membership reduces only the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import Disconnected, NotInSpan, UniverseMismatch, VerificationFailed
from .graph_core import EdgeSet, Graph, _check_universe, _incident_bits, find_root, is_connected


@dataclass(frozen=True)
class Gf2Matrix:
    """A list of edge sets over one shared universe, treated as GF(2) rows."""

    rows: tuple[EdgeSet, ...]
    universe: int

    def __post_init__(self):
        for r in self.rows:
            if r.universe != self.universe:
                raise UniverseMismatch(
                    f"row universe {r.universe} does not match matrix universe {self.universe}"
                )

    @staticmethod
    def from_rows(rows, universe: int) -> Gf2Matrix:
        return Gf2Matrix(tuple(rows), universe)

    @cached_property
    def _pivots(self) -> dict[int, tuple[int, int]]:
        """Pivot edge id -> (reduced row, bitmask of the rows summed into it),
        one entry per independent row: rows are eliminated in order on
        ascending edge ids."""
        pivots: dict[int, tuple[int, int]] = {}
        for i, row in enumerate(self.rows):
            r, marker = row.bits, 1 << i
            while r:
                col = (r & -r).bit_length() - 1
                if col not in pivots:
                    pivots[col] = (r, marker)
                    break
                pr, pm = pivots[col]
                r ^= pr
                marker ^= pm
        return pivots


@dataclass(frozen=True)
class SpanCertificate:
    """Indices of generator rows whose GF(2) sum equals the target."""

    coefficients: tuple[int, ...]
    target: EdgeSet


def sym_diff(x: EdgeSet, y: EdgeSet) -> EdgeSet:
    """Symmetric difference of two edge sets over one universe."""
    return x ^ y


def _require_in_graph(g: Graph, x: EdgeSet) -> None:
    _check_universe(g, x)
    missing = [e for e in x if e not in g.edges]
    if missing:
        raise UniverseMismatch(f"edge ids {missing} are not edges of the graph")


def is_cycle_space_member(g: Graph, x: EdgeSet) -> bool:
    """True iff every vertex has even degree in the subgraph on ``x``, read
    as the parity of x's bits in each vertex's edge mask.  Bits of x on no
    such mask, loops or no edge of g, are checked to be g's edges."""
    _check_universe(g, x)
    bits, seen, odd = x.bits, 0, 0
    for mask in _incident_bits(g).values():
        common = bits & mask
        seen |= common
        odd |= common.bit_count() & 1
    if seen != bits:
        _require_in_graph(g, x)
    return not odd


def fundamental_basis(g: Graph) -> list[EdgeSet]:
    """Fundamental circuits w.r.t. the lowest-edge-id-first spanning tree.

    One circuit per non-tree edge, in ascending edge-id order.
    """
    if not is_connected(g):
        raise Disconnected("fundamental basis requires a connected graph")
    parent = {v: v for v in g.vertices}
    tree_adj: dict = {v: [] for v in g.vertices}
    non_tree: list[int] = []
    for e in sorted(g.edges):
        u, v = g.psi[e]
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru == rv:
            non_tree.append(e)
        else:
            parent[ru] = rv
            tree_adj[u].append((e, v))
            tree_adj[v].append((e, u))
    # Edge bitmask of each vertex's tree path to the root, breadth first.
    queue = [min(g.vertices)] if g.vertices else []
    root_path = dict.fromkeys(queue, 0)
    for v in queue:
        for e, w in tree_adj[v]:
            if w not in root_path:
                root_path[w] = root_path[v] | 1 << e
                queue.append(w)
    basis = []
    for e in non_tree:
        u, v = g.psi[e]
        basis.append(EdgeSet(root_path[u] ^ root_path[v] | 1 << e, g.universe))
    return basis


def gf2_rank(matrix: Gf2Matrix) -> int:
    """Rank of the rows over GF(2), by elimination on ascending edge ids."""
    return len(matrix._pivots)


def express_in_span(target: EdgeSet, generators: Gf2Matrix) -> SpanCertificate:
    """Write ``target`` as a GF(2) sum of generator rows.

    Deterministic: rows are consumed in order with ascending-edge-id pivots,
    and the first solution found is returned.  Raises NotInSpan when the
    target lies outside the span.
    """
    if target.universe != generators.universe:
        raise UniverseMismatch(
            f"target universe {target.universe} does not match generators {generators.universe}"
        )
    pivots = generators._pivots
    t, marker = target.bits, 0
    while t:
        col = (t & -t).bit_length() - 1
        if col not in pivots:
            raise NotInSpan(f"no generator combination covers edge {col}")
        pr, pm = pivots[col]
        t ^= pr
        marker ^= pm
    coefficients = []
    while marker:
        low = marker & -marker
        coefficients.append(low.bit_length() - 1)
        marker ^= low
    replay = 0
    for i in coefficients:
        replay ^= generators.rows[i].bits
    if replay != target.bits:
        raise VerificationFailed("span certificate replay mismatch")
    return SpanCertificate(tuple(coefficients), target)


def cyclomatic_number(g: Graph) -> int:
    """Dimension of the cycle space of a connected graph: |E| - |V| + c,
    where c, the number of components, is 1, or 0 for the null graph."""
    if not is_connected(g):
        raise Disconnected("cyclomatic number requires a connected graph")
    return len(g.edges) - len(g.vertices) + (1 if g.vertices else 0)
