import functools
import operator
import random
from itertools import combinations

import pytest

from nscycles import (
    EdgeSet,
    Graph,
    bonds,
    build_graph,
    circuits_meeting_once,
    contract_edges,
    delete_edges,
    enumerate_circuits,
    fingerprint,
    gen_corpus,
    is_cut_candidate,
    minimal_cut_candidates,
    non_separating_circuits,
    subdivide_every_edge,
    verify_cocircuit_identity,
    verify_graph,
)
from nscycles.circuits import NcCatalog
from nscycles.cocircuits import MAX_BOND_VERTICES, MAX_CUT_SEARCH_EDGES, _bond_masks
from nscycles.errors import Disconnected, EmptyX, TooLarge
from nscycles.graph_core import _index, _masks

from conftest import CORPUS_NAMES
import oracles


def test_bonds_triangle(triangle):
    found = bonds(triangle)
    assert [b.edges.ids() for b in found] == [(0, 1), (0, 2), (1, 2)]
    assert all(len(b.edges) == 2 for b in found)


def test_bonds_k4(k4):
    found = bonds(k4)
    assert len(found) == 7
    sizes = sorted(len(b.edges) for b in found)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]
    for b in found:
        assert oracles.is_minimal_edge_cut(k4, b.edges.ids())


def test_bonds_path():
    path = build_graph(3, [(0, 1), (1, 2)])
    found = bonds(path)
    assert [b.edges.ids() for b in found] == [(0,), (1,)]


def test_bonds_are_minimal_cuts(prism, w4):
    for g in (prism, w4):
        for b in bonds(g):
            assert oracles.is_minimal_edge_cut(g, b.edges.ids())
        # and conversely: every minimal cut shows up
        from itertools import combinations
        ids = sorted(g.edges)
        cuts = {
            frozenset(combo)
            for size in range(1, len(ids) + 1)
            for combo in combinations(ids, size)
            if oracles.is_minimal_edge_cut(g, combo)
        }
        assert {frozenset(b.edges.ids()) for b in bonds(g)} == cuts


def test_bonds_match_bipartition_oracle():
    graphs = [(name, gen_corpus(name)) for name in CORPUS_NAMES]
    graphs += [(f"random3c-{n}#{seed}", gen_corpus(f"random3c-{n}", seed))
               for n in range(4, 17) for seed in range(3)]
    graphs += [(label + "+subdivided", subdivide_every_edge(g)) for label, g in graphs
               if len(g.vertices) + len(g.edges) <= MAX_BOND_VERTICES]
    graphs.append(("path", build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))
    multi = _loop_and_parallels()
    # each mask is the OR of the distinct neighbor bits, though an index's
    # neighbor list repeats a vertex for each parallel edge
    index, lists = _index(multi)
    assert any(len(set(row)) < len(row) for row in lists)
    assert _masks(multi) == [functools.reduce(operator.or_, (1 << index[w] for _, w in pairs), 0)
                             for pairs in map(multi.adjacency.__getitem__, index)]
    graphs.append(("prism/{0,1,6}", multi))
    assert len(graphs) > 60
    for label, g in graphs:
        found = [(b.edges.ids(), b.side) for b in bonds(g)]
        assert found == oracles.bonds_by_bipartition(g), label


def _loop_and_parallels():
    """Prism with two edges of a triangle and a rung contracted: the third
    edge becomes a loop, and the edges to the other triangle come in
    parallel pairs."""
    multi, _ = contract_edges(gen_corpus("prism"), EdgeSet.from_ids([0, 1, 6], 9))
    pairs = list(multi.psi.values())
    assert any(u == v for u, v in pairs) and len(set(pairs)) < len(pairs)
    return multi


def test_bond_masks_match_bipartition_oracle(corpus):
    # the masks verify-all compares, read back to edge ids and vertex labels
    for label, g in corpus + [("prism/{0,1,6}", _loop_and_parallels())]:
        vertices = list(_index(g)[0])
        found = sorted((tuple(e for e in sorted(g.edges) if cut >> e & 1),
                        frozenset(v for i, v in enumerate(vertices) if side >> i & 1))
                       for cut, side in _bond_masks(g))
        assert found == oracles.bonds_by_bipartition(g), label


def test_bond_size_guard():
    big = build_graph(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(TooLarge):
        bonds(big)


def test_cut_candidate_predicate(k4):
    nc = non_separating_circuits(k4)
    assert not is_cut_candidate(EdgeSet.empty(6), nc)
    for b in bonds(k4):
        assert is_cut_candidate(b.edges, nc)
    assert not is_cut_candidate(k4.edge_set([0]), nc)


def test_minimal_cut_candidates_equal_bonds(k4, prism):
    for g in (k4, prism):
        nc = non_separating_circuits(g)
        candidates = minimal_cut_candidates(g, nc)
        assert sorted(x.ids() for x in candidates) == \
            sorted(b.edges.ids() for b in bonds(g))
        for x in candidates:
            assert is_cut_candidate(x, nc)
        # minimality: no member contains another
        for x in candidates:
            for y in candidates:
                if x != y:
                    assert not x.issubset(y)


def test_subset_size_guard():
    wheel = gen_corpus("wheel-11")
    assert len(wheel.edges) == MAX_CUT_SEARCH_EDGES + 1
    with pytest.raises(TooLarge):
        minimal_cut_candidates(wheel, non_separating_circuits(wheel))
    with pytest.raises(TooLarge):
        verify_cocircuit_identity(wheel)
    check = next(c for c in verify_graph(wheel, "wheel-11").checks
                 if c.name == "cocircuit_recovery")
    assert check.details.startswith("skipped:")
    largest = gen_corpus("random3c-12", 0)  # the largest default-corpus graph
    assert len(largest.edges) == MAX_CUT_SEARCH_EDGES
    assert verify_cocircuit_identity(largest)


def _edges_shuffled(g, seed):
    """``g`` rebuilt with its edge ids permuted."""
    pairs = [g.psi[e] for e in sorted(g.edges)]
    random.Random(seed).shuffle(pairs)
    return build_graph(len(g.vertices), pairs)


def test_minimal_cut_candidates_match_subset_oracle(corpus):
    # corpus graphs small enough for the 2^m oracle, order included, also
    # with their edge ids permuted, so that ids do not follow the search
    hosts = corpus + [(f"{label}~", _edges_shuffled(g, label)) for label, g in corpus]
    for label, g in hosts:
        if len(g.edges) <= 18:
            nc = non_separating_circuits(g)
            assert [x.ids() for x in minimal_cut_candidates(g, nc)] == \
                oracles.minimal_cut_candidates_by_subsets(g, nc), label


def test_circuits_meeting_once_k4(k4):
    nc = non_separating_circuits(k4)
    a, b = circuits_meeting_once(k4, k4.edge_set([0]), nc)
    assert {a.edges.ids(), b.edges.ids()} == {(0, 1, 3), (0, 2, 4)}
    a, b = circuits_meeting_once(k4, k4.edge_set([0, 1]), nc)
    assert a != b
    assert len(a.edges & k4.edge_set([0, 1])) == 1
    assert len(b.edges & k4.edge_set([0, 1])) == 1


def test_circuits_meeting_once_preconditions(k4):
    nc = non_separating_circuits(k4)
    with pytest.raises(EmptyX):
        circuits_meeting_once(k4, EdgeSet.empty(6), nc)
    star = k4.edge_set([0, 1, 2])  # all edges at vertex 0
    from nscycles import is_connected
    assert not is_connected(delete_edges(k4, star))
    with pytest.raises(Disconnected):
        circuits_meeting_once(k4, star, nc)
    # a parallel copy left outside x still joins its ends, and an id of x
    # that is not an edge of the graph is ignored
    psi = {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (2, 3), 4: (2, 3), 5: (3, 3)}
    multi = Graph(range(4), range(6), psi, 7)
    nc = non_separating_circuits(multi)
    circuits_meeting_once(multi, multi.edge_set([3, 6]), nc)
    with pytest.raises(Disconnected):
        circuits_meeting_once(multi, multi.edge_set([3, 4, 6]), nc)
    # on a disconnected host, an x inside one component leaves it disconnected
    two = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(Disconnected):
        circuits_meeting_once(two, two.edge_set([0]), NcCatalog((), fingerprint(two)))


def test_circuits_meeting_once_matches_oracles(corpus):
    # every edge pair, every bond and every bond less one edge: Disconnected
    # exactly when the oracle finds g - x disconnected, else the first two
    # catalog circuits meeting x once
    for label, g in corpus:
        nc = non_separating_circuits(g)
        ids = sorted(g.edges)
        cuts = [b.edges.ids() for b in bonds(g)]
        pool = list(combinations(ids, 2)) + cuts + [cut[1:] for cut in cuts if len(cut) > 1]
        for combo in pool:
            x = g.edge_set(combo)
            pairs = [g.psi[e] for e in ids if e not in combo]
            adj = oracles.adjacency_from_pairs(g.vertices, pairs)
            once = [c for c in nc.members if len(set(c.edges.ids()) & set(combo)) == 1]
            assert is_cut_candidate(x, nc) == (not once), (label, combo)
            if len(oracles.reachable(adj, min(g.vertices))) < len(g.vertices):
                with pytest.raises(Disconnected):
                    circuits_meeting_once(g, x, nc)
            else:
                assert circuits_meeting_once(g, x, nc) == tuple(once[:2]), (label, combo)


def test_cocircuit_identity(k4, w4):
    assert verify_cocircuit_identity(k4)
    assert verify_cocircuit_identity(gen_corpus("k33"))
    assert verify_cocircuit_identity(w4)


def test_orthogonality(k4, prism):
    for g in (k4, prism):
        for b in bonds(g):
            for c in enumerate_circuits(g):
                assert len(b.edges & c.edges) % 2 == 0
