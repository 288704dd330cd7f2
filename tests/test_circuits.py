from collections import Counter

import pytest

from nscycles import (
    Graph,
    build_graph,
    circuit_from_edges,
    contract_edges,
    cyclomatic_number,
    enumerate_circuits,
    even_subgraph_to_circuits,
    fingerprint,
    Gf2Matrix,
    gen_corpus,
    gf2_rank,
    is_cycle_space_member,
    is_path_chord,
    is_separating,
    non_separating_circuits,
    split_on_path_chord,
    subdivide_every_edge,
    suppress_degree_two,
    sym_diff,
    thread_from_edges,
)
from nscycles.circuits import (
    DEFAULT_CIRCUIT_CAP,
    _Steps,
    _branch_cycle_circuit,
    _chordless_cycles,
    _induced_paths,
    _thread_runs,
)
from nscycles.decomposition import _distances_to, _handed_down
from nscycles.graph_core import _branch_graph, _index, _masks, _threads
from nscycles.errors import (
    CircuitExplosion,
    NotACircuit,
    NotAPathChord,
    NotEven,
)

import oracles
from conftest import CORPUS_NAMES

K4_CIRCUITS = [
    (0, 1, 3), (0, 1, 4, 5), (0, 2, 3, 5), (0, 2, 4),
    (1, 2, 3, 4), (1, 2, 5), (3, 4, 5),
]


def test_enumerate_k4(k4):
    found = enumerate_circuits(k4, 100)
    assert [c.edges.ids() for c in found] == K4_CIRCUITS
    assert {frozenset(c.edges.ids()) for c in found} == oracles.brute_circuits(k4)


def test_enumerate_tree_and_triangle(triangle):
    tree = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert enumerate_circuits(tree, 100) == []
    found = enumerate_circuits(triangle, 100)
    assert len(found) == 1
    assert found[0].edges == triangle.full_edge_set()
    assert found[0].vertex_cycle == (0, 1, 2)


def test_enumerate_matches_brute_force_on_corpus(prism, w4):
    for g in (prism, w4, gen_corpus("k33")):
        assert {frozenset(c.edges.ids()) for c in enumerate_circuits(g)} == \
            oracles.brute_circuits(g)


def test_enumerate_multigraph_loops_and_parallels(k4):
    contracted, _ = contract_edges(k4, k4.edge_set([0, 1, 3]))
    found = enumerate_circuits(contracted, 100)  # 3 parallel edges: 3 digons
    assert [c.edges.ids() for c in found] == [(2, 4), (2, 5), (4, 5)]
    looped, _ = contract_edges(k4, k4.edge_set([0, 2, 3, 5]))
    assert [c.edges.ids() for c in enumerate_circuits(looped, 100)] == [(1,), (4,)]


def test_enumeration_cap(k4):
    with pytest.raises(CircuitExplosion):
        enumerate_circuits(k4, 5)
    assert len(enumerate_circuits(k4, 7)) == 7


def test_circuit_from_edges_validation(k4, prism):
    with pytest.raises(NotACircuit):
        circuit_from_edges(k4, [])
    with pytest.raises(NotACircuit):
        circuit_from_edges(k4, [0, 1])  # path, not a cycle
    with pytest.raises(NotACircuit):
        circuit_from_edges(k4, [0, 1, 2, 3, 4, 5])  # degrees 3
    with pytest.raises(NotACircuit, match="single non-loop edge"):
        circuit_from_edges(k4, [2])
    triangles = [c.edges.ids() for c in enumerate_circuits(prism) if len(c) == 3]
    assert len(triangles) == 2 and not set(triangles[0]) & set(triangles[1])
    with pytest.raises(NotACircuit, match="more than one cycle"):
        circuit_from_edges(prism, triangles[0] + triangles[1])
    looped = Graph(range(3), range(4), {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (1, 1)}, 4)
    with pytest.raises(NotACircuit, match="loop edge 3 inside a multi-edge set"):
        circuit_from_edges(looped, [0, 1, 2, 3])
    c = circuit_from_edges(k4, [3, 0, 1])
    assert c.vertex_cycle == (0, 1, 2)


def test_is_separating_k4(k4):
    triangle = circuit_from_edges(k4, [0, 1, 3])
    quad = circuit_from_edges(k4, [0, 2, 3, 5])
    assert not is_separating(k4, triangle)
    assert is_separating(k4, quad)


def test_is_separating_wheel_rim(w4):
    # contracting the rim leaves the hub joined by 4 parallel spokes: 1 block
    rim = circuit_from_edges(w4, [0, 1, 2, 3])
    assert not is_separating(w4, rim)


def test_separating_matches_chord_and_attachment_rules(corpus):
    # every circuit with a chord is separating; every triangle whose vertex
    # removal keeps the graph connected is non-separating
    for label, g in corpus:
        if len(g.edges) > 15:
            continue
        for c in enumerate_circuits(g):
            on_cycle = set(c.vertex_cycle)
            has_chord = any(
                e not in c.edges and u in on_cycle and v in on_cycle
                for e, (u, v) in g.psi.items()
            )
            if has_chord:
                assert is_separating(g, c), label
            elif len(c) == 3 and oracles.connected_after_removing(g, on_cycle):
                assert not is_separating(g, c), label


def _multigraph(n, pairs):
    psi = {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(pairs)}
    return Graph(range(n), range(len(psi)), psi, len(psi))


K4_PAIRS = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
PRISM_PAIRS = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize("pairs, cycle, separating", [
    # the spanning 4-cycle of a diamond: its one chord is one bridge
    ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], [0, 1, 2, 3], False),
    # a loop at a cycle vertex is not a chord
    (K4_PAIRS + [(0, 0)], [0, 1, 2], False),
    # G - V(C) is disconnected, but the pendant block meets C once: one bridge
    (PRISM_PAIRS + [(0, 6), (6, 7), (0, 7)], [0, 1, 2], False),
    # G - V(C) is connected, but a third parallel edge is a chord: two bridges
    ([(0, 1), (0, 1), (0, 1), (0, 2), (1, 2)], [0, 1], True),
    # the same digon alone: the parallel edge is its only bridge
    ([(0, 1), (0, 1), (0, 1)], [0, 1], False),
])
def test_separation_counts_bridges(pairs, cycle, separating):
    g = _multigraph(max(max(p) for p in pairs) + 1, pairs)
    c = circuit_from_edges(g, cycle)
    assert is_separating(g, c) == separating
    assert oracles.separating_by_block_count(g, cycle) == separating
    assert (c in non_separating_circuits(g)) == (not separating)


def test_nc_catalogs(k4, w4, prism):
    assert [c.edges.ids() for c in non_separating_circuits(k4)] == \
        [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    assert len(non_separating_circuits(w4)) == 5
    assert len(non_separating_circuits(prism)) == 5
    catalog = non_separating_circuits(prism)
    assert catalog.graph_fingerprint == fingerprint(prism)
    assert all(not is_separating(prism, c) for c in catalog)


def test_nc_catalog_matches_block_count_oracle(corpus):
    for label, g in corpus:
        for host in (g, subdivide_every_edge(g)):
            got = [c.edges.ids() for c in non_separating_circuits(host)]
            assert got == oracles.nc_by_block_count(host), label


def test_branch_graph_chordless_cycles_match_networkx(corpus):
    nx = pytest.importorskip("networkx")
    for label, g in corpus:
        h, _ = suppress_degree_two(subdivide_every_edge(g))
        found = [frozenset(vs) for vs, _ in _chordless_cycles(h, DEFAULT_CIRCUIT_CAP)]
        reference = nx.Graph(list(h.psi.values()))
        expected = {frozenset(c) for c in nx.chordless_cycles(reference)}
        assert len(found) == len(set(found)), label
        assert set(found) == expected, label


def test_nc_cap_bounds_the_chordless_cycles_examined(k4):
    # K4 has 4 chordless cycles (its triangles) and 7 circuits
    assert len(non_separating_circuits(k4, 4)) == 4
    with pytest.raises(CircuitExplosion):
        non_separating_circuits(k4, 3)


def test_nc_reaches_random3c_40():
    # enumerating every circuit of this 60-edge graph exceeds the default cap
    g = gen_corpus("random3c-40", 0)
    catalog = non_separating_circuits(g)
    assert len(catalog) == 1587
    assert gf2_rank(Gf2Matrix.from_rows(catalog.edge_sets(), g.universe)) \
        == cyclomatic_number(g)


def test_is_path_chord(k4):
    triangle = circuit_from_edges(k4, [0, 1, 3])
    quad = circuit_from_edges(k4, [0, 2, 3, 5])
    assert not is_path_chord(k4, triangle, thread_from_edges(k4, [2]))  # one endpoint off
    assert is_path_chord(k4, quad, thread_from_edges(k4, [1]))  # chord (0,2)
    assert not is_path_chord(k4, triangle, thread_from_edges(k4, [0]))  # edge on the cycle


def test_split_on_path_chord(k4):
    quad = circuit_from_edges(k4, [0, 2, 3, 5])
    chord = thread_from_edges(k4, [1])
    r, s = split_on_path_chord(k4, quad, chord)
    assert r.edges.ids() == (0, 1, 3) and s.edges.ids() == (1, 2, 5)
    assert sym_diff(r.edges, s.edges) == quad.edges
    assert (r.edges | s.edges) == (quad.edges | k4.edge_set([1]))
    with pytest.raises(NotAPathChord):
        split_on_path_chord(k4, quad, thread_from_edges(k4, [0]))


def test_split_with_long_thread():
    # outer square 0-1-2-3 with a two-edge chord 0-4-2
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
    quad = circuit_from_edges(g, [0, 1, 2, 3])
    t = thread_from_edges(g, [4, 5])
    assert is_path_chord(g, quad, t)
    r, s = split_on_path_chord(g, quad, t)
    assert set(t.edges) <= set(r.edges.ids())
    assert set(t.edges) <= set(s.edges.ids())
    assert sym_diff(r.edges, s.edges) == quad.edges


def test_even_subgraph_peeling(prism):
    assert even_subgraph_to_circuits(prism, prism.edge_set([])) == []
    triangle = prism.edge_set([0, 1, 2])
    peeled = even_subgraph_to_circuits(prism, triangle)
    assert len(peeled) == 1 and peeled[0].edges == triangle
    both = prism.edge_set([0, 1, 2, 3, 4, 5])
    peeled = even_subgraph_to_circuits(prism, both)
    assert len(peeled) == 2
    assert peeled[0].edges.isdisjoint(peeled[1].edges)
    assert peeled[0].edges ^ peeled[1].edges == both
    with pytest.raises(NotEven):
        even_subgraph_to_circuits(prism, prism.edge_set([0]))


def test_separating_rejects_disconnected_hosts(k4):
    from nscycles import delete_edges
    from nscycles.errors import Disconnected
    broken = delete_edges(k4, k4.edge_set([0, 1, 2]))  # isolates vertex 0
    with pytest.raises(Disconnected):
        is_separating(broken, circuit_from_edges(broken, [3, 4, 5]))
    with pytest.raises(Disconnected):
        non_separating_circuits(broken)


def test_even_subgraph_peeling_replays(corpus):
    from nscycles import fundamental_basis
    for label, g in corpus:
        basis = fundamental_basis(g)
        x = g.edge_set([])
        for row in basis[::2]:
            x = x ^ row
        if not x:
            continue
        assert is_cycle_space_member(g, x)
        peeled = even_subgraph_to_circuits(g, x)
        total = g.edge_set([])
        seen = 0
        for c in peeled:
            assert total.isdisjoint(c.edges), label
            total = total ^ c.edges
            seen += len(c.edges)
        assert total == x and seen == len(x), label


def _levels(g) -> list:
    """(g_i, its tables, its thread runs) for g and every graph below it
    down its ear walk, the tables and runs those the walk keeps."""
    return [(h, lists, runs) for (h, lists), runs in zip(oracles.ear_levels(g), _handed_down(g))]


def _paths(found, vertex=None) -> Counter:
    """The paths ``found`` as (vertices but the last, edge bitmask, last
    vertex), read through ``vertex`` (index -> vertex) when given."""
    label = (lambda v: v) if vertex is None else vertex.__getitem__
    return Counter((tuple(map(label, path)), bits, label(last)) for path, bits, last in found)


def _oracle_hosts() -> list:
    return [gen_corpus(name) for name in CORPUS_NAMES] + \
        [gen_corpus(f"random3c-{n}", seed) for n in range(8, 15) for seed in range(3)]


def test_induced_paths_match_enumeration_oracle():
    # unbounded, from each vertex's larger neighbors through larger
    # vertices to its neighbors, as the chordless-cycle search asks, on the
    # indices and neighbor masks of _index and _masks
    for g in _oracle_hosts():
        h = _branch_graph(g)
        index, nbrs = _index(h)[0], _masks(h)
        bit = {v: 1 << i for v, i in index.items()}
        steps = [[(1 << e, index[w]) for e, w in pairs] for pairs in h.adjacency.values()]
        for s in sorted(h.vertices):
            above = {v for v in h.vertices if v > s}
            to_s = {w: e for e, w in h.adjacency[s] if w > s}
            for first in to_s:
                got = _induced_paths(nbrs, index[first], sum(map(bit.__getitem__, above)),
                                     sum(map(bit.__getitem__, to_s)), steps)
                assert _paths(got, list(bit)) == \
                    _paths(oracles.induced_paths_by_enumeration(h, first, above, to_s)), \
                    (fingerprint(g), s, first)


def test_bounded_induced_paths_match_enumeration_oracle():
    # bounded as the theta search asks, with a fixed limit, on every graph
    # down the ear sequence, where threads have various lengths, on the
    # index lists, neighbor masks and thread runs the walk keeps for that
    # search: every
    # path from x to a neighbor of y off the thread's ends within the
    # limit, its edge bitmask that of its threads in g
    for g in _oracle_hosts():
        for lg, lists, runs in _levels(g):
            h = _branch_graph(lg)
            ts = _threads(lg)
            weight = [len(t.edges) for t in ts]
            thread_bits = [sum(1 << e for e in t.edges) for t in ts]
            index, nbrs, masks, _ = lists
            vertex = list(index)
            for t in ts:
                x, y = t.endpoints
                allowed = h.vertices - {x, y}
                to_y = {w: e for e, w in h.adjacency[y] if w in allowed}
                expected = oracles.induced_paths_by_enumeration(h, x, allowed, to_y)
                lengths = [sum(weight[e] for e in range(len(weight)) if bits >> e & 1)
                           + weight[to_y[last]] for _, bits, last in expected]
                limit = sorted(lengths)[len(lengths) // 2]
                free = sum(1 << index[v] for v in allowed)
                ends = {index[w]: weight[e] for w, e in to_y.items()}
                bound = _distances_to(nbrs, vertex, runs, ends, free)
                order = _Steps(nbrs, vertex, runs, bound)
                got = _induced_paths(masks, index[x], free, sum(1 << w for w in ends), order, limit)
                in_g = [(path, sum(thread_bits[e] for e in range(len(ts)) if bits >> e & 1), last)
                        for path, bits, last in expected]
                assert _paths(got, vertex) == \
                    _paths(p for p, n in zip(in_g, lengths) if n <= limit), (fingerprint(lg), t)


def test_catalog_circuits_are_rebuilt_from_their_edges():
    named = [gen_corpus(name) for name in CORPUS_NAMES]
    hosts = named + [subdivide_every_edge(g) for g in named]
    hosts += [gen_corpus(f"random3c-{n}", 0) for n in range(8, 21)]
    hosts += [h for h, _, _ in _levels(subdivide_every_edge(gen_corpus("random3c-10", 0)))]
    for g in hosts:
        for c in non_separating_circuits(g):
            assert c == circuit_from_edges(g, c.edges.ids()), fingerprint(g)


def test_branch_cycle_circuit_rejects_a_broken_order(prism):
    g = subdivide_every_edge(prism)
    square = next(order for order, _ in _chordless_cycles(_branch_graph(g), DEFAULT_CIRCUIT_CAP)
                  if len(order) == 4)
    runs = _thread_runs(g)
    with pytest.raises(NotACircuit, match="not adjacent"):
        _branch_cycle_circuit(runs, g.universe, square[:1] + square[2:])  # a corner cut off
    with pytest.raises(NotACircuit, match="repeat"):
        _branch_cycle_circuit(runs, g.universe, square + square[-2:0:-1])  # around and back
    with pytest.raises(NotACircuit, match="repeat"):
        _branch_cycle_circuit(runs, g.universe, square[:2])  # one thread there and back


def test_chordless_cycle_orders_walk_the_branch_graph(corpus):
    for label, g in corpus:
        for host in (g, subdivide_every_edge(g)):
            h = _branch_graph(host)
            adjacent = {(v, w): e for v, pairs in h.adjacency.items() for e, w in pairs}
            for order, bits in _chordless_cycles(h, DEFAULT_CIRCUIT_CAP):
                assert len(set(order)) == len(order) >= 3, label
                pairs = list(zip(order, order[1:] + order[:1]))
                assert all(pair in adjacent for pair in pairs), label
                assert bits == sum(1 << adjacent[pair] for pair in pairs), label
                assert order[0] == min(order) and order[1] < order[-1], label
