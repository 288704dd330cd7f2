import pytest

from nscycles import (
    EdgeSet,
    blocks,
    build_graph,
    contract_edges,
    delete_edges,
    ear_sequence,
    find_reducible_thread,
    fingerprint,
    gen_corpus,
    is_connected,
    is_k_connected,
    is_top_3_connected,
    is_top_k4,
    subdivide_every_edge,
    suppress_degree_two,
    thread_delete,
    thread_from_edges,
    threads,
)
from nscycles.graph_core import (
    Graph,
    Thread,
    _lists,
    _removable,
    _threads,
    _threads_after_delete,
)
from nscycles.errors import (
    AllDegreesTwo,
    DanglingVertexId,
    Disconnected,
    DuplicateEdge,
    LoopRejected,
    NotAThread,
    UniverseMismatch,
)

import oracles

K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_build_k4():
    g = build_graph(4, K4_PAIRS)
    assert len(g.vertices) == 4 and len(g.edges) == 6
    assert g.simple
    assert g.psi[0] == (0, 1) and g.psi[5] == (2, 3)


def test_build_rejects_duplicates_loops_dangling():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(LoopRejected):
        build_graph(2, [(0, 0)])
    with pytest.raises(DanglingVertexId):
        build_graph(2, [(0, 2)])


def test_delete_edges(k4):
    assert delete_edges(k4, EdgeSet.empty(6)) == k4
    smaller = delete_edges(k4, k4.edge_set([5]))
    assert smaller.edges == frozenset(range(5))
    assert smaller.vertices == k4.vertices
    empty = delete_edges(k4, k4.full_edge_set())
    assert not empty.edges and len(empty.vertices) == 4
    assert not is_connected(empty)
    with pytest.raises(UniverseMismatch):
        delete_edges(k4, EdgeSet.from_ids([0], 9))


def test_contract_triangle_of_k4(k4):
    # contracting triangle {0,1,2} leaves 3 parallel edges into vertex 3
    tri = k4.edge_set([0, 1, 3])
    contracted, vertex_map = contract_edges(k4, tri)
    assert contracted.edges == frozenset({2, 4, 5})
    assert set(contracted.psi.values()) == {(0, 3)}
    assert not contracted.simple
    assert vertex_map == {0: 0, 1: 0, 2: 0, 3: 3}
    _, survivors = oracles.contract_by_union_find(k4, [0, 1, 3])
    assert survivors == contracted.psi


def test_contract_four_cycle_of_k4(k4):
    quad = k4.edge_set([0, 2, 3, 5])
    contracted, _ = contract_edges(k4, quad)
    assert contracted.vertices == frozenset({0})
    assert set(contracted.psi.values()) == {(0, 0)}
    assert len(contracted.edges) == 2
    _, survivors = oracles.contract_by_union_find(k4, [0, 2, 3, 5])
    assert survivors == contracted.psi


def test_contract_nothing_is_identity(k4):
    contracted, vertex_map = contract_edges(k4, EdgeSet.empty(6))
    assert contracted == k4
    assert vertex_map == {v: v for v in k4.vertices}


def test_contraction_deletion_commute(k4):
    a = k4.edge_set([5])
    b = k4.edge_set([0, 1])
    one = contract_edges(delete_edges(k4, a), b)[0]
    other = delete_edges(contract_edges(k4, b)[0], a)
    assert one == other


def test_blocks_k4(k4):
    decomposition = blocks(k4)
    assert decomposition.block_count == 1
    assert decomposition.blocks[0] == k4.full_edge_set()
    assert not decomposition.cut_vertices


def test_blocks_path():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    decomposition = blocks(path)
    assert decomposition.block_count == 3
    assert all(len(b) == 1 for b in decomposition.blocks)
    assert decomposition.cut_vertices == {1, 2}


def test_blocks_two_triangles_sharing_a_vertex():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    decomposition = blocks(g)
    assert decomposition.block_count == 2
    assert decomposition.cut_vertices == {2}
    assert decomposition.cut_vertices == oracles.cut_vertices_by_removal(g)


def test_blocks_after_contraction_count_loops(k4):
    contracted, _ = contract_edges(k4, k4.edge_set([0, 2, 3, 5]))
    decomposition = blocks(contracted)
    assert decomposition.block_count == 2  # each loop is its own block
    parallel, _ = contract_edges(k4, k4.edge_set([0, 1, 3]))
    assert blocks(parallel).block_count == 1  # parallels share one block


def test_blocks_partition_sums(corpus):
    for label, g in corpus:
        decomposition = blocks(g)
        assert sum(len(b) for b in decomposition.blocks) == len(g.edges), label


def test_connectivity(k4, petersen):
    assert is_connected(k4)
    assert is_k_connected(k4, 3)
    assert not is_k_connected(k4, 4)
    four_cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_k_connected(four_cycle, 3)
    assert is_k_connected(petersen, 3)
    assert oracles.k_connected_by_removal(petersen, 3)


def test_k_connected_matches_removal_oracle_on_corpus(corpus):
    for label, g in corpus:
        for k in range(1, 5):
            assert is_k_connected(g, k) == oracles.k_connected_by_removal(g, k), (label, k)


def _cycle(n, first=0):
    return [(first + i, first + (i + 1) % n) for i in range(n)]


def _path(n, first=0):
    return [(first + i, first + i + 1) for i in range(n - 1)]


def test_k_connected_at_sizes_beyond_the_removal_oracle():
    # Removing every vertex pair would take about 45k BFS runs on each
    # 300-vertex ladder.
    n = 150
    rungs = [(i, n + i) for i in range(n)]
    circular_ladder = build_graph(2 * n, _cycle(n) + _cycle(n, n) + rungs)
    assert is_k_connected(circular_ladder, 3)
    ladder = build_graph(2 * n, _path(n) + _path(n, n) + rungs)
    assert is_k_connected(ladder, 2)
    assert not is_k_connected(ladder, 3)
    broken_wheel = build_graph(n + 1, _cycle(n)[1:] + [(n, i) for i in range(n)])
    assert is_k_connected(broken_wheel, 2)
    assert not is_k_connected(broken_wheel, 3)


def test_threads_k4(k4):
    ts = threads(k4)
    assert len(ts) == 6
    assert all(len(t.edges) == 1 for t in ts)


def test_threads_subdivided_edge():
    # K4 with edge (0,1) subdivided once: vertex 4 in the middle
    g = build_graph(5, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ts = threads(g)
    assert len(ts) == 6
    long = [t for t in ts if len(t.edges) == 2]
    assert len(long) == 1
    assert long[0].edges == (0, 1) and long[0].vertices == (0, 4, 1)


def test_threads_cycle_rejected(triangle):
    with pytest.raises(AllDegreesTwo):
        threads(triangle)


def test_threads_pendant_cycle_rejected():
    # triangle hanging off vertex 0 of another triangle: the degree-2 run
    # through vertices 3,4 closes on vertex 0, so no partition exists
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    with pytest.raises(AllDegreesTwo):
        threads(g)


def test_threads_partition(corpus):
    for label, g in corpus:
        covered = [e for t in threads(g) for e in t.edges]
        assert sorted(covered) == sorted(g.edges), label


def test_thread_delete_single_edge(k4):
    t = thread_from_edges(k4, [5])
    reduced = thread_delete(k4, t)
    assert reduced.edges == frozenset(range(5))
    assert reduced.vertices == k4.vertices


def test_thread_delete_two_edge_thread():
    g = build_graph(5, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    t = thread_from_edges(g, [0, 1])
    reduced = thread_delete(g, t)
    assert reduced.edges == frozenset(range(2, 7))
    assert 4 not in reduced.vertices
    assert reduced.vertices == frozenset({0, 1, 2, 3})


def test_thread_delete_rejects_non_thread(k4):
    with pytest.raises(NotAThread):
        thread_from_edges(k4, [0, 5])  # disjoint edges, not a path
    with pytest.raises(NotAThread):
        thread_from_edges(k4, [0, 1])  # path 1-0-2, but vertex 0 has degree 3


def test_thread_removal_sizes(corpus):
    for label, g in corpus:
        if not is_top_3_connected(g):
            continue
        for t in threads(g):
            reduced = thread_delete(g, t)
            assert len(g.edges) - len(reduced.edges) == len(t.edges), label
            assert len(g.vertices) - len(reduced.vertices) == len(t.inner_vertices()), label


def test_suppress_k4_is_identity_up_to_relabeling(k4):
    suppressed, thread_map = suppress_degree_two(k4)
    assert len(suppressed.vertices) == 4 and len(suppressed.edges) == 6
    assert suppressed.simple
    assert all(len(t.edges) == 1 for t in thread_map.values())


def test_suppress_full_subdivision_recovers_k4(k4):
    subdivided = subdivide_every_edge(k4)
    assert len(subdivided.vertices) == 10 and len(subdivided.edges) == 12
    suppressed, thread_map = suppress_degree_two(subdivided)
    assert len(suppressed.vertices) == 4 and len(suppressed.edges) == 6
    assert suppressed.simple
    assert all(suppressed.degree(v) == 3 for v in suppressed.vertices)
    assert all(len(t.edges) == 2 for t in thread_map.values())


def test_suppress_theta_graph_yields_parallels():
    # two vertices joined by three internally disjoint 2-edge paths
    g = build_graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    suppressed, _ = suppress_degree_two(g)
    assert len(suppressed.vertices) == 2 and len(suppressed.edges) == 3
    assert not suppressed.simple
    assert not is_top_3_connected(g)


def test_top_3_connected(k4):
    assert is_top_3_connected(subdivide_every_edge(k4))
    assert not is_top_3_connected(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert is_top_k4(k4)
    assert is_top_k4(subdivide_every_edge(k4))
    assert not is_top_k4(gen_corpus("k5"))
    partially = build_graph(7, [(0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3),
                                (1, 2), (1, 3), (2, 3)])
    assert is_top_k4(partially)


def test_subdividing_a_minor_adds_no_isolated_vertex(corpus):
    # g - t lacks the ids of t's edges and inner vertices; subdividing it
    # numbers the new vertices from the edges present
    for label, host in corpus:
        for g in (host, subdivide_every_edge(host)):
            if is_top_k4(g):
                continue
            r = thread_delete(g, find_reducible_thread(g))
            s = subdivide_every_edge(r)
            assert len(s.vertices) == len(r.vertices) + len(r.edges), label
            assert is_top_3_connected(s), label


def _down_ear_sequence(g):
    """``g`` and every graph its ear sequence passes through, the terminal
    included."""
    walk = [g]
    for _, t in ear_sequence(g).steps:
        walk.append(thread_delete(walk[-1], t))
    return walk


def test_top_k4_matches_suppression_oracle(corpus):
    # every graph down the ear sequences of the corpus and its subdivisions,
    # and each of them minus each thread, most of those not top-3-connected
    outcomes = set()
    for label, host in corpus:
        for g in (host, subdivide_every_edge(host)):
            for h in _down_ear_sequence(g):
                for f in [h] + [thread_delete(h, t) for t in threads(h)]:
                    got = is_top_k4(f)
                    assert got == oracles.top_k4_by_suppression(f), label
                    outcomes.add(got)
    assert outcomes == {False, True}


def _top3_cases(g):
    """``g``, its subdivision, each of them minus each thread and each of
    them with a parallel edge and with a loop; ``g`` with a pendant vertex,
    with an isolated vertex and beside a copy of itself, each also
    subdivided."""
    n = len(g.vertices)
    pairs = [g.psi[e] for e in sorted(g.edges)]
    s = subdivide_every_edge(g)
    cases = [g, s] + [thread_delete(f, t) for f in (g, s) for t in threads(f)]
    for f in (g, s):
        m = len(f.edges)
        for extra in (f.psi[0], (0, 0)):
            cases.append(Graph(f.vertices, range(m + 1), {**f.psi, m: extra}, m + 1))
    for f in (build_graph(n + 1, pairs + [(0, n)]),
              build_graph(n + 1, pairs),
              build_graph(2 * n, pairs + [(u + n, v + n) for u, v in pairs])):
        cases += [f, subdivide_every_edge(f)]
    return cases


def test_top_3_connected_matches_suppression_oracle(corpus):
    # a graph with no degree-2 vertex is tested as it is, any other on its
    # branch graph; both paths must agree with suppressing by hand, on
    # simple and non-simple graphs, with a degree-1 vertex or disconnected
    answers, kinds = set(), set()
    for label, host in corpus:
        for f in _top3_cases(host):
            fresh = Graph(f.vertices, f.edges, f.psi, f.universe)
            got = is_top_3_connected(fresh)
            assert got == oracles.top_3_connected_by_suppression(f), (label, f)
            no_two = all(f.degree(v) != 2 for v in f.vertices)
            answers.add((no_two, got))
            kinds.add((no_two, f.simple))
    both = {(a, b) for a in (False, True) for b in (False, True)}
    assert answers == kinds == both


def _removal_verdict(lists, t) -> bool:
    """The ear step's verdict on removing ``t`` from a top-3-connected
    graph, decided on its branch-graph tables ``lists``, those the ear
    walk carries for it."""
    x, y = t.endpoints
    return _removable(lists, lists[0][x], lists[0][y]) is not None


def test_removal_test_matches_full_test(corpus):
    # every thread of every graph down the ear sequences, decided on the
    # tables the walk carries; the full test runs on a fresh copy of g - t,
    # so no memo of the removal can answer it
    outcomes = set()
    for label, host in corpus:
        for g in (host, subdivide_every_edge(host)):
            for h, lists in oracles.ear_levels(g):
                for t in threads(h):
                    got = _removal_verdict(lists, t)
                    r = thread_delete(h, t)
                    fresh = Graph(r.vertices, r.edges, r.psi, r.universe)
                    assert got == is_top_3_connected(fresh), (label, t)
                    outcomes.add(got)
    assert outcomes == {False, True}


def _fresh(g):
    """A copy of ``g`` with an empty memo table."""
    return Graph(g.vertices, g.edges, g.psi, g.universe)


def _derived_threads_hold(g, t, lists=None) -> None:
    """Check g - t's threads, derived from g's and g's tables ``lists``
    (g's own by default), against a fresh walk of g - t."""
    derived = _threads_after_delete(lists or _lists(g), t, _threads(g))
    assert derived == _threads(_fresh(thread_delete(g, t))), t


def test_derived_threads_match_a_fresh_walk(corpus):
    # every thread of every graph down the ear sequences of the corpus and
    # of its subdivisions, where removals leave ends of degree 2 to join,
    # with the tables the walk carries
    for label, host in corpus:
        for g in (_fresh(host), subdivide_every_edge(host)):
            for h, lists in oracles.ear_levels(g):
                for t in threads(h):
                    _derived_threads_hold(h, t, lists)


def test_derived_threads_raise_as_the_walk_does():
    # a bridge between two K4s: g - t is disconnected; a theta graph: g - t
    # is a cycle
    bridged = build_graph(8, K4_PAIRS + [(u + 4, v + 4) for u, v in K4_PAIRS] + [(3, 4)])
    theta = build_graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    for g, edges, error in ((bridged, [12], Disconnected), (theta, [0, 1], AllDegreesTwo)):
        t = thread_from_edges(g, edges)
        with pytest.raises(error):
            threads(thread_delete(g, t))


@pytest.mark.parametrize("name", ["k5", "k6"])
def test_derived_threads_ignore_the_thread_orientation(name):
    # t's ends keep degree >= 3, so g - t has exactly one thread fewer
    g = gen_corpus(name)
    for t in threads(g):
        backwards = Thread(t.edges[::-1], t.vertices[::-1])
        assert backwards != t
        _derived_threads_hold(g, t)
        _derived_threads_hold(g, backwards)
        assert len(threads(thread_delete(g, backwards))) == len(threads(g)) - 1


def test_top_3_connected_implies_3_connected_when_no_degree_two(corpus):
    for label, g in corpus:
        if g.simple and all(g.degree(v) >= 3 for v in g.vertices):
            assert is_top_3_connected(g) == is_k_connected(g, 3), label


def test_edge_id_stability(k4):
    z = k4.edge_set([1, 4])
    assert set(delete_edges(k4, z).edges) == set(k4.edges) - {1, 4}
    contracted, _ = contract_edges(k4, z)
    assert set(contracted.edges) <= set(k4.edges) - {1, 4}


def test_fingerprint_stability(k4):
    assert fingerprint(k4) == fingerprint(build_graph(4, K4_PAIRS))
    assert fingerprint(k4) != fingerprint(delete_edges(k4, k4.edge_set([0])))


def test_edge_set_operations():
    x = EdgeSet.from_ids([0, 1], 6)
    y = EdgeSet.from_ids([1, 2], 6)
    assert (x ^ y).ids() == (0, 2)
    assert (x | y).ids() == (0, 1, 2)
    assert (x & y).ids() == (1,)
    assert (x - y).ids() == (0,)
    assert x.issubset(x | y) and not x.issubset(y)
    assert 0 in x and 2 not in x
    with pytest.raises(UniverseMismatch):
        x ^ EdgeSet.from_ids([0], 5)
    with pytest.raises(UniverseMismatch):
        EdgeSet.from_ids([7], 6)
