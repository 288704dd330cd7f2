import functools
import gc
import inspect
import operator

import pytest

from nscycles import (
    Circuit,
    Graph,
    decompose_cs_element,
    ear_sequence,
    find_reducible_thread,
    fingerprint,
    fundamental_basis,
    gen_corpus,
    is_top_3_connected,
    is_top_k4,
    lift_circuit,
    non_separating_circuits,
    subdivide_every_edge,
    suppress_degree_two,
    theta_pair,
    thread_delete,
    threads,
    verify_graph,
)
from nscycles import graph_core
from nscycles.circuits import _is_separating_edges, _thread_runs
from nscycles.decomposition import _chain, _part, _theta
from nscycles.graph_core import _ear_step, _incident_bits
from nscycles.errors import NotInNcOfReduced


def _graph_count() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Graph))


def _liftable(g):
    """A reducible thread of ``g`` and a non-separating circuit of the
    graph without it."""
    t = find_reducible_thread(g)
    return t, non_separating_circuits(thread_delete(g, t)).members[0]


def test_derived_results_die_with_their_graph():
    before = _graph_count()
    g = gen_corpus("random3c-12")
    basis = fundamental_basis(g)
    seq = ear_sequence(g)
    cert = decompose_cs_element(g, basis[0] ^ basis[1])
    assert seq.steps and cert.parts
    assert _graph_count() > before + 1
    del g, basis, seq, cert
    assert _graph_count() == before


def test_ear_terminal_does_not_keep_its_host_alive():
    # g - t is handed threads derived from g's, never g itself; what
    # survives the host is the terminal and the branch graph in its memo
    before = _graph_count()
    g = subdivide_every_edge(gen_corpus("random3c-12"))
    terminal = ear_sequence(g).terminal
    assert terminal is not g
    for obj in gc.get_objects():
        if isinstance(obj, Graph):
            assert all(inspect.isfunction(key[0]) for key in obj._memo)
    branch = terminal._memo[(graph_core._branch_graph.__wrapped__,)]
    assert branch is not terminal
    del g
    assert _graph_count() == before + 2


def test_each_graph_of_an_ear_sequence_holds_only_the_removal_it_made():
    # removals are decided on the branch graph, so the one g - t in a
    # graph's memo is that of the thread removed
    g = subdivide_every_edge(gen_corpus("random3c-12"))
    seq = ear_sequence(g)
    current = g
    for _, t in seq.steps:
        removals = [key for key in current._memo if key[0] is thread_delete.__wrapped__]
        assert removals == [(thread_delete.__wrapped__, t)]
        current = thread_delete(current, t)
    assert current is seq.terminal
    assert not any(key[0] is thread_delete.__wrapped__ for key in current._memo)


@pytest.mark.parametrize("subdivided", [False, True])
def test_ear_sequence_builds_a_branch_graph_only_for_host_and_terminal(subdivided):
    # every removal is decided on index lists carried down the chain; only
    # a host with degree-2 vertices and the K4 terminal build a branch
    # graph, for the full 3-connectivity test
    g = subdivide_every_edge(gen_corpus("random3c-12")) if subdivided \
        else gen_corpus("random3c-40")
    g = Graph(g.vertices, g.edges, g.psi, g.universe)
    seq = ear_sequence(g)
    assert len(seq.steps) > 5
    walk = [g]
    for _, t in seq.steps:
        walk.append(thread_delete(walk[-1], t))
        assert (graph_core._lists.__wrapped__,) in walk[-1]._memo
    assert walk[-1] is seq.terminal
    built = [h for h in walk if (graph_core._branch_graph.__wrapped__,) in h._memo]
    assert built == ([g] if subdivided else []) + [seq.terminal]


@pytest.mark.parametrize("name", ["petersen", "random3c-12", "random3c-10+subdivided"])
def test_only_host_and_terminal_run_the_full_connectivity_test(name):
    # verify-all tests 3-connectivity on its own copies of the g_i, and the
    # decomposition reads no verdict on them, so neither tests it on a
    # graph of the walk between the host and the terminal
    base, _, subdivided = name.partition("+")
    g = gen_corpus(base)
    g = subdivide_every_edge(g) if subdivided else g
    checks = {c.name: c.passed for c in verify_graph(g, name).checks}
    assert checks["decomposition_replay"] and checks["path_chord_split_lifting"]
    steps, terminal = _chain(g)
    assert len(steps) > 2

    def tested(h):
        branch = h._memo.get((graph_core._branch_graph.__wrapped__,))
        return any(key[0] is graph_core.is_k_connected.__wrapped__
                   for x in (h, branch) if x is not None for key in x._memo)

    assert tested(g) and tested(terminal)
    assert not any(tested(level) for _, _, level in steps[:-1])


@pytest.mark.parametrize("subdivided", [False, True])
def test_host_lists_are_its_branch_graph_index_lists(corpus, subdivided):
    for label, host in corpus:
        g = subdivide_every_edge(host) if subdivided else host
        if not is_top_3_connected(g):
            continue
        h = graph_core._branch(g)
        assert (h is g) is not subdivided, label
        assert graph_core._lists(g) == (*graph_core._index(h), graph_core._masks(h), ()), label


@pytest.mark.parametrize("subdivided", [False, True])
def test_no_graph_below_the_host_sorts_its_key_or_counts_degrees(monkeypatch, subdivided):
    # each step's fingerprint is joined from the host's reprs and each
    # g - t is handed its degree table, so no step sorts its O(m log m) key
    # or rebuilds degrees from psi
    counted = []
    degree = Graph.degree

    def counting(g, v):
        if g._deg is None:
            counted.append(g)
        return degree(g, v)

    monkeypatch.setattr(Graph, "degree", counting)
    g = subdivide_every_edge(gen_corpus("random3c-30")) if subdivided \
        else gen_corpus("random3c-40")
    seq = ear_sequence(g)
    below = [reduced for _, _, reduced in _chain(g)[0]]
    assert len(below) > 10 and below[-1] is seq.terminal
    assert all(h._key_tuple is None for h in below)
    assert counted == [g]


def test_ear_sequence_reads_the_chain_the_decomposition_walked():
    g = subdivide_every_edge(gen_corpus("random3c-16"))
    decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    steps, terminal = _chain(g)
    walk = [g, *(reduced for _, _, reduced in steps)]

    def reductions():
        return sum(key[0] is _ear_step.__wrapped__ for h in walk for key in h._memo)

    walked = reductions()
    assert walked == len(steps) > 5
    seq = ear_sequence(g)
    assert reductions() == walked
    assert [t for _, t in seq.steps] == [t for t, _, _ in steps]
    assert [fp for fp, _ in seq.steps] == [fingerprint(h) for h in walk[:-1]]
    assert seq.terminal is terminal
    # each step carries its thread's edge bitmask, and the lifts read each
    # vertex's edge bitmask in the host from _incident_bits
    assert all(tbits == g.edge_set(t.edges).bits for t, tbits, _ in steps)
    at = g._memo[(_incident_bits.__wrapped__,)]
    assert at == {v: g.edge_set(e for e, _ in g.adjacency[v]).bits for v in g.vertices}


def test_decompose_runs_only_the_first_theta_search():
    # down the reduction chain each step needs one circuit through the
    # removed thread, never a partner of it
    searched = 0
    for n in range(8, 21):
        host = gen_corpus(f"random3c-{n}")
        for g in (host, subdivide_every_edge(host)):
            basis = fundamental_basis(g)
            total = basis[0]
            for row in basis:
                decompose_cs_element(g, row)
                total = total ^ row
            decompose_cs_element(g, total)
            current = g
            while not is_top_k4(current):
                t, reduced = _ear_step(current)
                keys = [key for key in current._memo if key[0] is _theta.__wrapped__]
                assert all(key[1:] == (t, t.endpoints) for key in keys), keys
                searched += len(keys)
                current = reduced
    assert searched > 100
    g = gen_corpus("random3c-12")
    t = threads(g)[0]
    pair = theta_pair(g, t)
    keys = {key[1:] for key in g._memo if key[0] is _theta.__wrapped__}
    assert keys == {(t, t.endpoints), (t, pair.first.vertex_cycle)}


@pytest.mark.parametrize("subdivided", [False, True])
def test_theta_below_the_host_builds_no_branch_graph(subdivided):
    # the theta searches below the host read the lists, thread runs and
    # neighbor masks the decomposition's walk hands down, so no level
    # between the host and the terminal builds a branch graph or a vertex
    # index; the walk is the decomposition's, so an ear sequence alone
    # hands no thread runs down
    g = subdivide_every_edge(gen_corpus("random3c-12")) if subdivided \
        else gen_corpus("random3c-40")
    g = Graph(g.vertices, g.edges, g.psi, g.universe)
    ear_sequence(g)
    below = [level for _, _, level in _chain(g)[0]]
    assert len(below) > 5
    assert not any((_thread_runs.__wrapped__,) in level._memo for level in below)
    decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    searched = 0
    for level in below[:-1]:
        searched += sum(1 for key in level._memo if key[0] is _theta.__wrapped__)
        for fn in (graph_core._branch_graph, graph_core._index, graph_core._masks):
            assert (fn.__wrapped__,) not in level._memo, (fn.__name__, fingerprint(level))
    assert searched > 0


def test_decompose_checks_only_its_final_parts():
    # the lifts down the ear sequence and the theta searches run no
    # per-level checks: below the host no separation test is run; each
    # final part is certified once, in the host
    g = subdivide_every_edge(gen_corpus("random3c-12"))
    cert = decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    steps, _ = _chain(g)
    assert len(steps) > 5
    searched = 0
    for _, _, level in steps:
        searched += sum(1 for key in level._memo if key[0] is _theta.__wrapped__)
        tested = [key for key in level._memo if key[0] is _is_separating_edges.__wrapped__]
        assert not tested, fingerprint(level)
    assert searched > 0
    certified = {key[1] for key in g._memo if key[0] is _part.__wrapped__}
    assert certified == {p.edges.bits for p in cert.parts}
    assert fingerprint(g) is cert.host_fingerprint


def test_lift_theta_and_branch_graph_memos_die_with_their_graph():
    before = _graph_count()
    g = gen_corpus("random3c-12")
    t, q = _liftable(g)
    assert lift_circuit(g, t, q)
    assert theta_pair(g, threads(g)[0]).first
    h, _ = suppress_degree_two(g)
    assert suppress_degree_two(g)[0] is h
    assert {"thread_delete", "_is_separating_edges", "_theta", "_branch_graph"} <= {
        key[0].__name__ for key in g._memo}
    del g, t, q, h
    assert _graph_count() == before


def test_mutating_a_lift_leaves_the_memo_intact():
    g = gen_corpus("k5")
    t, q = _liftable(g)
    lifted = lift_circuit(g, t, q)
    expected = list(lifted)
    lifted.clear()
    assert lift_circuit(g, t, q) == expected


def test_lift_rejects_a_mismatched_vertex_cycle_after_a_valid_one():
    g = gen_corpus("k5")
    t, q = _liftable(g)
    lift_circuit(g, t, q)
    # the same edges with the cycle read backwards from its second vertex
    bogus = Circuit(q.edges, q.vertex_cycle[1::-1] + q.vertex_cycle[:1:-1])
    assert bogus.vertex_cycle != q.vertex_cycle
    with pytest.raises(NotInNcOfReduced):
        lift_circuit(g, t, bogus)
