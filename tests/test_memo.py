import functools
import gc
import inspect
import operator
import tracemalloc

import pytest

from nscycles import (
    Circuit,
    Graph,
    bonds,
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
from nscycles import cocircuits, decomposition, graph_core
from nscycles.circuits import _is_separating_edges
from nscycles.decomposition import _chain, _part, _theta
from nscycles.graph_core import Thread, _incident_bits
from nscycles.errors import NotInNcOfReduced

import oracles


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
    # the terminal is built from the host's vertex set and psi, never with
    # a reference to it; what survives the host is the terminal and the
    # branch graph its full K4 test builds
    before = _graph_count()
    g = subdivide_every_edge(gen_corpus("random3c-12"))
    terminal = ear_sequence(g).terminal
    assert terminal is not g and is_top_k4(terminal)
    for obj in gc.get_objects():
        if isinstance(obj, Graph):
            assert all(inspect.isfunction(key[0]) for key in obj._memo)
    branch = terminal._memo[(graph_core._branch_graph.__wrapped__,)]
    assert branch is not terminal
    del g
    assert _graph_count() == before + 2


def _graphs_reached(root) -> list:
    """The graphs reachable from ``root`` through tuples, lists, sets,
    dicts and threads, not through a graph."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Graph):
            found.append(obj)
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.items())
        elif isinstance(obj, Thread):
            stack.extend(vars(obj).values())
    return found


def _counting_fills(monkeypatch) -> list:
    """The graphs filled from now on, each one built, by ``Graph()`` or
    ``graph_core._subgraph``."""
    built = []
    fill = Graph._fill

    def counting(g, *args):
        built.append(g)
        fill(g, *args)

    monkeypatch.setattr(Graph, "_fill", counting)
    return built


@pytest.mark.parametrize("subdivided", [False, True])
def test_ear_walk_holds_no_graph_but_the_terminal(monkeypatch, subdivided):
    # each level of the walk is its tables: the walk builds one graph, the
    # terminal, from the host, and its steps reach no graph
    g = subdivide_every_edge(gen_corpus("random3c-12")) if subdivided \
        else gen_corpus("random3c-40")
    g = Graph(g.vertices, g.edges, g.psi, g.universe)
    assert is_top_3_connected(g)
    built = _counting_fills(monkeypatch)
    steps, terminal = _chain(g)
    assert len(steps) > 5
    assert built == [terminal]
    assert _graphs_reached(steps) == [] and _graphs_reached((steps, terminal)) == [terminal]
    assert not any(key[0] is thread_delete.__wrapped__ for key in g._memo)
    assert terminal._memo == {}


def test_ear_walk_memory_grows_with_its_tables():
    # the walk keeps per level a thread, its edge bitmask and the level's
    # tables, O(n) pointers on top of the level above; with a graph per
    # level, random3c-512 grew by 24.3 MiB
    g = gen_corpus("random3c-512")
    assert is_top_3_connected(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        steps, _ = _chain(g)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(steps) > 200
    assert grown < 8 * 2**20, grown


@pytest.mark.parametrize("name", ["petersen", "random3c-12", "random3c-10+subdivided"])
def test_only_host_and_terminal_run_the_full_connectivity_test(monkeypatch, name):
    # the walk decides each removal on tables, so a decomposition runs the
    # full 3-connectivity test on the host and on the K4 terminal only
    base, _, subdivided = name.partition("+")
    g = gen_corpus(base)
    g = subdivide_every_edge(g) if subdivided else Graph(g.vertices, g.edges, g.psi, g.universe)
    tested = []
    k_connected = graph_core.is_k_connected

    def counting(h, k):
        tested.append(h)
        return k_connected(h, k)

    monkeypatch.setattr(graph_core, "is_k_connected", counting)
    decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    steps, terminal = _chain(g)
    assert len(steps) > 2
    assert tested == [graph_core._branch(g), graph_core._branch(terminal)]


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
    # level's degrees are its tables' list lengths, so neither the walk nor
    # its terminal sorts an O(m log m) key or counts degrees from psi
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
    assert len(seq.steps) > 10 and seq.terminal is _chain(g)[1]
    assert seq.terminal._key_tuple is None
    assert counted == [g]


def test_ear_sequence_reads_the_chain_the_decomposition_walked(monkeypatch):
    g = subdivide_every_edge(gen_corpus("random3c-16"))
    removals = []
    first_removable = decomposition._first_removable

    def counting(ts, lists):
        removals.append(ts)
        return first_removable(ts, lists)

    monkeypatch.setattr(decomposition, "_first_removable", counting)
    decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    steps, terminal = _chain(g)
    walked = len(removals)
    assert walked == len(steps) > 5
    seq = ear_sequence(g)
    assert len(removals) == walked
    assert [t for _, t in seq.steps] == [t for t, _, _ in steps]
    walk = [h for h, _ in oracles.ear_levels(g)]
    assert [fp for fp, _ in seq.steps] == [fingerprint(h) for h in walk[:-1]]
    assert seq.terminal is terminal
    # each step carries its thread's edge bitmask, and the lifts read each
    # vertex's edge bitmask in the host from _incident_bits
    assert all(tbits == g.edge_set(t.edges).bits for t, tbits, _ in steps)
    at = g._memo[(_incident_bits.__wrapped__,)]
    assert at == {v: g.edge_set(e for e, _ in g.adjacency[v]).bits for v in g.vertices}


def _theta_keys(g) -> list:
    """The (level, thread, avoid) of each theta search kept in g's memo."""
    return [key[1:] for key in g._memo if key[0] is _theta.__wrapped__]


def test_decompose_runs_only_the_first_theta_search():
    # down the reduction chain each step needs one circuit through the
    # removed thread, never a partner of it; each search is kept in the
    # host's memo, keyed on its level
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
            steps, _ = _chain(g)
            keys = _theta_keys(g)
            assert set(keys) <= {(i, t, t.endpoints) for i, (t, _, _) in enumerate(steps)}, keys
            searched += len(keys)
    assert searched > 100
    g = gen_corpus("random3c-12")
    t = threads(g)[0]
    pair = theta_pair(g, t)
    assert set(_theta_keys(g)) == {(0, t, t.endpoints), (0, t, pair.first.vertex_cycle)}


@pytest.mark.parametrize("subdivided", [False, True])
def test_theta_below_the_host_builds_no_graph(monkeypatch, subdivided):
    # the theta searches below the host read the tables the walk keeps and
    # the thread runs _handed_down derives, which an ear sequence alone
    # does not; the one graph a decomposition builds is the terminal's
    # branch graph, for its catalog
    g = subdivide_every_edge(gen_corpus("random3c-12")) if subdivided \
        else gen_corpus("random3c-40")
    g = Graph(g.vertices, g.edges, g.psi, g.universe)
    terminal = ear_sequence(g).terminal
    assert (decomposition._handed_down.__wrapped__,) not in g._memo
    built = _counting_fills(monkeypatch)
    decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    assert max(i for i, _, _ in _theta_keys(g)) > 0
    assert built == [graph_core._branch(terminal)] != [terminal]


def test_decompose_checks_only_its_final_parts():
    # the lifts down the ear sequence and the theta searches run no
    # per-level checks: no separation test is run but on the final parts,
    # each certified once, in the host
    g = subdivide_every_edge(gen_corpus("random3c-12"))
    cert = decompose_cs_element(g, functools.reduce(operator.xor, fundamental_basis(g)))
    steps, terminal = _chain(g)
    assert len(steps) > 5
    assert max(i for i, _, _ in _theta_keys(g)) > 0
    certified = {key[1] for key in g._memo if key[0] is _part.__wrapped__}
    assert certified == {p.edges.bits for p in cert.parts}
    tested = {key[1].bits for key in g._memo if key[0] is _is_separating_edges.__wrapped__}
    assert tested == certified
    assert not any(key[0] is _is_separating_edges.__wrapped__ for key in terminal._memo)
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


def test_verify_all_keeps_bond_masks_and_builds_no_bond(monkeypatch):
    # the cut checks compare and count the bonds as masks; only bonds()
    # builds Bond objects, still in the oracle's order
    g = gen_corpus("random3c-12")

    class NoBond:
        def __init__(self, *args):
            raise AssertionError("a Bond was built")

    with monkeypatch.context() as m:
        m.setattr(cocircuits, "Bond", NoBond)
        checks = {c.name: c.passed for c in verify_graph(g, "random3c-12").checks}
    assert checks["cocircuit_recovery"] and checks["cut_cycle_orthogonality"]
    assert (cocircuits._bond_masks.__wrapped__,) in g._memo
    assert "_bonds" not in {key[0].__name__ for key in g._memo}
    assert [(b.edges.ids(), b.side) for b in bonds(g)] == oracles.bonds_by_bipartition(g)


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
