import functools
import hashlib
import operator
import random
import sys

import pytest

from nscycles import (
    EdgeSet,
    Graph,
    build_graph,
    circuit_from_edges,
    count_threads,
    decompose_circuit,
    decompose_cs_element,
    ear_sequence,
    enumerate_circuits,
    find_reducible_thread,
    fingerprint,
    fundamental_basis,
    gen_corpus,
    is_path_chord,
    is_separating,
    is_top_3_connected,
    is_top_k4,
    lift_circuit,
    non_separating_circuits,
    split_on_path_chord,
    subdivide_every_edge,
    theta_pair,
    thread_delete,
    thread_from_edges,
    threads,
)
from nscycles import circuits, decomposition, graph_core
from nscycles.errors import IsTopK4, NotInNcOfReduced, NotTop3Connected, VerificationFailed
from nscycles.graph_core import _incident_bits, _key_digest

import oracles
from conftest import CORPUS_NAMES


def test_count_threads(k4, k5):
    from nscycles import build_graph
    assert count_threads(k4) == 6
    assert count_threads(k5) == 10
    assert count_threads(subdivide_every_edge(k4)) == 6
    with pytest.raises(NotTop3Connected):
        count_threads(build_graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_six_threads_characterize_top_k4(corpus):
    for label, g in corpus:
        assert (count_threads(g) == 6) == is_top_k4(g), label


def test_find_reducible_thread_k4_is_base_case(k4):
    with pytest.raises(IsTopK4):
        find_reducible_thread(k4)


def test_find_reducible_thread_k5(k5):
    t = find_reducible_thread(k5)
    assert is_top_3_connected(thread_delete(k5, t))
    # oracle: deleting any single edge of K5 leaves a 3-connected graph,
    # so the lexicographically first thread must be returned
    assert t.edges == (0,)


def test_find_reducible_thread_w5():
    w5 = gen_corpus("wheel-5")
    t = find_reducible_thread(w5)
    assert is_top_3_connected(thread_delete(w5, t))


def test_ear_sequence_base_case(k4):
    seq = ear_sequence(k4)
    assert seq.steps == ()
    assert seq.terminal == k4


def test_ear_sequence_replay(k5, prism):
    # replayed on copies, each built from the last and the step's thread,
    # so no fingerprint or graph is read from the walk's memo tables
    for g in (k5, prism):
        seq = ear_sequence(g)
        current = Graph(g.vertices, g.edges, g.psi, g.universe)
        sizes = [len(current.edges)]
        for fp, t in seq.steps:
            assert fp == fingerprint(current)
            assert is_top_3_connected(current)
            current = thread_delete(current, t)
            sizes.append(len(current.edges))
        assert current == seq.terminal
        assert is_top_k4(seq.terminal)
        assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)


def _relabelled(g, seed: int):
    """``g`` rebuilt by build_graph with its vertex and edge ids permuted."""
    rng = random.Random(seed)
    vertices = sorted(g.vertices)
    new = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    order = rng.sample(sorted(g.edges), len(g.edges))
    return build_graph(len(vertices), [(new[u], new[v]) for u, v in map(g.psi.get, order)])


def test_ear_steps_match_fresh_copies(corpus):
    # each g_i below the host is handed its degree table and threads, and
    # each step's fingerprint is joined from the host's reprs: all must be
    # what a copy of g_i with an empty memo computes
    hosts = [h for _, g in corpus for h in (g, subdivide_every_edge(g))]
    hosts += [_relabelled(gen_corpus(f"random3c-{n}"), seed)
              for n in (16, 24, 32) for seed in (1, 2)]
    walked = 0
    for host in hosts:
        g = Graph(host.vertices, host.edges, host.psi, host.universe)
        seq = ear_sequence(g)
        steps, terminal = decomposition._chain(g)
        below = [reduced for _, _, reduced in steps]
        assert [t for _, t in seq.steps] == [t for t, _, _ in steps]
        for (fp, _), h in zip(seq.steps, [g, *below]):
            assert fp == fingerprint(Graph(h.vertices, h.edges, h.psi, h.universe))
        for h in below:
            fresh = Graph(h.vertices, h.edges, h.psi, h.universe)
            assert h._deg == {v: fresh.degree(v) for v in fresh.vertices}
            assert h._memo[(graph_core._threads.__wrapped__,)] == graph_core._threads(fresh)
        walked += len(below)
    assert walked > 300


def _flooded(g) -> dict:
    """The branch graph of ``g`` as the masks of :func:`graph_core._lists`
    give it, read back to vertex labels: each vertex not suppressed -> its
    neighbors."""
    index, _, masks, suppressed = graph_core._lists(g)
    vertex = list(index)
    return {vertex[i]: {vertex[j] for j in range(len(vertex)) if masks[i] >> j & 1}
            for i in range(len(vertex)) if i not in suppressed}


def test_theta_tables_handed_down_match_fresh_builds(corpus):
    # the decomposition's walk hands each g_i below the host its thread
    # runs, and the ear step its neighbor lists and masks, derived from the
    # graph above: each must be what g_i's own lists give, and what a copy
    # of g_i with an empty memo builds, including at steps that suppress
    # both ends of the thread
    hosts = [h for _, g in corpus for h in (g, subdivide_every_edge(g))]
    hosts += [_relabelled(gen_corpus(f"random3c-{n}"), seed)
              for n in (16, 24, 32) for seed in (1, 2)]
    runs = circuits._thread_runs
    walked = both_suppressed = 0
    for host in hosts:
        g = Graph(host.vertices, host.edges, host.psi, host.universe)
        decompose_cs_element(g, fundamental_basis(g)[0])
        steps, _ = decomposition._chain(g)
        level = g
        for _, _, h in steps:
            fresh = Graph(h.vertices, h.edges, h.psi, h.universe)
            assert h._memo[(runs.__wrapped__,)] == runs(fresh)
            _, nbrs, masks, _ = graph_core._lists(h)
            assert masks == [sum({1 << j for j in row}) for row in nbrs]
            assert _flooded(h) == _flooded(fresh)
            both_suppressed += len(graph_core._lists(h)[3]) - len(graph_core._lists(level)[3]) == 2
            level = h
        walked += len(steps)
    assert walked > 300 and both_suppressed > 20


def test_key_digest_writes_one_element_tuples_as_repr_does(k4):
    for g in (build_graph(1, []), build_graph(2, [(0, 1)]), build_graph(3, [(2, 1)]), k4):
        vertices = [repr(v) for v in sorted(g.vertices)]
        triples = [repr((e, *g.psi[e])) for e in sorted(g.edges)]
        assert _key_digest(vertices, triples, g.universe) == fingerprint(g), g


def test_ear_sequence_subdivided(petersen):
    seq = ear_sequence(subdivide_every_edge(petersen))
    assert is_top_k4(seq.terminal)
    assert len(seq.steps) > 0


def test_theta_k4(k4):
    pair = theta_pair(k4, thread_from_edges(k4, [0]))
    assert {pair.first.edges.ids(), pair.second.edges.ids()} == {(0, 1, 3), (0, 2, 4)}


def test_theta_w4_spoke(w4):
    # spokes are edges 4..7; the two triangles sharing a spoke are forced
    pair = theta_pair(w4, thread_from_edges(w4, [4]))
    shared = pair.first.edges & pair.second.edges
    assert shared.ids() == (4,)
    assert len(pair.first) == 3 and len(pair.second) == 3


def test_theta_matches_brute_force_search(k4, w4, petersen):
    for g in (k4, w4, petersen):
        nc = non_separating_circuits(g)
        for t in threads(g)[:6]:
            pair = theta_pair(g, t)
            tset = g.edge_set(t.edges)
            assert pair.first.edges & pair.second.edges == tset
            assert set(pair.first.vertex_cycle) & set(pair.second.vertex_cycle) == set(t.vertices)
            assert not is_separating(g, pair.first)
            assert not is_separating(g, pair.second)
            assert oracles.theta_pairs_by_search(nc.members, t.edges, t.vertices)


def test_theta_pair_matches_catalog_filter_across_the_corpus(corpus):
    hosts = [host for _, g in corpus for host in (g, subdivide_every_edge(g))]
    hosts += [gen_corpus(f"random3c-{n}", 0) for n in range(14, 29, 2)]
    # the graphs down an ear sequence have threads of different lengths, so
    # the search's bound weighs branch-graph edges unevenly, as uniform
    # subdivision does not
    for n in (16, 20, 24):
        g = gen_corpus(f"random3c-{n}", 0)
        for _, t in ear_sequence(g).steps:
            g = thread_delete(g, t)
            hosts.append(g)
    for g in hosts:
        catalog = non_separating_circuits(g)
        for t in threads(g):
            pair = theta_pair(g, t)
            expected = oracles.theta_by_catalog(g, t, catalog)
            assert (pair.first.edges.ids(), pair.second.edges.ids()) == expected, t.edges


def test_theta_pair_on_every_thread_of_random3c_80():
    # an unbounded search for the lexicographically first circuit with a
    # partner took 13-19 s on each of threads 49, 97 and 98 here
    g = gen_corpus("random3c-80", 0)
    for t in threads(g):
        pair = theta_pair(g, t)
        assert (pair.first.edges & pair.second.edges).ids() == tuple(sorted(t.edges))
        assert set(pair.first.vertex_cycle) & set(pair.second.vertex_cycle) == set(t.vertices)
        for c in (pair.first, pair.second):
            assert not oracles.separating_by_block_count(g, c.edges.ids()), t.edges


def test_theta_on_a_thread_deeper_than_the_recursion_limit():
    # a rim edge's second circuit is the whole 600-edge rim, grown as a
    # 599-edge path
    g = gen_corpus("wheel-600")
    limit = sys.getrecursionlimit()
    assert len(g.edges) > limit
    pair = theta_pair(g, thread_from_edges(g, [0]))
    assert pair.first.edges.ids() == (0, 600, 601)
    assert pair.second.edges.ids() == tuple(range(600))
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("name", ["random3c-28", "random3c-40"])
def test_theta_and_decompose_past_the_enumeration_cap(name):
    # both graphs have more circuits than the default cap of 100,000
    g = gen_corpus(name, 0)
    t = threads(g)[0]
    pair = theta_pair(g, t)
    assert (pair.first.edges & pair.second.edges).ids() == tuple(sorted(t.edges))
    target = EdgeSet.empty(g.universe)
    for row in fundamental_basis(g):
        target = target ^ row
    cert = decompose_cs_element(g, target)
    assert cert.replay() == target
    for part in (pair.first, pair.second, *cert.parts):
        assert oracles.is_circuit_edge_set(g, part.edges.ids())
        assert not oracles.separating_by_block_count(g, part.edges.ids())


def test_theta_petersen_edge_gives_two_pentagons(petersen):
    pair = theta_pair(petersen, thread_from_edges(petersen, [0]))
    assert len(pair.first) == 5 and len(pair.second) == 5
    assert (pair.first.edges & pair.second.edges).ids() == (0,)


def test_lift_untouched_circuit(k5):
    t = find_reducible_thread(k5)
    reduced = thread_delete(k5, t)
    q = next(
        c for c in non_separating_circuits(reduced).members
        if set(t.endpoints) - set(c.vertex_cycle)
    )
    assert lift_circuit(k5, t, q) == [q]


def test_lift_splits_on_path_chord():
    # square 0-1-2-3 plus chords from a fifth vertex: wheel-4 rim vs spoke
    w4 = gen_corpus("wheel-4")
    t = thread_from_edges(w4, [4])  # spoke (0,1)
    reduced = thread_delete(w4, t)
    target = next(
        c for c in non_separating_circuits(reduced).members
        if set(t.endpoints) <= set(c.vertex_cycle) and c.edges.isdisjoint(w4.edge_set(t.edges))
    )
    lifted = lift_circuit(w4, t, target)
    assert len(lifted) == 2
    total = lifted[0].edges ^ lifted[1].edges
    assert total == target.edges
    for c in lifted:
        assert not is_separating(w4, c)


def test_lift_rejects_circuits_outside_reduced_nc(k5):
    t = find_reducible_thread(k5)
    # a circuit through the removed edge is not a circuit of the reduced graph
    bad = circuit_from_edges(k5, [0, 1, 4])
    with pytest.raises(NotInNcOfReduced):
        lift_circuit(k5, t, bad)


@pytest.mark.parametrize("name,seed", [(name, 0) for name in CORPUS_NAMES] + [
    (f"random3c-{n}", seed) for n in range(8, 15) for seed in range(3)])
def test_lift_splits_exactly_the_circuits_through_both_thread_ends(name, seed):
    # a circuit q of g - t meets t at most in its ends, so t path-chords q
    # iff q passes both of them; the split, as split_on_path_chord, the
    # decomposition's lift and lift_circuit take it, is the two circuits of
    # q + t other than q, found by the brute-force oracle
    host = gen_corpus(name, seed)
    steps, _ = decomposition._chain(host)
    at = _incident_bits(host)
    g = host
    for t, tbits, reduced in steps:
        for q in non_separating_circuits(reduced).members:
            halves = oracles.split_by_enumeration(g, q.edges.ids(), t.edges)
            chord = set(t.endpoints) <= set(q.vertex_cycle)
            assert chord == is_path_chord(g, q, t) == bool(halves)
            lifted = decomposition._lift_bits(host, at, t, tbits, q.edges.bits)
            assert len(lifted) == (2 if chord else 1)
            assert {frozenset(EdgeSet(b, g.universe).ids()) for b in lifted} == \
                (halves or {frozenset(q.edges.ids())})
            expected = [q]
            if chord:
                expected = list(split_on_path_chord(g, q, t))
                assert {frozenset(c.edges.ids()) for c in expected} == halves
                assert q.edges.ids()[0] in expected[0].edges
            assert lift_circuit(g, t, q) == expected
        g = reduced


def test_decompose_triangle_is_itself(k4):
    triangle = circuit_from_edges(k4, [0, 1, 3])
    cert = decompose_circuit(k4, triangle)
    assert [p.edges.ids() for p in cert.parts] == [(0, 1, 3)]
    assert cert.host_fingerprint == fingerprint(k4)


def test_decompose_four_cycle_into_two_triangles(k4):
    quad = circuit_from_edges(k4, [0, 2, 3, 5])
    cert = decompose_circuit(k4, quad)
    assert [p.edges.ids() for p in cert.parts] == [(0, 1, 3), (1, 2, 5)]
    replayed = cert.replay()
    assert replayed == quad.edges


def test_decompose_petersen_nine_cycle(petersen):
    nine = next(c for c in enumerate_circuits(petersen) if len(c) == 9)
    cert = decompose_circuit(petersen, nine)
    assert cert.replay() == nine.edges
    nc_edge_sets = {c.edges for c in non_separating_circuits(petersen)}
    assert all(p.edges in nc_edge_sets for p in cert.parts)


def test_decompose_every_circuit_of_k5(k5):
    nc_edge_sets = {c.edges for c in non_separating_circuits(k5)}
    for c in enumerate_circuits(k5):
        cert = decompose_circuit(k5, c)
        assert cert.replay() == c.edges
        assert all(p.edges in nc_edge_sets for p in cert.parts)


def test_decompose_on_subdivided_hosts(prism):
    # multi-edge threads drive every branch: theta with long threads,
    # path-chord splits carrying whole threads, and lifting
    g = subdivide_every_edge(prism)
    nc_edge_sets = {c.edges for c in non_separating_circuits(g)}
    for c in enumerate_circuits(g):
        cert = decompose_circuit(g, c)
        assert cert.replay() == c.edges
        assert all(p.edges in nc_edge_sets for p in cert.parts)


def test_decompose_cs_element(prism):
    empty = decompose_cs_element(prism, prism.edge_set([]))
    assert empty.parts == ()
    triangle = prism.edge_set([0, 1, 2])
    assert decompose_cs_element(prism, triangle).parts == \
        decompose_circuit(prism, circuit_from_edges(prism, [0, 1, 2])).parts
    both = prism.edge_set([0, 1, 2, 3, 4, 5])
    cert = decompose_cs_element(prism, both)
    assert cert.replay() == both
    assert all(not is_separating(prism, p) for p in cert.parts)


def test_decompose_deeper_than_the_recursion_limit():
    # the rim's ear sequence has 497 steps; a recursive evaluation, a few
    # frames per step, overflowed the stack from wheel-495 on
    g = gen_corpus("wheel-500")
    limit = sys.getrecursionlimit()
    assert len(ear_sequence(g).steps) == 497
    rim = g.edge_set(range(500))
    cert = decompose_cs_element(g, rim)
    assert cert.replay() == rim
    for part in cert.parts:
        assert not oracles.separating_by_block_count(g, part.edges.ids())
    assert sys.getrecursionlimit() == limit


def test_decomposition_matches_peeling_oracle():
    # the fundamental rows and random combinations of them, on named,
    # random and subdivided hosts; the walk down and back up the ear
    # sequence must give the parts of a circuit-by-circuit evaluation
    hosts = [gen_corpus(name) for name in (
        "k4", "k5", "k6", "k33", "wheel-4", "wheel-7", "prism", "petersen")]
    hosts += [gen_corpus(f"random3c-{n}", seed) for n in range(8, 31, 2) for seed in range(3)]
    hosts += [subdivide_every_edge(gen_corpus(f"random3c-{n}", 0)) for n in range(8, 31, 2)]
    for g in hosts:
        basis = fundamental_basis(g)
        rng = random.Random(fingerprint(g))
        targets = list(basis)
        for _ in range(20):
            x = EdgeSet.empty(g.universe)
            for row in basis:
                if rng.random() < 0.5:
                    x = x ^ row
            targets.append(x)
        for x in targets:
            parts = [(c.edges.ids(), c.vertex_cycle) for c in decompose_cs_element(g, x).parts]
            assert parts == oracles.decompose_by_peeling(g, x), (fingerprint(g), x.ids())


def test_decomposition_matches_peeling_oracle_on_long_ear_sequences():
    # the oracle lifts through lift_circuit, with every per-level check
    for n in range(60, 121, 20):
        g = gen_corpus(f"random3c-{n}", 0)
        x = functools.reduce(operator.xor, fundamental_basis(g))
        parts = [(c.edges.ids(), c.vertex_cycle) for c in decompose_cs_element(g, x).parts]
        assert parts == oracles.decompose_by_peeling(g, x), n


def _targets(g, count: int) -> list:
    """Up to ``count`` distinct nonempty cycle-space members of ``g``: its
    fundamental rows and their XOR, then seeded random XORs of the rows."""
    basis = fundamental_basis(g)
    targets = list(dict.fromkeys(basis + [functools.reduce(operator.xor, basis)]))[:count]
    rng = random.Random(fingerprint(g))
    for _ in range(4 * count):
        if len(targets) == count:
            break
        x = EdgeSet.empty(g.universe)
        for row in basis:
            if rng.random() < 0.5:
                x = x ^ row
        if x and x not in targets:
            targets.append(x)
    return targets


def test_warm_decomposition_equals_cold():
    # the lifts a host keeps for later targets give the parts that a fresh
    # copy of the host, with an empty memo table, gives each target alone
    hosts = [gen_corpus(name) for name in CORPUS_NAMES]
    hosts += [gen_corpus(f"random3c-{n}", seed) for n in range(8, 21) for seed in range(3)]
    checked = 0
    for host in hosts:
        for g in (host, subdivide_every_edge(host)):
            for x in _targets(g, 24):
                warm = decompose_cs_element(g, x)
                cold = decompose_cs_element(Graph(g.vertices, g.edges, g.psi, g.universe), x)
                assert warm == cold, (fingerprint(g), x.ids())
                checked += 1
    assert checked > 2000


def test_a_repeated_target_lifts_nothing(monkeypatch):
    # each p and terminal member is lifted to the host once; a target seen
    # before only sums the lifts kept in the host's memo table
    g = subdivide_every_edge(gen_corpus("random3c-16"))
    lift = decomposition._lift_bits
    calls = []

    def counting(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(decomposition, "_lift_bits", counting)
    x = functools.reduce(operator.xor, fundamental_basis(g))
    first = decompose_cs_element(g, x)
    assert calls
    calls.clear()
    assert decompose_cs_element(g, x) == first
    assert calls == []
    steps, _ = decomposition._chain(g)
    for y in _targets(g, 24):
        decompose_cs_element(g, y)
    kept = [value for key, value in g._memo.items() if key[0] is decomposition._lifted.__wrapped__]
    assert len(kept) <= len(steps) + 4
    assert all(isinstance(part, int) for parts in kept for part in parts)


def test_theta_tail_step_of_random3c_150_tests_few_paths(monkeypatch):
    # the search deepens its limit from the least bound, so it tests no
    # path much longer than the one it returns: at ear step 35 the search
    # that started at no limit tested 63,658 paths before it was done
    g = gen_corpus("random3c-150")
    steps, _ = decomposition._chain(g)
    separates = decomposition._separates
    tested = []

    def counting(*args):
        tested.append(args)
        return separates(*args)

    monkeypatch.setattr(decomposition, "_separates", counting)
    level, counts = g, []
    for t, _, reduced in steps:
        tested.clear()
        decomposition._theta(level, t, t.endpoints)
        counts.append(len(tested))
        level = reduced
    assert len(counts) == 75
    assert min(counts) >= 1 and max(counts) <= 16


@pytest.mark.parametrize("fault,message", [("unsplit", "separating"), ("merged", "not a circuit")])
def test_decompose_certifies_each_final_part(monkeypatch, fault, message):
    # a lift at the host's own ear step that keeps a part the thread
    # path-chords, or joins its two halves with the thread, is caught only
    # by the final check of each part
    g = gen_corpus("prism")
    top = ear_sequence(g).steps[0][1]
    lift = decomposition._lift_bits
    faults = []

    def faulty(host, at, t, tbits, q):
        halves = lift(host, at, t, tbits, q)
        if t != top or len(halves) == 1:
            return halves
        faults.append(q)
        return (q,) if fault == "unsplit" else (q | tbits,)

    monkeypatch.setattr(decomposition, "_lift_bits", faulty)
    with pytest.raises(VerificationFailed, match=message):
        decompose_cs_element(g, g.edge_set([0, 1, 3, 4, 6, 8]))
    assert faults


def test_decompose_requires_top_3_connected():
    from nscycles import build_graph
    square = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotTop3Connected):
        decompose_cs_element(square, square.full_edge_set())


def test_theta_rejects_non_threads(k4):
    from nscycles import Thread
    from nscycles.errors import NotAThread
    bogus = Thread(edges=(0, 5), vertices=(0, 1, 2))
    with pytest.raises(NotAThread):
        theta_pair(k4, bogus)


def test_theta_ignores_the_thread_orientation():
    # a Thread walked from its other end is still a valid thread
    from nscycles import Thread
    hosts = [gen_corpus(name) for name in ("k4", "prism", "petersen", "random3c-12")]
    hosts.append(subdivide_every_edge(gen_corpus("wheel-5")))
    for g in hosts:
        for t in threads(g):
            flipped = Thread(t.edges[::-1], t.vertices[::-1])
            pair, flipped_pair = theta_pair(g, t), theta_pair(g, flipped)
            assert (flipped_pair.first, flipped_pair.second) == (pair.first, pair.second)


def test_decompose_rejects_non_circuits(k4):
    from nscycles import Circuit
    from nscycles.errors import NotACircuit
    bogus = Circuit(k4.edge_set([0, 1]), (0, 1, 2))
    with pytest.raises(NotACircuit):
        decompose_circuit(k4, bogus)


# sha256 of one line "thread first second" (edge id lists) per thread of
# THETA_GRAPHS, recorded when first became the shortest non-separating
# circuit through the thread.
THETA_SELECTION_SHA256 = "1107cec9c50033a463887adf95522ea2fe51c644bf894faad4671e72ead892b6"
THETA_GRAPHS = (
    [gen_corpus(name) for name in (
        "k4", "k5", "k6", "k33", "wheel-4", "wheel-5", "wheel-6", "wheel-7",
        "prism", "petersen")]
    + [gen_corpus(f"random3c-{n}", 0) for n in range(8, 13)]
    + [subdivide_every_edge(gen_corpus(name)) for name in ("k4", "prism", "wheel-5")]
)


def test_theta_selection_is_pinned():
    lines = []
    for g in THETA_GRAPHS:
        for t in threads(g):
            pair = theta_pair(g, t)
            lines.append(
                f"{list(t.edges)} {list(pair.first.edges.ids())} {list(pair.second.edges.ids())}")
    assert len(lines) == 221
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == THETA_SELECTION_SHA256


# sha256 of one line of thread edges per step of the ear sequence of each of
# EAR_GRAPHS, then one line with the terminal's fingerprint; recorded before
# the threads of g - t were derived from g's.
EAR_SEQUENCE_SHA256 = "d9382ff6c6be4e4db28270e3ace8284e3318068750f01b6f9a9cdc6e5306a33f"
EAR_GRAPHS = (
    [subdivide_every_edge(gen_corpus(name)) for name in (
        "k4", "k5", "k6", "k33", "wheel-4", "wheel-5", "wheel-6", "wheel-7",
        "prism", "petersen")]
    + [subdivide_every_edge(gen_corpus(f"random3c-{n}", seed))
       for n in (20, 30, 40) for seed in range(3)]
)


def test_ear_sequences_on_subdivided_hosts_are_pinned():
    # every edge subdivided, so removals leave ends of degree 2 whose
    # threads merge
    lines = []
    for g in EAR_GRAPHS:
        seq = ear_sequence(g)
        lines.extend(f"{list(t.edges)}" for _, t in seq.steps)
        lines.append(fingerprint(seq.terminal))
    assert len(lines) == 180
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EAR_SEQUENCE_SHA256
