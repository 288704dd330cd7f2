"""Property-based checks of the structural invariants."""

from hypothesis import assume, given, settings, strategies as st

from nscycles import (
    EdgeSet,
    Gf2Matrix,
    blocks,
    bonds,
    build_graph,
    circuit_from_edges,
    contract_edges,
    cyclomatic_number,
    decompose_cs_element,
    delete_edges,
    enumerate_circuits,
    even_subgraph_to_circuits,
    express_in_span,
    fundamental_basis,
    gen_corpus,
    gf2_rank,
    is_connected,
    is_cycle_space_member,
    is_k_connected,
    is_path_chord,
    is_separating,
    is_top_3_connected,
    minimal_cut_candidates,
    non_separating_circuits,
    split_on_path_chord,
    sym_diff,
    theta_pair,
    thread_delete,
    thread_from_edges,
    threads,
)
from nscycles.decomposition import _precedes
from nscycles.graph_core import Graph, _branch_graph, _removable
from nscycles.errors import AllDegreesTwo, NotInSpan

import oracles


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=7):
    n = draw(st.integers(min_vertices, max_vertices))
    tree = []
    for v in range(1, n):
        tree.append((draw(st.integers(0, v - 1)), v))
    tree_pairs = {(min(u, v), max(u, v)) for u, v in tree}
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (u, v) not in tree_pairs
    ]
    extras = draw(
        st.sets(st.sampled_from(candidates)) if candidates else st.just(set())
    )
    pairs = sorted(tree_pairs | extras)
    return build_graph(n, pairs)


@st.composite
def simple_graphs(draw):
    """Any simple graph on 1..9 vertices, connected or not."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, [p for p in pairs if draw(st.booleans())])


@st.composite
def contracted_graphs(draw):
    """Contraction images of simple graphs: loops and parallel edges."""
    g = draw(simple_graphs())
    ids = [e for e in sorted(g.edges) if draw(st.booleans())]
    return contract_edges(g, g.edge_set(ids))[0]


@st.composite
def graph_with_edge_set(draw):
    g = draw(connected_graphs())
    ids = [e for e in sorted(g.edges) if draw(st.booleans())]
    return g, g.edge_set(ids)


@given(graph_with_edge_set(), graph_with_edge_set())
def test_sym_diff_group_laws(gx, gy):
    g, x = gx
    _, y0 = gy
    y = EdgeSet(y0.bits & ((1 << x.universe) - 1), x.universe)
    assert sym_diff(x, x) == EdgeSet.empty(x.universe)
    assert sym_diff(x, EdgeSet.empty(x.universe)) == x
    assert sym_diff(x, y) == sym_diff(y, x)


@given(st.lists(st.booleans(), min_size=1, max_size=70), st.randoms())
def test_lowest_differing_bit_orders_equal_sizes_by_sorted_ids(flags, rng):
    # two distinct masks of one popcount: the one holding the lowest bit
    # where they differ has the smaller tuple of sorted ids
    a = sum(1 << i for i, f in enumerate(flags) if f)
    shuffled = rng.sample(flags, len(flags))
    b = sum(1 << i for i, f in enumerate(shuffled) if f)
    assume(a != b)
    x, y = EdgeSet(a, len(flags)), EdgeSet(b, len(flags))
    assert _precedes(a, b) == (x.ids() < y.ids())
    assert _precedes(a, b) != _precedes(b, a)


@given(connected_graphs(), st.data())
def test_cycle_space_closed_under_sym_diff(g, data):
    basis = fundamental_basis(g)
    pick = lambda: [row for row in basis if data.draw(st.booleans())]
    x = EdgeSet.empty(g.universe)
    for row in pick():
        x = x ^ row
    y = EdgeSet.empty(g.universe)
    for row in pick():
        y = y ^ row
    assert is_cycle_space_member(g, x)
    assert is_cycle_space_member(g, y)
    assert is_cycle_space_member(g, sym_diff(x, y))


@given(connected_graphs())
def test_basis_rank_is_cyclomatic(g):
    basis = fundamental_basis(g)
    assert len(basis) == cyclomatic_number(g)
    assert gf2_rank(Gf2Matrix.from_rows(basis, g.universe)) == len(basis)
    assert all(is_cycle_space_member(g, row) for row in basis)


@given(graph_with_edge_set())
def test_express_agrees_with_rank_growth(gx):
    g, x = gx
    basis = fundamental_basis(g)
    generators = Gf2Matrix.from_rows(basis[::2], g.universe)
    base_rank = gf2_rank(generators)
    grown_rank = gf2_rank(Gf2Matrix.from_rows(list(generators.rows) + [x], g.universe))
    try:
        cert = express_in_span(x, generators)
        replay = EdgeSet.empty(g.universe)
        for i in cert.coefficients:
            replay = replay ^ generators.rows[i]
        assert replay == x
        assert grown_rank == base_rank
    except NotInSpan:
        assert grown_rank == base_rank + 1


@given(graph_with_edge_set())
def test_minor_edge_id_stability(gx):
    g, z = gx
    deleted = delete_edges(g, z)
    assert deleted.edges == g.edges - set(z.ids())
    contracted, vertex_map = contract_edges(g, z)
    assert contracted.edges == g.edges - set(z.ids())
    assert set(vertex_map) == set(g.vertices)
    for e in contracted.edges:
        u, v = g.psi[e]
        assert contracted.psi[e] == tuple(sorted((vertex_map[u], vertex_map[v])))


@given(connected_graphs(), st.data())
def test_contract_delete_commute_on_disjoint_sets(g, data):
    ids = sorted(g.edges)
    a_ids = [e for e in ids if data.draw(st.booleans())]
    b_ids = [e for e in ids if e not in a_ids and data.draw(st.booleans())]
    a, b = g.edge_set(a_ids), g.edge_set(b_ids)
    one = contract_edges(delete_edges(g, a), b)[0]
    other = delete_edges(contract_edges(g, b)[0], a)
    assert one == other


@st.composite
def deleted_graphs(draw):
    """Edge-deletion images of simple graphs, often with isolated vertices."""
    g = draw(simple_graphs())
    return delete_edges(g, g.edge_set(e for e in sorted(g.edges) if draw(st.booleans())))


@settings(max_examples=200)
@given(st.one_of(simple_graphs(), contracted_graphs(), deleted_graphs(),
                 st.just(build_graph(0, []))))
def test_k_connected_matches_removal_oracle(g):
    adj = oracles.adjacency_from_pairs(g.vertices, g.psi.values())
    reached = oracles.reachable(adj, min(g.vertices)) if g.vertices else set()
    assert is_connected(g) == (len(reached) == len(g.vertices))
    for k in range(1, 5):
        assert is_k_connected(g, k) == oracles.k_connected_by_removal(g, k), k


@given(connected_graphs())
def test_blocks_partition(g):
    decomposition = blocks(g)
    union = 0
    for block in decomposition.blocks:
        assert union & block.bits == 0
        union |= block.bits
    assert union == g.full_edge_set().bits
    if g.edges:
        assert decomposition.block_count >= 1


@given(connected_graphs(min_vertices=3))
def test_threads_partition_when_defined(g):
    try:
        ts = threads(g)
    except AllDegreesTwo:
        return
    seen: list[int] = []
    for t in ts:
        seen.extend(t.edges)
    assert sorted(seen) == sorted(g.edges)
    for t in ts:
        assert all(g.degree(v) == 2 for v in t.inner_vertices())
        assert all(g.degree(v) != 2 for v in t.endpoints)


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(), contracted_graphs()), st.randoms())
def test_walks_rebuild_circuits_threads_and_splits(g, rng):
    # loops and parallel edges included; edge ids arrive in any order
    assume(is_connected(g) and cyclomatic_number(g) <= 10)
    circuits = enumerate_circuits(g)
    for c in circuits:
        ids = list(c.edges.ids())
        assert circuit_from_edges(g, rng.sample(ids, len(ids))) == c
    try:
        ts = threads(g)
    except AllDegreesTwo:
        return
    for t in ts:
        assert thread_from_edges(g, rng.sample(t.edges, len(t.edges))) == t
        for c in circuits:
            if is_path_chord(g, c, t):
                first, second = split_on_path_chord(g, c, t)
                assert first.edges ^ second.edges == c.edges
                assert c.edges.ids()[0] in first.edges


@given(connected_graphs(), st.data())
def test_even_subgraph_peeling_replays(g, data):
    basis = fundamental_basis(g)
    x = EdgeSet.empty(g.universe)
    for row in basis:
        if data.draw(st.booleans()):
            x = x ^ row
    peeled = even_subgraph_to_circuits(g, x)
    total = EdgeSet.empty(g.universe)
    for c in peeled:
        assert total.isdisjoint(c.edges)
        total = total ^ c.edges
    assert total == x


@settings(max_examples=30)
@given(connected_graphs(max_vertices=6))
def test_bond_circuit_orthogonality(g):
    if len(g.edges) > 10:
        return
    for b in bonds(g):
        for c in enumerate_circuits(g):
            assert len(b.edges & c.edges) % 2 == 0


@st.composite
def top_3_connected_hosts(draw, max_n=12):
    """A random3c-N graph (N = 5..max_n, any seed) with some edges
    subdivided once or twice, its vertices relabelled and its edges
    reordered."""
    n = draw(st.integers(5, max_n))
    g = gen_corpus(f"random3c-{n}", draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for e in sorted(g.edges):
        u, v = g.psi[e]
        inner = list(range(n, n + draw(st.integers(0, 2))))
        n += len(inner)
        chain = [u, *inner, v]
        pairs.extend(zip(chain, chain[1:]))
    label = draw(st.permutations(range(n)))
    pairs = draw(st.permutations(pairs))
    return build_graph(n, [(label[u], label[v]) for u, v in pairs])


@settings(max_examples=40, deadline=None)
@given(top_3_connected_hosts())
def test_peripheral_rule_matches_block_counting(g):
    catalog = non_separating_circuits(g)
    assert [c.edges.ids() for c in catalog] == oracles.nc_by_block_count(g)
    for c in enumerate_circuits(g):
        assert is_separating(g, c) == oracles.separating_by_block_count(g, c.edges.ids())


@settings(deadline=None)
@given(st.one_of(connected_graphs(), contracted_graphs()))
def test_bridge_rule_matches_block_counting_on_every_connected_host(g):
    # loops, parallel edges and cut vertices included; the oracle lists
    # 2^(cyclomatic number) cycle-space members, so larger hosts are skipped
    assume(is_connected(g) and cyclomatic_number(g) <= 10)
    catalog = non_separating_circuits(g)
    assert [c.edges.ids() for c in catalog] == oracles.nc_by_block_count(g)
    for c in enumerate_circuits(g):
        assert is_separating(g, c) == oracles.separating_by_block_count(g, c.edges.ids())


@settings(deadline=None)
@given(st.one_of(connected_graphs(), contracted_graphs()))
def test_cut_candidate_search_matches_subset_oracle(g):
    # cut vertices, loops and parallel edges included, so the candidates
    # need not be bonds; the oracle tries all 2^m edge subsets
    assume(is_connected(g) and len(g.edges) <= 14)
    nc = non_separating_circuits(g)
    assert [x.ids() for x in minimal_cut_candidates(g, nc)] == \
        oracles.minimal_cut_candidates_by_subsets(g, nc)


@settings(max_examples=25, deadline=None)
@given(top_3_connected_hosts(max_n=20))
def test_removal_test_matches_full_test_down_the_ear_sequence(g):
    # decided on the tables the ear walk carries; the full test and the
    # thread walk run on a fresh copy of g - t, which has no memo; the
    # host's removable threads and the K4 terminal's none give both answers
    outcomes = set()
    for h, lists in oracles.ear_levels(g):
        for t in threads(h):
            x, y = t.endpoints
            got = _removable(lists, lists[0][x], lists[0][y]) is not None
            r = thread_delete(h, t)
            fresh = Graph(r.vertices, r.edges, r.psi, r.universe)
            assert got == is_top_3_connected(fresh)
            assert threads(r) == threads(fresh)
            outcomes.add(got)
    assert outcomes == {False, True}


@settings(max_examples=25, deadline=None)
@given(top_3_connected_hosts(max_n=20))
def test_carried_lists_match_branch_graph_down_the_ear_sequence(g):
    # the walk keeps for each g - t the lists its removal test derived;
    # they must name the live branch vertices of g - t and their neighbours
    # exactly as the branch graph of a memo-free copy does
    for current, (index, nbrs, masks, suppressed) in oracles.ear_levels(g)[1:]:
        vertex = {i: v for v, i in index.items()}
        carried = {vertex[i]: sorted(vertex[w] for w in nbrs[i])
                   for i in vertex if i not in suppressed}
        assert carried == {vertex[i]: sorted(vertex[w] for w in vertex if masks[i] >> w & 1)
                           for i in vertex if i not in suppressed}
        h = _branch_graph(Graph(current.vertices, current.edges, current.psi, current.universe))
        assert carried == {v: sorted(w for _, w in pairs) for v, pairs in h.adjacency.items()}


@settings(max_examples=25, deadline=None)
@given(top_3_connected_hosts())
def test_theta_pair_matches_enumeration(g):
    circuits = oracles.circuits_by_cycle_space(g)
    for t in threads(g):
        pair = theta_pair(g, t)
        assert (pair.first.edges.ids(), pair.second.edges.ids()) == \
            oracles.theta_by_enumeration(g, t, circuits)


@settings(max_examples=25, deadline=None)
@given(top_3_connected_hosts(max_n=24))
def test_theta_pair_matches_catalog_filter(g):
    # hosts too large for the enumeration oracle: the partners are filtered
    # out of the whole non-separating catalog instead
    catalog = non_separating_circuits(g)
    for t in threads(g):
        pair = theta_pair(g, t)
        assert (pair.first.edges.ids(), pair.second.edges.ids()) == \
            oracles.theta_by_catalog(g, t, catalog)


@settings(max_examples=20, deadline=None)
@given(top_3_connected_hosts())
def test_bridge_alpha_matches_contraction_blocks(g):
    # alpha, the edge count of the block of G/C holding the anchor, is
    # |E| - |C| for a non-separating partner C: its one bridge holds every
    # edge off C
    circuits = enumerate_circuits(g)
    contraction_blocks = {
        c: blocks(contract_edges(g, c.edges)[0]).blocks for c in circuits
    }
    for t in threads(g):
        tset = g.edge_set(t.edges)
        through = [c for c in circuits if tset.issubset(c.edges)]
        for ref in through:
            anchor = ref.edges - tset
            for c in through:
                if (c.edges.bits & ref.edges.bits == tset.bits
                        and set(c.vertex_cycle) & set(ref.vertex_cycle) == set(t.vertices)):
                    (block,) = [b for b in contraction_blocks[c] if not anchor.isdisjoint(b)]
                    assert anchor.issubset(block)
                    if not is_separating(g, c):
                        assert len(block) == len(g.edges) - len(c)


@settings(max_examples=25, deadline=None)
@given(top_3_connected_hosts(), st.data())
def test_decomposition_is_linear(g, data):
    # the parts of a sum are the symmetric difference of the parts of its
    # terms: one linear map, however the target is split
    basis = fundamental_basis(g)

    def combination() -> EdgeSet:
        x = EdgeSet.empty(g.universe)
        picks = data.draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
        for row, pick in zip(basis, picks):
            if pick:
                x = x ^ row
        return x

    def parts(x) -> set:
        return set(decompose_cs_element(g, x).parts)

    x, y = combination(), combination()
    assert parts(x ^ y) == parts(x) ^ parts(y)
