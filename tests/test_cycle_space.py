import random
import re

import pytest

from nscycles import (
    EdgeSet,
    Gf2Matrix,
    build_graph,
    contract_edges,
    cyclomatic_number,
    express_in_span,
    fingerprint,
    fundamental_basis,
    gf2_rank,
    is_connected,
    is_cycle_space_member,
    sym_diff,
)
from nscycles.errors import Disconnected, NotInSpan, UniverseMismatch

import oracles

K4_TRIANGLES = [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]


def test_sym_diff_basics():
    x = EdgeSet.from_ids([0, 1], 6)
    y = EdgeSet.from_ids([1, 2], 6)
    assert sym_diff(x, x) == EdgeSet.empty(6)
    assert sym_diff(x, EdgeSet.empty(6)) == x
    assert sym_diff(x, y).ids() == (0, 2)


def test_membership(k4):
    assert is_cycle_space_member(k4, EdgeSet.empty(6))
    assert not is_cycle_space_member(k4, k4.edge_set([0]))
    two_triangles = k4.edge_set([0, 1, 3]) ^ k4.edge_set([0, 2, 4])
    assert oracles.even_degrees(k4, two_triangles.ids())
    assert is_cycle_space_member(k4, two_triangles)
    with pytest.raises(UniverseMismatch):
        is_cycle_space_member(k4, EdgeSet.from_ids([0], 5))


def test_graph_universe_checks_share_one_message(k4):
    # the membership test and the unit-overlap search both reject an edge
    # set over another universe with the graph's own universe check
    from nscycles import circuits_meeting_once, non_separating_circuits
    message = "edge set universe 5 does not match graph universe 6"
    foreign = EdgeSet.from_ids([0], 5)
    with pytest.raises(UniverseMismatch, match=f"^{message}$"):
        is_cycle_space_member(k4, foreign)
    with pytest.raises(UniverseMismatch, match=f"^{message}$"):
        circuits_meeting_once(k4, foreign, non_separating_circuits(k4))


def _minors(g) -> list:
    """g contracted along seeded random edge sets: multigraphs with loops
    and parallel edges, over g's universe."""
    rng = random.Random(fingerprint(g))
    ids = sorted(g.edges)
    return [contract_edges(g, g.edge_set(rng.sample(ids, k)))[0]
            for k in (1, 2, len(ids) // 3, len(ids) // 2)]


def test_membership_matches_incidence_parity_on_multigraphs(corpus):
    # each vertex's parity is read off its non-loop edge mask; a loop adds
    # 2 to its vertex's degree, so it never changes the answer
    loops = parallel = 0
    for label, host in corpus:
        for g in [host, *_minors(host)]:
            loops += sum(u == v for u, v in g.psi.values())
            parallel += not g.simple
            rng = random.Random(label)
            ids = sorted(g.edges)
            for _ in range(24):
                x = g.edge_set(e for e in ids if rng.random() < 0.5)
                assert is_cycle_space_member(g, x) == oracles.even_degrees(g, x.ids()), \
                    (label, x.ids())
            for row in fundamental_basis(g) if is_connected(g) else ():
                assert is_cycle_space_member(g, row)
    assert loops > 100 and parallel > 100


def test_membership_rejects_non_edges_and_foreign_universes(k4):
    # on a minor, the contracted edges are ids of the universe but no edges
    # of the graph; each is named, whatever the parity of the rest
    g, _ = contract_edges(k4, k4.edge_set([0, 2, 5]))
    assert any(u == v for u, v in g.psi.values())
    for ids in ([0, 1], [0, 2, 3], [1, 3, 5]):
        gone = [e for e in ids if e not in g.edges]
        with pytest.raises(UniverseMismatch, match=re.escape(
                f"edge ids {gone} are not edges of the graph")):
            is_cycle_space_member(g, g.edge_set(ids))
    with pytest.raises(UniverseMismatch,
                       match="^edge set universe 7 does not match graph universe 6$"):
        is_cycle_space_member(g, EdgeSet.from_ids([1, 3], 7))


def test_membership_closed_under_sym_diff(k4):
    circuits = [k4.edge_set(ids) for ids in K4_TRIANGLES]
    for x in circuits:
        for y in circuits:
            assert is_cycle_space_member(k4, sym_diff(x, y))


def test_fundamental_basis_k4(k4):
    basis = fundamental_basis(k4)
    assert len(basis) == 3
    assert all(is_cycle_space_member(k4, row) for row in basis)
    assert gf2_rank(Gf2Matrix.from_rows(basis, 6)) == 3


def test_fundamental_basis_triangle(triangle):
    basis = fundamental_basis(triangle)
    assert len(basis) == 1
    assert basis[0] == triangle.full_edge_set()


def test_fundamental_basis_petersen(petersen):
    basis = fundamental_basis(petersen)
    assert len(basis) == 6
    assert gf2_rank(Gf2Matrix.from_rows(basis, 15)) == 6


def test_cyclomatic_number_without_edges():
    # |E| - |V| + components: the null graph has no component
    for n in (0, 1):
        g = build_graph(n, [])
        assert cyclomatic_number(g) == len(fundamental_basis(g)) == 0


def test_fundamental_basis_requires_connected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        fundamental_basis(g)


def test_rank_trivials():
    assert gf2_rank(Gf2Matrix.from_rows([], 6)) == 0
    x = EdgeSet.from_ids([0, 2], 6)
    assert gf2_rank(Gf2Matrix.from_rows([x, x], 6)) == 1


def test_express_empty_target(k4):
    rows = [k4.edge_set(ids) for ids in K4_TRIANGLES]
    cert = express_in_span(EdgeSet.empty(6), Gf2Matrix.from_rows(rows, 6))
    assert cert.coefficients == ()


def test_express_four_cycle_in_triangles(k4):
    rows = [k4.edge_set(ids) for ids in K4_TRIANGLES]
    quad = k4.edge_set([0, 2, 3, 5])
    cert = express_in_span(quad, Gf2Matrix.from_rows(rows, 6))
    # exhaustive subset oracle over the 2^4 combinations
    solutions = oracles.subset_sums_matching(
        [frozenset(r.ids()) for r in rows], frozenset(quad.ids())
    )
    assert cert.coefficients in solutions
    replay = EdgeSet.empty(6)
    for i in cert.coefficients:
        replay = replay ^ rows[i]
    assert replay == quad
    # pinned for cross-run determinism
    assert cert.coefficients == (0, 2)


def test_express_rejects_outside_span(k4):
    basis = fundamental_basis(k4)
    with pytest.raises(NotInSpan):
        express_in_span(k4.edge_set([0]), Gf2Matrix.from_rows(basis, 6))


def test_not_in_span_iff_rank_grows(k4, prism):
    for g in (k4, prism):
        basis = fundamental_basis(g)
        generators = Gf2Matrix.from_rows(basis[:-1], g.universe)
        base_rank = gf2_rank(generators)
        for target in (basis[-1], EdgeSet.empty(g.universe), basis[0]):
            grown = gf2_rank(
                Gf2Matrix.from_rows(list(generators.rows) + [target], g.universe)
            )
            try:
                express_in_span(target, generators)
                assert grown == base_rank
            except NotInSpan:
                assert grown == base_rank + 1


def test_cyclomatic_numbers(k4, petersen):
    assert cyclomatic_number(k4) == 3
    assert cyclomatic_number(petersen) == 6
    tree = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert cyclomatic_number(tree) == 0


def test_rank_equals_cyclomatic_on_corpus(corpus):
    for label, g in corpus:
        basis = fundamental_basis(g)
        assert gf2_rank(Gf2Matrix.from_rows(basis, g.universe)) == cyclomatic_number(g), label
