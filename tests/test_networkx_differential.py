"""Differential tests of the graph core against networkx.

networkx is a test-only reference; the library never imports it.  The
inputs are the corpus, each corpus graph minus each of its threads, and
each of those minus its first thread, so that graphs that are 2-connected
but not 3-connected, and graphs with cut vertices, appear beside the
3-connected corpus.
"""

import pytest

from nscycles import blocks, cyclomatic_number, is_k_connected, thread_delete, threads

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def hosts(corpus):
    out = []
    for label, g in corpus:
        out.append((label, g))
        for t in threads(g):
            reduced = thread_delete(g, t)
            out.append((f"{label}-{t.edges}", reduced))
            first = threads(reduced)[0]
            out.append((f"{label}-{t.edges}-{first.edges}", thread_delete(reduced, first)))
    return out


def to_networkx(g):
    reference = nx.Graph()
    reference.add_nodes_from(g.vertices)
    reference.add_edges_from(g.psi.values())
    return reference


def test_k_connected_matches_node_connectivity(hosts):
    seen = set()
    for label, g in hosts:
        connectivity = nx.node_connectivity(to_networkx(g))
        seen.add(min(connectivity, 3))
        for k in (1, 2, 3):
            assert is_k_connected(g, k) == (connectivity >= k), (label, k)
    assert seen == {1, 2, 3}


def test_blocks_match_biconnected_components(hosts):
    for label, g in hosts:
        edge_id = {pair: e for e, pair in g.psi.items()}
        expected = {
            frozenset(edge_id[min(u, v), max(u, v)] for u, v in component)
            for component in nx.biconnected_component_edges(to_networkx(g))
        }
        assert {frozenset(b.ids()) for b in blocks(g).blocks} == expected, label


def test_cyclomatic_number_matches_cycle_basis_rank(hosts):
    for label, g in hosts:
        assert cyclomatic_number(g) == len(nx.cycle_basis(to_networkx(g))), label
