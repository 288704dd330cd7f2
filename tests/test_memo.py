import gc

from nscycles import Graph, decompose_cs_element, ear_sequence, fundamental_basis, gen_corpus


def _graph_count() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Graph))


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
