"""The ``verify-all`` battery: what its checks run on, and that they run."""

import hashlib
import importlib.util
import random
from pathlib import Path

from nscycles import (
    EdgeSet,
    circuit_from_edges,
    decompose_cs_element,
    enumerate_circuits,
    fundamental_basis,
    gen_corpus,
    is_separating,
    non_separating_circuits,
    subdivide_every_edge,
    theta_pair,
    thread_delete,
    thread_from_edges,
    verify,
    verify_graph,
)
from nscycles import decomposition, graph_core
from nscycles.circuits import DEFAULT_CIRCUIT_CAP, NcCatalog, _is_separating_edges, _nc_catalog
from nscycles.decomposition import DecompositionCertificate, ThetaPair
from nscycles.errors import Disconnected
from nscycles.graph_core import Graph, _incident_bits

from conftest import CORPUS_NAMES
import oracles


def _remember(g, fn, value, *args) -> None:
    """Leave ``value`` in g's memo as the result of the memoized
    ``fn(g, *args)``, under the key ``memoized`` reads: a verdict a check
    must not trust."""
    g._memo[(fn.__wrapped__, *args)] = value

RUNNER = Path(__file__).resolve().parent.parent / "scripts" / "run_corpus_verification.py"


def _load_runner():
    spec = importlib.util.spec_from_file_location("run_corpus_verification", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


def test_lifting_counts_every_split_pair_of_the_ear_sequence():
    graphs = [(name, gen_corpus(name)) for name in CORPUS_NAMES]
    graphs += [(f"random3c-{n}#{seed}", gen_corpus(f"random3c-{n}", seed))
               for n in range(8, 13) for seed in range(3)]
    for label, g in graphs:
        expected = len(oracles.lifting_pairs_by_enumeration(g))
        details = next(c.details for c in verify_graph(g, label).checks
                       if c.name == "path_chord_split_lifting")
        assert details == f"{expected} split pairs verified", label


def test_default_corpus_runs_every_check():
    jobs = runner.corpus()
    assert len(jobs) == 35
    for name, g in jobs:
        report = verify_graph(g, name)
        assert report.all_passed, name
        skipped = [c.name for c in report.checks if c.passed is None]
        assert not skipped, (name, skipped)


def test_verify_passes_past_the_old_enumeration_guard():
    g = gen_corpus("random3c-28", 0)
    report = verify_graph(g, "random3c-28")
    assert report.all_passed
    skipped = {c.name for c in report.checks if c.passed is None}
    assert skipped == {"cocircuit_recovery", "cut_cycle_orthogonality"}
    assert len(g.vertices) > 16


def test_runner_prints_its_skips(capsys):
    assert runner.main(["--sizes", "17", "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("random3c-17-s0 ")
    assert lines[-1].endswith(" ok (skipped: cocircuit_recovery, cut_cycle_orthogonality)")
    assert all(line.endswith(" ok") for line in lines[:-1])


def test_runner_names_each_graphs_slowest_check(capsys):
    names = {c.name for c in verify_graph(gen_corpus("k4"), "k4").checks}
    assert runner.main(["--sizes", "8", "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(runner.NAMED) + 1
    for line in lines:
        slowest = line.split("  slowest ", 1)[1].split()
        assert slowest[0] in names and slowest[1].isdigit() and slowest[2] == "ms", line


def _replay_check(g, label):
    return next(c for c in verify_graph(g, label).checks if c.name == "decomposition_replay")


def test_replay_tests_each_distinct_part_once(monkeypatch):
    certified, tested = [], []

    def decompose(g, target):
        cert = decompose_cs_element(g, target)
        certified.extend(cert.parts)
        return cert

    def separating(g, c):
        tested.append(c)
        return is_separating(g, c)

    monkeypatch.setattr(verify, "decompose_cs_element", decompose)
    monkeypatch.setattr(verify, "is_separating", separating)
    for label, g in [("random3c-10", gen_corpus("random3c-10")),
                     ("random3c-14+subdivided", subdivide_every_edge(gen_corpus("random3c-14")))]:
        certified.clear()
        tested.clear()
        passed, _ = verify._check_decomposition_replay(g, random.Random(0))
        assert passed, label
        assert len(tested) == len(set(tested)) == len(set(certified)) < len(certified), label


def _whole(g, target):  # each target circuit as its own one part
    return DecompositionCertificate(target, (circuit_from_edges(g, target.ids()),), "")


def test_replay_fails_on_a_separating_part_or_a_mismatch(monkeypatch):
    # the targets start with wheel-5's fundamental circuits, of which the
    # first two are non-separating and the third is separating
    g = gen_corpus("wheel-5")

    monkeypatch.setattr(verify, "decompose_cs_element", _whole)
    check = _replay_check(g, "wheel-5")
    assert (check.passed, check.details) == (False, "certificate part is separating")

    def empty(g, target):  # parts that sum to nothing
        return DecompositionCertificate(target, (), "")

    monkeypatch.setattr(verify, "decompose_cs_element", empty)
    check = _replay_check(g, "wheel-5")
    assert (check.passed, check.details) == (False, "replay mismatch")


def test_lifting_fails_on_halves_that_do_not_sum_to_the_circuit(monkeypatch):
    # each half a non-separating circuit of the host, but the first twice
    halves = decomposition._halves
    monkeypatch.setattr(decomposition, "_halves", lambda *args: halves(*args)[:1] * 2)
    assert verify._check_path_chord_lifting(gen_corpus("k5"), DEFAULT_CIRCUIT_CAP) == (
        False, "split halves do not sum to the circuit")


def test_witness_check_fails_when_a_cut_disconnects(monkeypatch):
    # no cut of one or two edges disconnects a simple 3-connected host; if
    # one did, the check reports it instead of leaving the cut out
    def disconnected(*args):
        raise Disconnected("deleting the edge set disconnects the graph")

    monkeypatch.setattr(verify, "circuits_meeting_once", disconnected)
    check = next(c for c in verify_graph(gen_corpus("k4"), "k4").checks
                 if c.name == "unit_overlap_witnesses")
    assert (check.passed, check.details) == (
        False, "Disconnected: deleting the edge set disconnects the graph")


def test_replay_tests_parts_on_a_copy_of_the_host(monkeypatch):
    # wrong verdicts left in the host's memo do not pass a separating part
    g = gen_corpus("wheel-5")
    separating = [c for c in enumerate_circuits(g) if is_separating(gen_corpus("wheel-5"), c)]
    assert fundamental_basis(g)[2] in {c.edges for c in separating}
    for c in separating:
        _remember(g, _is_separating_edges, False, c.edges)

    monkeypatch.setattr(verify, "decompose_cs_element", _whole)
    assert verify._check_decomposition_replay(g, random.Random(0)) == (
        False, "certificate part is separating")


def test_theta_pairs_test_separation_on_a_copy_of_the_host(monkeypatch):
    # on wheel-5 (hub 0, rim 1..5), the circuit 0-1-2-3 has the chord 0-2,
    # and meets the triangle 0-1-5 exactly in the spoke 0-1: a pair that
    # only a wrong verdict in the host's memo would pass
    g = gen_corpus("wheel-5")
    spoke = thread_from_edges(g, [5])
    first, second = circuit_from_edges(g, [5, 0, 1, 7]), circuit_from_edges(g, [5, 4, 9])
    _remember(g, _is_separating_edges, False, first.edges)

    def fake(g, t):
        return ThetaPair(first, second, t) if t == spoke else theta_pair(g, t)

    monkeypatch.setattr(verify, "theta_pair", fake)
    assert verify._check_theta_pairs(g) == (False, "theta circuit is separating")


def test_ear_assembly_replays_the_steps_on_its_own_copies(monkeypatch):
    # the check walks copies, each built from the last and the step's
    # thread, so a wrong step fingerprint is not compared with itself
    assert verify._check_ear_assembly(gen_corpus("random3c-12")) == (True, "7 reduction steps")
    digests = []
    digest = decomposition._key_digest

    def wrong(*args):  # a wrong fingerprint at the third step
        digests.append(digest(*args))
        return "0" * 16 if len(digests) == 3 else digests[-1]

    monkeypatch.setattr(decomposition, "_key_digest", wrong)
    assert verify._check_ear_assembly(gen_corpus("random3c-12")) == (
        False, "intermediate graph fails the reduction invariant")
    assert len(digests) == 7


def test_lifting_tests_halves_on_a_copy_of_each_graph():
    # a wrong "separating" verdict left in the host's memo, where
    # decomposition_replay leaves its own, for one half of the first step
    g = gen_corpus("wheel-5")
    expected = verify._check_path_chord_lifting(gen_corpus("wheel-5"), DEFAULT_CIRCUIT_CAP)
    assert expected[0] and expected[1] != "0 split pairs verified"
    t, tbits, _ = decomposition._chain(g)[0][0]
    reduced = thread_delete(g, t)
    c = next(c for c in non_separating_circuits(reduced) if set(t.endpoints) <= set(c.vertex_cycle))
    half = decomposition._lift_bits(g, _incident_bits(g), t, tbits, c.edges.bits)[0]
    _remember(g, _is_separating_edges, True, EdgeSet(half, g.universe))
    assert verify._check_path_chord_lifting(g, DEFAULT_CIRCUIT_CAP) == expected


def test_lifting_builds_its_catalogs_on_its_own_copies():
    # an empty catalog left in the memo of each graph of the ear walk that
    # the library holds, the walk's terminal and the host's thread_delete
    # chain, hides no split pair from the check
    g = gen_corpus("random3c-12")
    expected = verify._check_path_chord_lifting(gen_corpus("random3c-12"), DEFAULT_CIRCUIT_CAP)
    assert expected[0] and expected[1] != "0 split pairs verified"
    steps, terminal = decomposition._chain(g)
    current = g
    for t, _, _ in steps:
        current = thread_delete(current, t)
        _remember(current, _nc_catalog, NcCatalog((), ""), DEFAULT_CIRCUIT_CAP)
    _remember(terminal, _nc_catalog, NcCatalog((), ""), DEFAULT_CIRCUIT_CAP)
    assert verify._check_path_chord_lifting(g, DEFAULT_CIRCUIT_CAP) == expected


def test_a_check_raising_any_exception_fails_with_it(monkeypatch):
    # not only a GraphError: an exception from a fault of the checked code
    # fails the check that met it, and the other checks still run
    def out_of_range(lists, i, j):
        return lists[1][len(lists[1])]

    monkeypatch.setattr(graph_core, "_removable", out_of_range)
    report = verify_graph(gen_corpus("random3c-12"), "random3c-12")
    failed = {c.name: c.details for c in report.checks if c.passed is False}
    assert failed == dict.fromkeys(
        ["decomposition_replay", "ear_assembly_reduction", "path_chord_split_lifting",
         "theta_pairs"], "IndexError: list index out of range")
    assert len(report.checks) == 12 and not report.all_passed


def test_verify_graph_copies_the_host_once(monkeypatch):
    # every check that reads the replica shares the one copy of the host,
    # and each graph below it is built from the last by thread_delete
    built = []

    def counting(*args):
        built.append(args)
        return Graph(*args)

    monkeypatch.setattr(verify, "Graph", counting)
    for label in ("petersen", "random3c-12"):
        built.clear()
        assert verify_graph(gen_corpus(label), label).all_passed, label
        assert len(built) == 1, label


def test_replay_draws_64_targets_from_the_fundamental_basis(monkeypatch):
    for name, g in runner.corpus():
        assert verify._check_decomposition_replay(g, random.Random(0)) == (
            True, "64 targets decomposed and replayed"), name
    # random3c-10 has more than 64 circuits, so it drew these same targets
    # when graphs with at most 64 took every circuit as a target instead
    targets = []

    def decompose(g, target):
        targets.append(target.bits)
        return decompose_cs_element(g, target)

    monkeypatch.setattr(verify, "decompose_cs_element", decompose)
    assert _replay_check(gen_corpus("random3c-10"), "random3c-10").passed
    assert len(targets) == 64
    assert hashlib.sha256(repr(targets).encode()).hexdigest() == \
        "1e6db1971e5544861e5046bad83785e10d545beefb3f5e2eacda57bd5beaca15"
