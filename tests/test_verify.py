"""The ``verify-all`` battery: what its checks run on, and that they run."""

import importlib.util
import random
from pathlib import Path

from nscycles import (
    circuit_from_edges,
    decompose_cs_element,
    gen_corpus,
    is_separating,
    subdivide_every_edge,
    verify,
    verify_graph,
)
from nscycles.circuits import DEFAULT_CIRCUIT_CAP
from nscycles.decomposition import DecompositionCertificate

from conftest import CORPUS_NAMES
import oracles

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
        skipped = [c.name for c in report.checks if c.details.startswith("skipped:")]
        assert not skipped, (name, skipped)


def test_verify_passes_past_the_old_enumeration_guard():
    g = gen_corpus("random3c-28", 0)
    report = verify_graph(g, "random3c-28")
    assert report.all_passed
    skipped = {c.name for c in report.checks if c.details.startswith("skipped:")}
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
        passed, _ = verify._check_decomposition_replay(g, DEFAULT_CIRCUIT_CAP, random.Random(0))
        assert passed, label
        assert len(tested) == len(set(tested)) == len(set(certified)) < len(certified), label


def test_replay_fails_on_a_separating_part_or_a_mismatch(monkeypatch):
    g = gen_corpus("k5")

    def whole(g, target):  # each target circuit as its own one part
        return DecompositionCertificate(target, (circuit_from_edges(g, target.ids()),), "")

    monkeypatch.setattr(verify, "decompose_cs_element", whole)
    check = _replay_check(g, "k5")
    assert (check.passed, check.details) == (False, "certificate part is separating")

    def empty(g, target):  # parts that sum to nothing
        return DecompositionCertificate(target, (), "")

    monkeypatch.setattr(verify, "decompose_cs_element", empty)
    check = _replay_check(g, "k5")
    assert (check.passed, check.details) == (False, "replay mismatch")
