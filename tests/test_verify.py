"""The ``verify-all`` battery: what its checks run on, and that they run."""

import importlib.util
from pathlib import Path

from nscycles import gen_corpus, verify_graph

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
