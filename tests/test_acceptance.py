"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything runs on the named corpus (complete graphs, K33, wheels, prism,
Petersen, and five seeds of each random3c size) with exact assertions; no
tolerances apply anywhere.
"""

import json
import random
from itertools import combinations

from nscycles import (
    CounterexampleReport,
    EdgeSet,
    Gf2Matrix,
    bonds,
    circuits_meeting_once,
    cyclomatic_number,
    decompose_circuit,
    decompose_cs_element,
    delete_edges,
    ear_sequence,
    enumerate_circuits,
    express_in_span,
    find_reducible_thread,
    fundamental_basis,
    gf2_rank,
    is_connected,
    is_path_chord,
    is_separating,
    is_top_3_connected,
    is_top_k4,
    minimal_cut_candidates,
    non_separating_circuits,
    split_on_path_chord,
    subdivide_every_edge,
    theta_pair,
    thread_delete,
    threads,
)
from nscycles.cli import run_command

from conftest import full_corpus
import oracles

CORPUS = full_corpus()


def report(number: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {label}: {status}")
    assert not failures, f"{label}: {failures[:5]}"


def test_acceptance_1_nc_spans_cycle_space():
    failures = []
    for label, g in CORPUS:
        nc = non_separating_circuits(g)
        matrix = Gf2Matrix.from_rows(nc.edge_sets(), g.universe)
        if gf2_rank(matrix) != cyclomatic_number(g):
            failures.append((label, "rank"))
            continue
        for row in fundamental_basis(g):
            cert = express_in_span(row, matrix)
            replay = EdgeSet.empty(g.universe)
            for i in cert.coefficients:
                replay = replay ^ matrix.rows[i]
            if replay != row:
                failures.append((label, "replay"))
    report(1, "non-separating circuits span the cycle space", failures)


def test_acceptance_2_constructive_decomposition():
    failures = []

    def check(g, label, cert, target):
        if cert.replay() != target:
            failures.append((label, "replay"))
            return
        for part in cert.parts:
            if is_separating(g, part):
                failures.append((label, "separating part"))
                return

    for label, g in CORPUS:
        if len(g.vertices) <= 10:
            for c in enumerate_circuits(g):
                check(g, label, decompose_circuit(g, c), c.edges)
        else:
            rng = random.Random(f"acceptance2:{label}")
            basis = fundamental_basis(g)
            for _ in range(100):
                x = EdgeSet.empty(g.universe)
                for row in basis:
                    if rng.random() < 0.5:
                        x = x ^ row
                check(g, label, decompose_cs_element(g, x), x)
    report(2, "decomposition certificates replay with non-separating parts", failures)


def test_acceptance_3_ear_reduction():
    failures = []
    for label, g in CORPUS:
        for tag, h in ((label, g), (label + "+subdivided", subdivide_every_edge(g))):
            if not is_top_3_connected(h) or is_top_k4(h):
                continue
            t = find_reducible_thread(h)
            if not is_top_3_connected(thread_delete(h, t)):
                failures.append((tag, "bad thread"))
                continue
            seq = ear_sequence(h)
            current = h
            for _, step_thread in seq.steps:
                if not is_top_3_connected(current):
                    failures.append((tag, "bad intermediate"))
                    break
                current = thread_delete(current, step_thread)
            else:
                if not is_top_k4(current):
                    failures.append((tag, "terminal not top K4"))
    report(3, "ear reduction reaches a subdivision of K4", failures)


def test_acceptance_4_path_chord_splitting():
    failures = []
    for label, g in CORPUS:
        if len(g.edges) > 12 or not is_top_3_connected(g):
            continue
        for t in threads(g):
            reduced = thread_delete(g, t)
            for c in enumerate_circuits(reduced):
                if is_separating(reduced, c) or not is_path_chord(g, c, t):
                    continue
                r, s = split_on_path_chord(g, c, t)
                if is_separating(g, r) or is_separating(g, s):
                    failures.append((label, t.edges, c.edges.ids()))
    report(4, "path-chord splits stay non-separating", failures)


def test_acceptance_5_theta_pairs():
    failures = []
    for label, g in CORPUS:
        if len(g.edges) > 15:
            continue
        nc = non_separating_circuits(g)
        for t in threads(g):
            pair = theta_pair(g, t)
            tset = g.edge_set(t.edges)
            if pair.first.edges & pair.second.edges != tset:
                failures.append((label, t.edges, "edge intersection"))
                continue
            shared_vertices = set(pair.first.vertex_cycle) & set(pair.second.vertex_cycle)
            if shared_vertices != set(t.vertices):
                failures.append((label, t.edges, "vertex intersection"))
                continue
            if not oracles.theta_pairs_by_search(nc.members, t.edges, t.vertices):
                failures.append((label, t.edges, "brute-force search found none"))
    report(5, "theta pairs meet exactly in their thread", failures)


def test_acceptance_6_unit_overlap_witnesses():
    failures = []
    for label, g in CORPUS:
        m = len(g.edges)
        if m > 12:
            continue
        nc = non_separating_circuits(g)
        ids = sorted(g.edges)
        for size in range(1, m + 1):
            for combo in combinations(ids, size):
                x = g.edge_set(combo)
                if not is_connected(delete_edges(g, x)):
                    continue
                result = circuits_meeting_once(g, x, nc)
                if isinstance(result, CounterexampleReport):
                    failures.append((label, combo))
                elif result[0] == result[1]:
                    failures.append((label, combo, "not distinct"))
    report(6, "two distinct circuits meet every connectivity-preserving cut once", failures)


def test_acceptance_7_cocircuit_recovery():
    failures = []
    for label, g in CORPUS:
        nc = non_separating_circuits(g)
        recovered = sorted(x.ids() for x in minimal_cut_candidates(g, nc))
        expected = sorted(b.edges.ids() for b in bonds(g))
        if recovered != expected:
            failures.append(label)
    report(7, "minimal cut candidates equal the bonds", failures)


def test_acceptance_8_cut_cycle_orthogonality():
    failures = []
    for label, g in CORPUS:
        if len(g.edges) > 12:
            continue
        all_circuits = enumerate_circuits(g)
        for b in bonds(g):
            for c in all_circuits:
                if len(b.edges & c.edges) % 2 != 0:
                    failures.append((label, b.edges.ids(), c.edges.ids()))
    report(8, "bond-circuit intersections are even", failures)


def test_acceptance_9_determinism(capsys):
    failures = []
    for name in ("k4", "prism", "wheel-5"):
        outputs = []
        for _ in range(2):
            code = run_command(["verify-all", "--gen", name])
            out = capsys.readouterr().out
            outputs.append(out.encode())
            if code != 0:
                failures.append((name, "verify-all failed"))
        if outputs[0] != outputs[1]:
            failures.append((name, "outputs differ"))
        if not json.loads(outputs[0]):
            failures.append((name, "empty report"))
    with capsys.disabled():
        print()
        report(9, "verify-all output is byte-identical across runs", failures)
