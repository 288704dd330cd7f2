import argparse
import json
import random

import pytest

import oracles
from nscycles import build_graph, decomposition, fingerprint, gen_corpus, graph_core, is_k_connected
from nscycles.cli import _COMMANDS, MAX_EDGE_LIST_VERTICES, parse_edge_list, run_command
from nscycles.corpus import MAX_GEN_N
from nscycles.errors import LoopRejected, ParseError, TooLarge, UnknownName


def run_json(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_parse_edge_list_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert g.psi[2] == (0, 2)


def test_parse_edge_list_k4():
    g = parse_edge_list("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert g == gen_corpus("k4")


def test_parse_edge_list_errors():
    with pytest.raises(LoopRejected):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(ParseError, match="header fields must be integers"):
        parse_edge_list("3 x\n")
    with pytest.raises(ParseError, match="line 2: expected 'u v'"):
        parse_edge_list("3 1\n0 1 2\n")


def test_edge_list_header_vertex_bound(tmp_path, capsys):
    # The guard fires on the header alone, before build_graph allocates.
    text = f"{MAX_EDGE_LIST_VERTICES + 1} 0\n"
    with pytest.raises(TooLarge):
        parse_edge_list(text)
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert run_command(["info", "--input", str(path)]) == 2
    assert f"{MAX_EDGE_LIST_VERTICES + 1} vertices" in capsys.readouterr().err


@pytest.mark.parametrize("text,error", [
    ("2 1\n0 0\n", "LoopRejected"),
    ("3 2\n0 1\n1 0\n", "DuplicateEdge"),
    ("3 1\n0 3\n", "DanglingVertexId"),
])
def test_rejected_edge_list_is_a_usage_error(text, error, tmp_path, capsys):
    # build_graph's rejections of a file are bad input, not a failed check
    path = tmp_path / "rejected.txt"
    path.write_text(text)
    assert run_command(["info", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"nscycles: {error}: ")


def test_negative_header_counts_are_rejected(tmp_path, capsys):
    for text in ("-3 0\n", "3 -1\n"):
        with pytest.raises(ParseError):
            parse_edge_list(text)
        path = tmp_path / "negative.txt"
        path.write_text(text)
        assert run_command(["info", "--input", str(path)]) == 2
        assert "non-negative" in capsys.readouterr().err


def test_gen_corpus_names():
    k4 = gen_corpus("k4", 0)
    assert len(k4.vertices) == 4 and len(k4.edges) == 6
    pet = gen_corpus("petersen", 0)
    assert len(pet.vertices) == 10 and len(pet.edges) == 15
    assert all(pet.degree(v) == 3 for v in pet.vertices)
    w6 = gen_corpus("wheel-6")
    assert len(w6.vertices) == 7 and len(w6.edges) == 12
    with pytest.raises(UnknownName):
        gen_corpus("dodecahedron")
    with pytest.raises(UnknownName):
        gen_corpus("wheel-2")
    with pytest.raises(UnknownName):
        gen_corpus("random3c-3")


def test_gen_size_bound(capsys):
    # the guard fires on the name alone, before any generation work
    for name in (f"wheel-{MAX_GEN_N + 1}", f"random3c-{MAX_GEN_N + 1}"):
        with pytest.raises(TooLarge):
            gen_corpus(name)
        assert run_command(["info", "--gen", name]) == 2
        assert f"size {MAX_GEN_N + 1} exceeds" in capsys.readouterr().err
    assert len(gen_corpus(f"wheel-{MAX_GEN_N}").vertices) == MAX_GEN_N + 1


def test_gen_corpus_random_is_deterministic_and_3_connected():
    for seed in range(3):
        g = gen_corpus("random3c-9", seed)
        assert is_k_connected(g, 3)
        assert g == gen_corpus("random3c-9", seed)
    assert gen_corpus("random3c-9", 0) != gen_corpus("random3c-9", 1)


def test_random3c_draws_the_graphs_of_the_pair_list_generator():
    # the k-th nonadjacent pair from per-vertex counts is the pair
    # rng.choice draws from the list of them
    for n in range(4, 201, 7):
        for seed in range(3):
            name = f"random3c-{n}"
            pairs = oracles.random_3connected_by_pair_list(n, random.Random(f"{name}:{seed}"))
            assert fingerprint(gen_corpus(name, seed)) == fingerprint(build_graph(n, pairs)), (n, seed)


def test_cli_info(capsys):
    code, payload = run_json(["info", "--gen", "k4"], capsys)
    assert code == 0
    assert payload["vertices"] == 4 and payload["edges"] == 6
    assert payload["three_connected"] and payload["top_k4"]


def test_cli_nc_prism(capsys):
    code, payload = run_json(["nc", "--gen", "prism"], capsys)
    assert code == 0
    assert payload["count"] == 5
    assert [0, 1, 2] in payload["circuits"] and [3, 4, 5] in payload["circuits"]
    # one span certificate per fundamental-basis circuit, as sorted indices
    assert len(payload["basis_expressions"]) == 4
    for indices in payload["basis_expressions"]:
        assert indices == sorted(indices)
        assert all(0 <= i < payload["count"] for i in indices)


def test_cli_decompose_four_cycle(capsys):
    code, payload = run_json(
        ["decompose", "--gen", "k4", "--circuit", "0,2,3,5"], capsys
    )
    assert code == 0
    assert payload["parts"] == [[0, 1, 3], [1, 2, 5]]
    assert payload["target"] == [0, 2, 3, 5]


def test_cli_theta(capsys):
    code, payload = run_json(["theta", "--gen", "k4", "--thread", "0"], capsys)
    assert code == 0
    assert sorted([payload["first"], payload["second"]]) == [[0, 1, 3], [0, 2, 4]]


def test_cli_ears(capsys):
    code, payload = run_json(["ears", "--gen", "k5"], capsys)
    assert code == 0
    assert len(payload["steps"]) >= 1
    assert len(payload["terminal"]["edges"]) >= 6


def test_cli_bonds(capsys):
    code, payload = run_json(["bonds", "--gen", "k4"], capsys)
    assert code == 0
    assert payload["count"] == 7


def test_cli_whitney(capsys):
    code, payload = run_json(["whitney", "--gen", "k33"], capsys)
    assert code == 0
    assert payload["match"] is True
    assert payload["bond_count"] == payload["candidate_count"]


def test_cli_whitney_on_the_largest_corpus_graph(capsys):
    # 21 edges: the cut-candidate search guard's limit
    code, payload = run_json(["whitney", "--gen", "random3c-12"], capsys)
    assert code == 0
    assert payload["match"] is True


def test_cli_verify_all_passes(capsys):
    code, payload = run_json(["verify-all", "--gen", "k4"], capsys)
    assert code == 0
    assert all(check["pass"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    assert names == sorted(names)
    assert "elapsed_ms" not in payload


def test_cli_verify_all_timing_flag(capsys):
    code, payload = run_json(["verify-all", "--gen", "k4", "--timing"], capsys)
    assert code == 0
    assert "elapsed_ms" in payload
    assert len(payload["checks"]) == 12
    assert all(type(check["elapsed_ms"]) is int for check in payload["checks"])
    assert sum(check["elapsed_ms"] for check in payload["checks"]) <= payload["elapsed_ms"]
    code, payload = run_json(["verify-all", "--gen", "k4"], capsys)
    assert code == 0
    assert not any("elapsed_ms" in check for check in payload["checks"])


def test_cli_input_file(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, payload = run_json(["info", "--input", str(path)], capsys)
    assert code == 0
    assert payload["vertices"] == 3


def test_cli_gen_edgelist_round_trip(tmp_path, capsys):
    code = run_command(["gen", "--gen", "prism", "--edgelist"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_edge_list(out) == gen_corpus("prism")


def test_cli_usage_errors(capsys, tmp_path):
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()
    assert run_command(["info", "--gen", "not-a-graph"]) == 2
    capsys.readouterr()
    assert run_command(["info"]) == 2  # neither --gen nor --input
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("oops\n")
    assert run_command(["info", "--input", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, error", [
    (["decompose", "--gen", "k4", "--circuit", "99"], "UniverseMismatch"),
    (["decompose", "--gen", "k4", "--circuit", "-1"], "UniverseMismatch"),
    (["decompose", "--gen", "k4", "--circuit", "0,1"], "NotEven"),
    (["theta", "--gen", "k4", "--thread", "99"], "NotAThread"),
    (["theta", "--gen", "k4", "--thread", "0,1"], "NotAThread"),
    (["decompose", "--gen", "k4", "--circuit", "1,x"], "bad edge id list '1,x'"),
])
def test_bad_circuit_or_thread_is_a_usage_error(argv, error, capsys):
    # an error is named by its type, or in full where parsing rejects a flag
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nscycles: {error}: ") or err == f"nscycles: {error}\n"


def test_cli_domain_failure_exit_code(capsys):
    # enumeration cap exceeded is a failed run, not a usage error
    assert run_command(["circuits", "--gen", "k4", "--cap", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["circuits", "nc", "whitney", "verify-all"])
def test_negative_cap_is_a_usage_error(command, capsys):
    assert run_command([command, "--gen", "k4", "--cap", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--cap: must be non-negative" in err
    assert run_command([command, "--gen", "k4", "--cap", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--cap: invalid int value: 'x'" in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--gen", "k4", "--circuit", "1,2,3,4", "--cap", "5"],
    ["ears", "--gen", "k5", "--cap", "5"],
    ["info", "--gen", "k4", "--timing"],
    ["theta", "--gen", "k4", "--thread", "0", "--cap", "5"],
])
def test_cli_rejects_flags_a_subcommand_does_not_honor(argv, capsys):
    assert run_command(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_seed_requires_gen(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for command in ("gen", "info"):
        assert run_command([command, "--input", str(path), "--seed", "3"]) == 2
        assert "--seed applies only to --gen" in capsys.readouterr().err
    assert run_json(["gen", "--input", str(path)], capsys)[1]["seed"] == 0
    assert run_json(["gen", "--gen", "k4"], capsys)[1]["seed"] == 0
    assert run_json(["gen", "--gen", "k4", "--seed", "3"], capsys)[1]["seed"] == 3


def test_cli_verify_all_rejects_weak_hosts(tmp_path, capsys):
    # a 4-cycle is connected but not 3-connected: the host check fails
    # (exit 1) while the checks needing that hypothesis skip instead of crashing
    path = tmp_path / "square.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    code, payload = run_json(["verify-all", "--input", str(path)], capsys)
    assert code == 1
    by_name = {c["name"]: c for c in payload["checks"]}
    assert not by_name["host_three_connected"]["pass"]
    assert by_name["nc_spans_cycle_space"]["pass"] is None
    assert by_name["nc_spans_cycle_space"]["details"].startswith("skipped")


def test_cli_verify_all_reports_a_skip_as_null(capsys):
    # wheel-11 has 22 edges, past the cut-candidate search: that check did
    # not run, so it neither passes nor fails, and the exit code is 0
    code, payload = run_json(["verify-all", "--gen", "wheel-11"], capsys)
    assert code == 0
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["cocircuit_recovery"]["pass"] is None
    assert by_name["cocircuit_recovery"]["details"].startswith("skipped:")
    assert all(c["pass"] is True for name, c in by_name.items() if name != "cocircuit_recovery")


def test_cli_verify_all_catches_a_wrong_removal(monkeypatch, capsys):
    # the removal test wrongly accepts the first thread it should reject;
    # ear_assembly_reduction re-tests each step with the full test
    real = graph_core._removable
    accepted = []

    def accept_one_bad(lists, i, j):
        reduced = real(lists, i, j)
        if reduced is None and not accepted:
            accepted.append((i, j))
            # the tables of the wrong g - t: H - xy, ends of degree 2 suppressed
            index, nbrs, masks, suppressed = lists
            nbrs = [list(ns) for ns in nbrs]
            nbrs[i].remove(j)
            nbrs[j].remove(i)
            for v in (i, j):
                if len(nbrs[v]) == 2:
                    a, b = nbrs[v]
                    nbrs[a][nbrs[a].index(v)] = b
                    nbrs[b][nbrs[b].index(v)] = a
                    suppressed += (v,)
            masks = [sum({1 << w for w in ns}) for ns in nbrs]
            return index, nbrs, masks, suppressed
        return reduced

    monkeypatch.setattr(graph_core, "_removable", accept_one_bad)
    code, payload = run_json(["verify-all", "--gen", "k5"], capsys)
    assert accepted and code == 1
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["ear_assembly_reduction"] == {
        "name": "ear_assembly_reduction",
        "pass": False,
        "details": "intermediate graph fails the reduction invariant",
    }


def test_cli_verify_all_catches_a_wrong_split(monkeypatch, capsys):
    # the path-chord split returns the circuit itself as both halves: each
    # has the thread as a chord, so lift_circuit's check in the host fails
    split = []

    def unsplit(g, q, x, y, tbits):
        split.append(q)
        return q, q

    monkeypatch.setattr(decomposition, "_halves", unsplit)
    code, payload = run_json(["verify-all", "--gen", "k5"], capsys)
    assert split and code == 1
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["path_chord_split_lifting"] == {
        "name": "path_chord_split_lifting",
        "pass": False,
        "details": "VerificationFailed: lifted circuit is separating in the host",
    }


def test_cli_quiet(capsys):
    assert run_command(["info", "--gen", "k4", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_builds_one_parser_per_process(monkeypatch, capsys):
    # the parser is cached, and each parse fills a fresh namespace, so a
    # flag of one run does not reach the next
    parsed = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsed.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert run_command(["info", "--gen", "k4", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert run_json(["info", "--gen", "k4"], capsys)[0] == 0
    assert run_command(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nscycles")
    assert run_command(["info", "--gen", "k4", "--no-such-flag"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert len(parsed) == 4 and all(p is parsed[0] for p in parsed)


def test_cli_determinism(capsys):
    first = None
    for _ in range(2):
        assert run_command(["verify-all", "--gen", "prism"]) == 0
        out = capsys.readouterr().out
        if first is None:
            first = out
    assert out == first


def test_cli_unreadable_input_is_a_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "absent.txt", tmp_path, binary):
        assert run_command(["info", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"nscycles: cannot read {path}: ")


def _long_cycle(tmp_path, n=3000):
    path = tmp_path / "cycle.txt"
    path.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    return str(path)


def test_cli_blocks_on_a_long_cycle(tmp_path, capsys):
    # deeper than the interpreter's recursion limit
    code, payload = run_json(["blocks", "--input", _long_cycle(tmp_path)], capsys)
    assert code == 0
    assert payload["block_count"] == 1 and payload["cut_vertices"] == []
    assert len(payload["blocks"][0]) == 3000


def test_cli_circuits_on_a_long_cycle(tmp_path, capsys):
    code, payload = run_json(["circuits", "--input", _long_cycle(tmp_path)], capsys)
    assert code == 0
    assert payload["count"] == 1 and payload["circuits"] == [list(range(3000))]


@pytest.mark.parametrize("text", ["0 0\n", "1 0\n"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_on_a_graph_without_edges(command, text, tmp_path, capsys):
    # the null graph and a single vertex: an exit code, never a traceback
    path = tmp_path / "empty.txt"
    path.write_text(text)
    extra = {"decompose": ["--circuit", "0"], "theta": ["--thread", "0"]}.get(command, [])
    assert run_command([command, "--input", str(path), *extra]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
