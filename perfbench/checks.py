"""Output checks made apart from the library.

Nothing here imports ``nscycles``: every figure is recomputed from the input
edge list with plain breadth-first search, GF(2) elimination on integer
bitmasks, and networkx's ``chordless_cycles`` as the reference for the
non-separating circuit catalog.  A graph is a pair ``(vertices, edges)``:
``vertices`` is a list of vertex ids and ``edges`` a list of ``[u, v]``
pairs indexed by edge id.

Each ``check_*`` function returns a list of error strings, empty when the
output is correct.  Each ``selftest_*`` function corrupts one correct
output and returns an error string if the matching checker fails to reject
it.
"""

from __future__ import annotations

import copy
import re
from collections import deque


class Host:
    """A graph given by its edge list, with the adjacency the checks need."""

    def __init__(self, vertices, edges):
        self.vertices = set(vertices)
        self.psi = {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(edges)}
        self.adj = {v: [] for v in self.vertices}
        for e, (u, v) in self.psi.items():
            self.adj[u].append((e, v))
            if u != v:
                self.adj[v].append((e, u))

    @property
    def dimension(self) -> int:
        return len(self.psi) - len(self.vertices) + 1


def _bits(ids) -> int:
    out = 0
    for e in ids:
        out |= 1 << e
    return out


def _ids(bits: int) -> list[int]:
    return [e for e in range(bits.bit_length()) if bits >> e & 1]


def _connected(vertices, adj, allowed_edges=None) -> bool:
    """BFS over ``vertices`` along edges of ``adj`` whose both ends stay in
    ``vertices`` (and whose id is in ``allowed_edges`` when given)."""
    if len(vertices) <= 1:
        return True
    start = next(iter(vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e, w in adj[v]:
            if w in vertices and w not in seen and (
                allowed_edges is None or e in allowed_edges
            ):
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def circuit_vertices(host: Host, ids) -> set | None:
    """Vertex set of the edge set if it is a connected 2-regular subgraph."""
    ids = set(ids)
    if not ids or any(e not in host.psi for e in ids):
        return None
    degree: dict = {}
    for e in ids:
        u, v = host.psi[e]
        if u == v:
            return None
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return None
    verts = set(degree)
    return verts if _connected(verts, host.adj, ids) else None


def peripheral_error(host: Host, ids) -> str | None:
    """Why the edge set is not a peripheral circuit (chordless, with
    G - V(C) connected), or None when it is one."""
    verts = circuit_vertices(host, ids)
    if verts is None:
        return "not a connected 2-regular edge set"
    ids = set(ids)
    for e, (u, v) in host.psi.items():
        if e not in ids and u in verts and v in verts:
            return f"edge {e} is a chord"
    if not _connected(host.vertices - verts, host.adj):
        return "G - V(C) is disconnected"
    return None


def gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            col = r.bit_length() - 1
            if col not in pivots:
                pivots[col] = r
                break
            r ^= pivots[col]
    return len(pivots)


def fundamental_cycles(host: Host) -> list[int]:
    """Fundamental circuits of the spanning tree that takes the lowest edge
    ids first, one per non-tree edge in ascending id order, as bitmasks."""
    parent = {v: v for v in host.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree_adj: dict = {v: [] for v in host.vertices}
    non_tree = []
    for e in sorted(host.psi):
        u, v = host.psi[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            non_tree.append(e)
        else:
            parent[ru] = rv
            tree_adj[u].append((e, v))
            tree_adj[v].append((e, u))
    out = []
    for e in non_tree:
        a, b = host.psi[e]
        prev = {a: None}
        queue = deque([a])
        while b not in prev:
            v = queue.popleft()
            for f, w in tree_adj[v]:
                if w not in prev:
                    prev[w] = (v, f)
                    queue.append(w)
        bits = 1 << e
        v = b
        while prev[v] is not None:
            v, f = prev[v]
            bits |= 1 << f
        out.append(bits)
    return out


def _has_cut_vertex(vertices, adj) -> bool:
    """Iterative Hopcroft-Tarjan articulation test on the subgraph induced
    by ``vertices`` (assumed connected, with at least three vertices)."""
    start = next(iter(vertices))
    disc = {start: 0}
    low = {start: 0}
    root_children = 0
    counter = 1
    stack = [(start, None, iter(adj[start]))]
    while stack:
        v, parent_edge, it = stack[-1]
        advanced = False
        for e, w in it:
            if w not in vertices or e == parent_edge or w == v:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
                continue
            disc[w] = low[w] = counter
            counter += 1
            stack.append((w, e, iter(adj[w])))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if u == start:
                root_children += 1
            elif low[v] >= disc[u]:
                return True
    return root_children > 1


def is_simple_3_connected(vertices, psi) -> bool:
    """Simple, at least four vertices, and no one or two vertices whose
    removal disconnects it (every G - v is connected with no cut vertex)."""
    vertices = set(vertices)
    pairs = list(psi.values())
    if any(u == v for u, v in pairs) or len(set(pairs)) != len(pairs):
        return False
    if len(vertices) < 4:
        return False
    adj = {v: [] for v in vertices}
    for e, (u, v) in psi.items():
        adj[u].append((e, v))
        adj[v].append((e, u))
    if not _connected(vertices, adj):
        return False
    for v in vertices:
        rest = vertices - {v}
        if not _connected(rest, adj) or _has_cut_vertex(rest, adj):
            return False
    return True


def suppress(vertices, psi):
    """Branch vertices and thread end pairs of a graph, or None when the
    thread partition is undefined (a closed run of degree-2 vertices)."""
    adj = {v: [] for v in vertices}
    for e, (u, v) in psi.items():
        adj[u].append((e, v))
        if u != v:
            adj[v].append((e, u))
    branch = {v for v in vertices if len(adj[v]) != 2}
    threads = {}
    covered = set()
    for v in branch:
        for e, w in adj[v]:
            if e in covered:
                continue
            covered.add(e)
            first, prev, cur = e, e, w
            while cur not in branch:
                step = [(f, x) for f, x in adj[cur] if f != prev]
                if len(step) != 1:
                    return None
                prev, cur = step[0]
                covered.add(prev)
            threads[min(first, prev)] = (min(v, cur), max(v, cur))
    if covered != set(psi):
        return None
    return branch, threads


def is_top_3_connected(vertices, psi) -> bool:
    """A subdivision of a simple 3-connected graph."""
    if not psi:
        return False
    adj = {v: [] for v in vertices}
    for e, (u, v) in psi.items():
        adj[u].append((e, v))
        adj[v].append((e, u))
    if not _connected(set(vertices), adj):
        return False
    suppressed = suppress(vertices, psi)
    if suppressed is None:
        return False
    branch, threads = suppressed
    return is_simple_3_connected(branch, threads)


def is_top_k4(vertices, psi) -> bool:
    suppressed = suppress(vertices, psi)
    if suppressed is None:
        return False
    branch, threads = suppressed
    pairs = list(threads.values())
    return (
        len(branch) == 4
        and len(pairs) == 6
        and len(set(pairs)) == 6
        and all(u != v for u, v in pairs)
    )


# -- verify_corpus --------------------------------------------------------

_RANK = re.compile(r"rank (\d+), dimension (\d+)")
_SPAN = re.compile(r"(\d+) circuits span dimension (\d+)")


def check_verify_report(graph: dict, output: dict) -> list[str]:
    host = Host(graph["vertices"], graph["edges"])
    errors = []
    if not is_simple_3_connected(host.vertices, host.psi):
        errors.append("input graph is not simple and 3-connected")
    if output["rc"] != 0:
        errors.append(f"verify-all exit code {output['rc']}")
    checks = {c["name"]: c for c in output["report"]["checks"]}
    for name, c in checks.items():
        if c.get("pass") is not True:
            errors.append(f"check {name} failed: {c.get('details')}")
    dim = host.dimension
    rank = _RANK.search(checks.get("cycle_space_rank", {}).get("details", ""))
    if not rank or (int(rank[1]), int(rank[2])) != (dim, dim):
        errors.append(f"cycle_space_rank does not report rank = dimension = {dim}")
    span = _SPAN.search(checks.get("nc_spans_cycle_space", {}).get("details", ""))
    if not span or int(span[2]) != dim:
        errors.append(f"nc_spans_cycle_space does not report dimension {dim}")
    return errors


def selftest_verify_report(graph: dict, output: dict) -> str | None:
    bad = copy.deepcopy(output)
    bad["report"]["checks"][0]["pass"] = False
    if not check_verify_report(graph, bad):
        return "verify-all checker accepted a report with a check flipped to fail"
    return None


# -- decompose_sweep ------------------------------------------------------

def check_certificate(graph: dict, output: dict) -> list[str]:
    host = Host(graph["vertices"], graph["edges"])
    errors = []
    if sorted(output["target"]) != sorted(graph["target"]):
        errors.append("certificate target differs from the requested target")
    total = 0
    for part in output["parts"]:
        total ^= _bits(part)
        why = peripheral_error(host, part)
        if why:
            errors.append(f"part {part}: {why}")
    if total != _bits(graph["target"]):
        errors.append("XOR of the parts differs from the target")
    if len({tuple(sorted(p)) for p in output["parts"]}) != len(output["parts"]):
        errors.append("a part is repeated")
    return errors


def selftest_certificate(graph: dict, output: dict) -> str | None:
    bad = copy.deepcopy(output)
    bad["parts"] = bad["parts"][1:]
    if not check_certificate(graph, bad):
        return "certificate checker accepted a certificate with one part dropped"
    return None


# -- nc_catalog -----------------------------------------------------------

def reference_peripheral_cycles(host: Host) -> set[int]:
    """Peripheral circuits as bitmasks, from networkx ``chordless_cycles``
    filtered by connectivity of G - V(C)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(host.vertices)
    pair_to_edge = {}
    for e, (u, v) in host.psi.items():
        g.add_edge(u, v)
        pair_to_edge[(u, v)] = e
    out = set()
    for cycle in nx.chordless_cycles(g):
        if len(cycle) < 3:
            continue
        ids = [
            pair_to_edge[(min(a, b), max(a, b))]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        ]
        if _connected(host.vertices - set(cycle), host.adj):
            out.add(_bits(ids))
    return out


def check_catalog(graph: dict, output: dict) -> list[str]:
    host = Host(graph["vertices"], graph["edges"])
    reference = reference_peripheral_cycles(host)
    errors = []
    members = [_bits(c) for c in output["circuits"]]
    for c in output["circuits"]:
        why = peripheral_error(host, c)
        if why:
            errors.append(f"member {c}: {why}")
    if len(set(members)) != len(members):
        errors.append("a member is repeated")
    rank = gf2_rank(members)
    if rank != host.dimension:
        errors.append(f"members have rank {rank}, not |E|-|V|+1 = {host.dimension}")
    basis = fundamental_cycles(host)
    expressions = output["basis_expressions"]
    if len(expressions) != len(basis):
        errors.append(f"{len(expressions)} basis expressions for {len(basis)} fundamental circuits")
    for k, (coefficients, want) in enumerate(zip(expressions, basis)):
        total = 0
        for i in coefficients:
            total ^= members[i]
        if total != want:
            errors.append(f"basis expression {k} does not replay to its fundamental circuit")
    if set(members) != reference:
        errors.append(
            f"catalog has {len(set(members))} circuits; networkx finds "
            f"{len(reference)} peripheral cycles"
        )
    return errors


def selftest_catalog(graph: dict, output: dict) -> str | None:
    host = Host(graph["vertices"], graph["edges"])
    members = [_bits(c) for c in output["circuits"]]
    chorded = None
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            x = a ^ b
            if (a & b).bit_count() == 1 and circuit_vertices(host, _ids(x)):
                chorded = x
                break
        if chorded is not None:
            break
    if chorded is None:
        return "catalog self-test found no chorded circuit to add"
    bad = copy.deepcopy(output)
    bad["circuits"].append(list(_ids(chorded)))
    if not check_catalog(graph, bad):
        return "catalog checker accepted a catalog with a chorded circuit added"
    return None


# -- ears_sweep -----------------------------------------------------------

def _thread_error(vertices, psi, edges, path) -> str | None:
    if len(path) != len(edges) + 1 or len(set(path)) != len(path) or not edges:
        return "malformed thread"
    for e, u, v in zip(edges, path, path[1:]):
        if psi.get(e) != (min(u, v), max(u, v)):
            return f"edge {e} does not join {u} and {v}"
    degree: dict = {v: 0 for v in vertices}
    for u, v in psi.values():
        degree[u] += 1
        degree[v] += 1
    if any(degree[v] != 2 for v in path[1:-1]):
        return "an inner vertex does not have degree 2"
    if degree[path[0]] == 2 or degree[path[-1]] == 2:
        return "an end vertex has degree 2"
    return None


def check_ears(graph: dict, output: dict) -> list[str]:
    vertices = set(graph["vertices"])
    psi = {e: (min(u, v), max(u, v)) for e, (u, v) in enumerate(graph["edges"])}
    want_steps = len(psi) - len(vertices) - 2
    errors = []
    if not is_top_3_connected(vertices, psi):
        errors.append("input is not a subdivision of a simple 3-connected graph")
    for k, step in enumerate(output["steps"]):
        why = _thread_error(vertices, psi, step["thread"], step["vertices"])
        if why:
            errors.append(f"step {k}: {why}")
            return errors
        for e in step["thread"]:
            del psi[e]
        vertices -= set(step["vertices"][1:-1])
        if not is_top_3_connected(vertices, psi):
            errors.append(f"step {k}: result is not a subdivision of a 3-connected graph")
            return errors
    if not is_top_k4(vertices, psi):
        errors.append("terminal graph does not suppress to K4")
    terminal = output["terminal"]
    emitted = {e: (min(u, v), max(u, v)) for e, u, v in terminal["edges"]}
    if set(terminal["vertices"]) != vertices or emitted != psi:
        errors.append("emitted terminal differs from the replayed one")
    if len(output["steps"]) != want_steps:
        errors.append(f"{len(output['steps'])} steps, expected |E|-|V|-2 = {want_steps}")
    return errors


def selftest_ears(graph: dict, output: dict) -> str | None:
    bad = copy.deepcopy(output)
    bad["steps"] = bad["steps"][:-1]
    if not check_ears(graph, bad):
        return "ear checker accepted a sequence with one step removed"
    return None
