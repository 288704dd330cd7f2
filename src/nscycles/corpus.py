"""Named test-corpus graphs and seeded 3-connected generators."""

from __future__ import annotations

import random

from .errors import GenerationFailed, InputTooLarge, UnknownName
from .graph_core import Graph, build_graph, is_k_connected

# The largest N of wheel-N and random3c-N; random3c counts the non-adjacent
# pairs at every vertex, O(N + |E|), for each edge it adds, and runs an
# O(N (N + |E|)) 3-connectivity test on the result.
MAX_GEN_N = 1024


def _complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _k33() -> Graph:
    return build_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


def _wheel(n: int) -> Graph:
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    spokes = [(0, i) for i in range(1, n + 1)]
    return build_graph(n + 1, rim + spokes)


def _prism() -> Graph:
    return build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def _random_3connected(n_target: int, rng: random.Random) -> Graph:
    # Grow from a wheel by 3-connectivity-preserving moves: adding an edge
    # between nonadjacent vertices, or splitting a vertex of degree >= 4 so
    # both halves keep at least two of its old neighbors.
    base = n_target - 1 if n_target <= 5 else rng.randint(4, min(6, n_target - 1))
    wheel = _wheel(base)
    n = base + 1
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in wheel.psi.values():
        adj[u].add(v)
        adj[v].add(u)

    def add_random_edge() -> bool:
        # The k-th nonadjacent pair (u, v), u < v, in sorted order, found
        # from each u's count of such pairs: rng.choice(range(total)) makes
        # the draw that rng.choice makes on the list of those pairs.
        total = n * (n - 1) // 2 - sum(map(len, adj.values())) // 2
        if not total:
            return False
        k = rng.choice(range(total))
        for u in range(n):
            free = n - 1 - u - sum(w > u for w in adj[u])
            if k < free:
                break
            k -= free
        v = [v for v in range(u + 1, n) if v not in adj[u]][k]
        adj[u].add(v)
        adj[v].add(u)
        return True

    def split_random_vertex() -> bool:
        nonlocal n
        candidates = sorted(v for v in adj if len(adj[v]) >= 4)
        if not candidates:
            return False
        v = rng.choice(candidates)
        neighbors = sorted(adj[v])
        rng.shuffle(neighbors)
        k = rng.randint(2, len(neighbors) - 2)
        moved = neighbors[k:]
        new = n
        n += 1
        adj[new] = set()
        for w in moved:
            adj[v].discard(w)
            adj[w].discard(v)
            adj[new].add(w)
            adj[w].add(new)
        adj[v].add(new)
        adj[new].add(v)
        return True

    while n < n_target:
        if rng.random() < 0.25 and add_random_edge():
            continue
        if not split_random_vertex():
            if not add_random_edge():
                raise GenerationFailed("no applicable extension move")
    for _ in range(rng.randint(0, 2)):
        add_random_edge()

    pairs = sorted((u, v) for u in adj for v in adj[u] if u < v)
    g = build_graph(n_target, pairs)
    if not is_k_connected(g, 3):
        raise GenerationFailed("generated graph failed the 3-connectivity check")
    return g


def _bounded(n: int) -> int:
    if n > MAX_GEN_N:
        raise InputTooLarge(f"size {n} exceeds the generator bound of {MAX_GEN_N}")
    return n


def gen_corpus(name: str, seed: int = 0) -> Graph:
    """Build a named corpus graph, deterministically for a given seed.

    Names: k4, k5, k6, k33, wheel-N (N >= 3), prism, petersen,
    random3c-N (N >= 4); N is at most MAX_GEN_N.
    """
    if name == "k4":
        return _complete(4)
    if name == "k5":
        return _complete(5)
    if name == "k6":
        return _complete(6)
    if name == "k33":
        return _k33()
    if name == "prism":
        return _prism()
    if name == "petersen":
        return _petersen()
    if name.startswith("wheel-"):
        try:
            n = int(name.split("-", 1)[1])
        except ValueError:
            raise UnknownName(f"bad wheel size in {name!r}") from None
        if n < 3:
            raise UnknownName("wheel size must be at least 3")
        return _wheel(_bounded(n))
    if name.startswith("random3c-"):
        try:
            n = int(name.split("-", 1)[1])
        except ValueError:
            raise UnknownName(f"bad size in {name!r}") from None
        if n < 4:
            raise UnknownName("random3c size must be at least 4")
        return _random_3connected(_bounded(n), random.Random(f"{name}:{seed}"))
    raise UnknownName(f"unknown corpus graph {name!r}")


def subdivide_every_edge(g: Graph) -> Graph:
    """Place one new vertex on every edge of a simple graph: with g's
    vertices renumbered 0..|V|-1 in order, the one on its i-th edge by id
    is |V| + i, so vertices 0..n-1 and edges 0..m-1 keep their labels."""
    label = {v: i for i, v in enumerate(sorted(g.vertices))}
    pairs = []
    for mid, e in enumerate(sorted(g.edges), len(label)):
        u, v = g.psi[e]
        pairs += [(label[u], mid), (mid, label[v])]
    return build_graph(len(label) + len(g.edges), pairs)
