"""Independent brute-force oracles used to cross-check library results.

Everything here recomputes from first principles (subset enumeration,
union-find, BFS) and deliberately avoids the library's own algorithms;
only the Graph/EdgeSet data accessors are shared.  The two exceptions run
library steps another way: :func:`decompose_by_peeling` evaluates the
induction in another order, and :func:`lifting_pairs_by_enumeration`
finds the lifting step's split pairs among every circuit, not the catalog.
:func:`ear_levels` rebuilds the graphs of the ear walk, which the library
keeps as tables only, beside those tables.
:func:`random_3connected_by_pair_list` keeps the random3c generator's
earlier form, which lists every nonadjacent pair for each edge it adds, and
:func:`bonds_by_bipartition` the bond enumeration's, which tries every
vertex bipartition.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from types import SimpleNamespace


def reachable(adj: dict, start) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def adjacency_from_pairs(vertices, pairs) -> dict:
    adj = {v: [] for v in vertices}
    for u, v in pairs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def connected_after_removing(g, removed_vertices) -> bool:
    removed = set(removed_vertices)
    left = [v for v in g.vertices if v not in removed]
    if len(left) <= 1:
        return True
    pairs = [g.psi[e] for e in g.edges
             if g.psi[e][0] not in removed and g.psi[e][1] not in removed]
    adj = adjacency_from_pairs(left, pairs)
    return len(reachable(adj, left[0])) == len(left)


def k_connected_by_removal(g, k) -> bool:
    """Vertex k-connectivity of the underlying simple graph: |V| > k and
    no vertex set of size < k disconnects it, trying every such set."""
    verts = sorted(g.vertices)
    if len(verts) <= k:
        return False
    return all(
        connected_after_removing(g, removed)
        for size in range(k)
        for removed in combinations(verts, size)
    )


def cut_vertices_by_removal(g) -> set:
    base = components_count(g)
    out = set()
    for v in g.vertices:
        rest = [w for w in g.vertices if w != v]
        if not rest:
            continue
        pairs = [g.psi[e] for e in g.edges if v not in g.psi[e]]
        adj = adjacency_from_pairs(rest, pairs)
        comps = 0
        seen: set = set()
        for w in rest:
            if w not in seen:
                comps += 1
                seen |= reachable(adj, w)
        if comps > base:
            out.add(v)
    return out


def components_count(g) -> int:
    adj = adjacency_from_pairs(g.vertices, [g.psi[e] for e in g.edges])
    comps = 0
    seen: set = set()
    for v in g.vertices:
        if v not in seen:
            comps += 1
            seen |= reachable(adj, v)
    return comps


def contract_by_union_find(g, edge_ids):
    """Independent contraction: returns (vertex_map, {edge: mapped pair})."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in edge_ids:
        u, v = g.psi[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    rep = {root: min(members) for root, members in groups.items()}
    vertex_map = {v: rep[find(v)] for v in g.vertices}
    survivors = {
        e: tuple(sorted((vertex_map[g.psi[e][0]], vertex_map[g.psi[e][1]])))
        for e in g.edges
        if e not in set(edge_ids)
    }
    return vertex_map, survivors


def is_circuit_edge_set(g, edge_ids) -> bool:
    """Connected and 2-regular on its incident vertices; loops count twice."""
    ids = list(edge_ids)
    if not ids:
        return False
    deg: dict = {}
    for e in ids:
        u, v = g.psi[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    pairs = [g.psi[e] for e in ids]
    adj = adjacency_from_pairs(deg.keys(), pairs)
    start = next(iter(deg))
    if len(ids) == 1:  # a single loop
        return pairs[0][0] == pairs[0][1]
    return len(reachable(adj, start)) == len(deg)


def brute_circuits(g) -> set[frozenset]:
    """All circuits by testing every nonempty edge subset.  Small m only."""
    ids = sorted(g.edges)
    out = set()
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            if is_circuit_edge_set(g, combo):
                out.add(frozenset(combo))
    return out


def even_degrees(g, edge_ids) -> bool:
    deg: dict = {}
    for e in edge_ids:
        u, v = g.psi[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(d % 2 == 0 for d in deg.values())


def subset_sums_matching(rows: list[frozenset], target: frozenset) -> list[tuple[int, ...]]:
    """All index subsets whose symmetric difference equals the target."""
    out = []
    for size in range(len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            acc: frozenset = frozenset()
            for i in combo:
                acc = acc ^ rows[i]
            if acc == target:
                out.append(combo)
    return out


def is_minimal_edge_cut(g, edge_ids) -> bool:
    """Removal disconnects; removal of any proper subset does not."""
    ids = set(edge_ids)
    if not ids:
        return False

    def connected_without(cut: set) -> bool:
        pairs = [g.psi[e] for e in g.edges if e not in cut]
        adj = adjacency_from_pairs(g.vertices, pairs)
        return len(reachable(adj, min(g.vertices))) == len(g.vertices)

    if connected_without(ids):
        return False
    for e in ids:
        if not connected_without(ids - {e}):
            return False
    return True


def bonds_by_bipartition(g) -> list[tuple[tuple[int, ...], frozenset]]:
    """(sorted edge ids, side) of every bond of the connected graph ``g``,
    sorted by edge ids: each of the 2^(n-1) sides holding the least vertex
    is kept when it and its complement are both connected."""
    verts = sorted(g.vertices)
    anchor, rest = verts[0], verts[1:]
    out = []
    for size in range(len(rest)):
        for extra in combinations(rest, size):
            side = frozenset((anchor,) + extra)
            other = g.vertices - side
            halves = [(side, anchor), (other, min(other))]
            if all(len(reachable(adjacency_from_pairs(part, [
                    (u, v) for u, v in g.psi.values() if u in part and v in part]), start))
                   == len(part) for part, start in halves):
                cut = tuple(sorted(e for e, (u, v) in g.psi.items() if (u in side) != (v in side)))
                out.append((cut, side))
    out.sort(key=lambda bond: bond[0])
    return out


def theta_pairs_by_search(nc_members, thread_edges, thread_vertices) -> list:
    """All ordered-by-index pairs of catalog members meeting exactly in the thread."""
    tedges = set(thread_edges)
    tverts = set(thread_vertices)
    out = []
    for i, a in enumerate(nc_members):
        for b in nc_members[i + 1:]:
            if (
                set(a.edges.ids()) & set(b.edges.ids()) == tedges
                and set(a.vertex_cycle) & set(b.vertex_cycle) == tverts
            ):
                out.append((a, b))
    return out


def circuits_by_cycle_space(g) -> set[frozenset]:
    """All circuits of a graph: the members of its cycle space (XORs of the
    fundamental cycles of a BFS forest, one tree per component from its
    least vertex) that are connected and 2-regular.  Costs 2^(m - n + c)
    cycle-space members, c the number of components."""
    parent: dict = {}  # vertex -> (parent, tree edge)
    for root in sorted(g.vertices):
        if root in parent:
            continue
        parent[root] = (None, None)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in sorted(g.edges):
                a, b = g.psi[e]
                if v in (a, b):
                    w = b if v == a else a
                    if w not in parent:
                        parent[w] = (v, e)
                        queue.append(w)
    tree = {e for _, e in parent.values() if e is not None}

    def root_path(v) -> int:
        bits = 0
        while parent[v][0] is not None:
            v, e = parent[v]
            bits |= 1 << e
        return bits

    basis = [
        1 << e ^ root_path(g.psi[e][0]) ^ root_path(g.psi[e][1])
        for e in sorted(g.edges) if e not in tree
    ]
    out = set()
    for size in range(1, len(basis) + 1):
        for combo in combinations(basis, size):
            bits = 0
            for row in combo:
                bits ^= row
            ids = [e for e in sorted(g.edges) if bits >> e & 1]
            if is_circuit_edge_set(g, ids):
                out.add(frozenset(ids))
    return out


def split_by_enumeration(g, q_ids, t_edges) -> set[frozenset]:
    """The circuits of ``g`` inside the edges of the circuit q and the
    thread t, other than q, as edge-id sets: every circuit of that
    subgraph, by :func:`circuits_by_cycle_space`.  When t is a path-chord
    of q these are the two halves of its split; else there are none."""
    ids = set(q_ids) | set(t_edges)
    psi = {e: g.psi[e] for e in ids}
    sub = SimpleNamespace(vertices={v for p in psi.values() for v in p}, edges=ids, psi=psi)
    return circuits_by_cycle_space(sub) - {frozenset(q_ids)}


def block_count_by_removal(vertices, pairs) -> int:
    """Blocks of a connected multigraph given by endpoint pairs.  Each loop
    is a block of its own.  The other edges form 1 + sum over v of
    (components of G - v) - 1 blocks, by counting the edges of the
    block-cut tree: a vertex lies in as many blocks as G - v has components.
    """
    loops = sum(1 for u, v in pairs if u == v)
    if loops == len(pairs):
        return loops
    count = 1 + loops
    for cut in vertices:
        rest = [w for w in vertices if w != cut]
        adj = adjacency_from_pairs(rest, [p for p in pairs if cut not in p])
        seen: set = set()
        for w in rest:
            if w not in seen:
                count += 1
                seen |= reachable(adj, w)
        count -= 1
    return count


def separating_by_block_count(g, edge_ids) -> bool:
    """Contracting the circuit leaves more blocks than the host has."""
    vertex_map, survivors = contract_by_union_find(g, edge_ids)
    before = block_count_by_removal(sorted(g.vertices), [g.psi[e] for e in g.edges])
    after = block_count_by_removal(sorted(set(vertex_map.values())), list(survivors.values()))
    return after > before


def nc_by_block_count(g) -> list[tuple[int, ...]]:
    """Sorted edge ids of every non-separating circuit, in sorted order:
    every circuit is contracted and its blocks counted."""
    return sorted(
        tuple(sorted(c)) for c in circuits_by_cycle_space(g)
        if not separating_by_block_count(g, c)
    )


def _vertices_of(g, edge_ids) -> frozenset:
    return frozenset(v for e in edge_ids for v in g.psi[e])


def _bridge_edge_count(g, circuit, anchor) -> int:
    """Edges of the bridge of ``circuit`` holding ``anchor``, a path outside
    it with its ends on it: 1 for a chord, else the component of G - V(C)
    holding the anchor's inner vertices with every edge touching it."""
    on_cycle = _vertices_of(g, circuit)
    inner = _vertices_of(g, anchor) - on_cycle
    if not inner:
        return 1
    rest = [v for v in g.vertices if v not in on_cycle]
    pairs = [g.psi[e] for e in g.edges if not on_cycle.intersection(g.psi[e])]
    component = reachable(adjacency_from_pairs(rest, pairs), min(inner))
    return sum(1 for e in g.edges if component.intersection(g.psi[e]))


def _circuits_through(g, t, circuits) -> list:
    """(sorted edge ids, vertex set) of each of ``circuits`` (edge id sets)
    holding thread ``t``, in sorted order."""
    return [
        (c, _vertices_of(g, c))
        for c in sorted(tuple(sorted(c)) for c in circuits)
        if set(t.edges).issubset(c)
    ]


def _partners(through, ref, t) -> list:
    """Circuits of ``through`` meeting ``ref``, one of them, exactly in the
    thread, by edges and by vertices."""
    tedges, tverts = set(t.edges), set(t.vertices)
    rverts = dict(through)[ref]
    return [c for c, cverts in through
            if set(c) & set(ref) == tedges and cverts & rverts == tverts]


def theta_by_enumeration(g, t, circuits) -> tuple:
    """The theta pair of thread ``t`` as (first, second) sorted edge ids,
    from ``circuits``, every circuit of ``g``: first is the fewest-edge
    circuit through t that :func:`separating_by_block_count` calls
    non-separating, the first by sorted ids; second is first's partner
    whose bridge holding first's remainder has the most edges, the
    earliest winning ties."""
    through = _circuits_through(g, t, circuits)
    first = next(c for c in sorted((c for c, _ in through), key=lambda c: (len(c), c))
                 if not separating_by_block_count(g, c))
    anchor = set(first) - set(t.edges)
    return first, max(_partners(through, first, t),
                      key=lambda c: _bridge_edge_count(g, c, anchor))


def theta_by_catalog(g, t, catalog) -> tuple:
    """The theta pair of thread ``t`` as (first, second) sorted edge ids,
    filtered out of ``catalog``, every non-separating circuit of ``g`` in
    sorted order: first is the fewest-edge member through t, the first by
    sorted ids; second is the member meeting first exactly in t, by edges
    and by vertices, whose bridge holding first's remainder has the most
    edges, the earliest winning ties.  Every alpha maximizer is
    non-separating, so the catalog holds them."""
    tedges, tverts = set(t.edges), set(t.vertices)
    through = [(c.edges.ids(), set(c.vertex_cycle)) for c in catalog
               if tedges.issubset(c.edges.ids())]
    first, fverts = min(through, key=lambda pair: (len(pair[0]), pair[0]))
    anchor = set(first) - tedges
    second = max(
        (c for c, cverts in through
         if set(c) & set(first) == tedges and cverts & fverts == tverts),
        key=lambda c: _bridge_edge_count(g, c, anchor),
    )
    return first, second


def induced_paths_by_enumeration(h, start, allowed, ends) -> list[tuple]:
    """Every induced path of the simple graph ``h`` that leaves ``start``
    through vertices of ``allowed`` and whose last vertex, and no other
    after ``start``, is in ``ends``, as (its vertices but the last, its edge
    bitmask, its last vertex): every such simple path is listed, and kept
    when no two of its vertices that are not consecutive on it are
    adjacent."""
    edge_of = {v: {} for v in h.vertices}
    for e, (u, v) in h.psi.items():
        edge_of[u][v] = edge_of[v][u] = e
    paths = []
    stack = [[start]]
    while stack:
        path = stack.pop()
        for w in edge_of[path[-1]]:
            if w in allowed and w not in path:
                (paths if w in ends else stack).append(path + [w])
    out = []
    for p in paths:
        if any(p[j] in edge_of[p[i]] for i in range(len(p)) for j in range(i + 2, len(p))):
            continue
        bits = 0
        for a, b in zip(p, p[1:]):
            bits |= 1 << edge_of[a][b]
        out.append((tuple(p[:-1]), bits, p[-1]))
    return out


def minimal_cut_candidates_by_subsets(g, nc) -> list[tuple[int, ...]]:
    """Sorted edge ids of every inclusion-minimal nonempty edge set that no
    member of ``nc`` meets in exactly one edge, by size, then by edge ids:
    every edge subset is tried in size order, supersets of one already
    found skipped.  Costs 2^m subsets."""
    member_bits = [c.edges.bits for c in nc.members]
    found: list[int] = []
    out = []
    ids = sorted(g.edges)
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            bits = 0
            for e in combo:
                bits |= 1 << e
            if (all((mb & bits).bit_count() != 1 for mb in member_bits)
                    and not any(fb & bits == fb for fb in found)):
                found.append(bits)
                out.append(combo)
    return out


def _runs(g):
    """The branch vertices of ``g`` (degree other than 2) and the end pair
    of each maximal degree-2 run between them, listed once from either
    end; None if ``g`` has no edge or is disconnected."""
    inc = {v: [] for v in g.vertices}
    for e in g.edges:
        u, v = g.psi[e]
        inc[u].append((e, v))
        inc[v].append((e, u))
    adj = adjacency_from_pairs(g.vertices, [g.psi[e] for e in g.edges])
    if not g.edges or len(reachable(adj, next(iter(g.vertices)))) != len(g.vertices):
        return None
    branch = {v for v, pairs in inc.items() if len(pairs) != 2}
    ends = []
    for v in branch:
        for e, w in inc[v]:
            while w not in branch:
                e, w = next(p for p in inc[w] if p[0] != e)
            ends.append(frozenset((v, w)))
    return branch, ends


def top_k4_by_suppression(g) -> bool:
    """Suppressing every degree-2 vertex of ``g`` leaves K4: ``g`` is
    connected, every maximal degree-2 run joins two distinct branch
    vertices, and the runs join 4 branch vertices pairwise, once each."""
    runs = _runs(g)
    if runs is None:
        return False
    branch, ends = runs
    return (len(branch) == 4 and len(ends) == 12 and len(set(ends)) == 6
            and all(len(pair) == 2 for pair in ends))


def top_3_connected_by_suppression(g) -> bool:
    """Suppressing every degree-2 vertex of ``g`` leaves a simple
    3-connected graph: ``g`` is connected, every maximal degree-2 run joins
    two distinct branch vertices, no two runs join the same pair, and no
    two branch vertices disconnect the graph of the runs."""
    runs = _runs(g)
    if runs is None:
        return False
    branch, ends = runs
    pairs = [tuple(pair) for pair in set(ends)]
    if 2 * len(pairs) != len(ends) or any(len(pair) != 2 for pair in pairs):
        return False
    h = SimpleNamespace(vertices=branch, edges=range(len(pairs)), psi=pairs)
    return k_connected_by_removal(h, 3)


def decompose_by_peeling(g, x) -> list[tuple]:
    """(sorted edge ids, vertex cycle) of each part of the decomposition of
    the even set ``x`` of ``g``, in sorted order, evaluated circuit by
    circuit down the ear sequence: peel the set into edge-disjoint
    circuits and decompose each.  A circuit avoiding the removed thread t
    is decomposed in g - t; one through t is toggled with the first circuit
    of t's theta pair and the leftover is peeled and decomposed in g - t.
    Every part from g - t is lifted to g, and parts occurring an even
    number of times cancel.  At the K4 terminal a circuit is expressed in
    the non-separating catalog.  Unlike the rest of this module it runs
    the library's own steps (reduction, theta pair, lift, peel, catalog);
    only the order of evaluation differs from the library's."""
    from nscycles import (Gf2Matrix, even_subgraph_to_circuits, express_in_span,
                          lift_circuit, non_separating_circuits)
    from nscycles.decomposition import _chain, _theta

    steps = _chain(g)[0]
    levels = [h for h, _ in ear_levels(g)]  # the graphs of the ear sequence, host first
    terminal = levels[-1]
    catalog = non_separating_circuits(terminal).members
    matrix = Gf2Matrix.from_rows([c.edges for c in catalog], terminal.universe)
    memo: dict = {}

    def cancel(parts) -> list:
        odd: dict = {}
        for c in parts:
            odd[c] = not odd.get(c, False)
        return [c for c, keep in odd.items() if keep]

    def decompose(level, circ) -> list:
        if (level, circ) in memo:
            return memo[level, circ]
        h = levels[level]
        if h is terminal:
            out = [catalog[i] for i in express_in_span(circ.edges, matrix).coefficients]
        else:
            t = steps[level][0]
            parts, rest = [], circ.edges
            if set(t.edges) <= set(circ.edges.ids()):
                p = _theta(g, level, t, t.endpoints)
                parts, rest = [p], rest ^ p.edges
            for piece in even_subgraph_to_circuits(levels[level + 1], rest):
                for q in decompose(level + 1, piece):
                    parts.extend(lift_circuit(h, t, q))
            out = cancel(parts)
        memo[level, circ] = out
        return out

    parts = cancel(q for piece in even_subgraph_to_circuits(g, x) for q in decompose(0, piece))
    return sorted((c.edges.ids(), c.vertex_cycle) for c in parts)


def ear_levels(g) -> list[tuple]:
    """(g_i, g_i's tables as the ear walk keeps them) for each level of the
    ear walk of top-3-connected ``g``, the terminal last: g_0 = g with its
    own ``_lists``, and each g_i after it rebuilt from the last by
    ``thread_delete``, beside the tables the walk derived for it."""
    from nscycles import thread_delete
    from nscycles.decomposition import _chain
    from nscycles.graph_core import _lists

    levels = [(g, _lists(g))]
    for t, _, lists in _chain(g)[0]:
        levels.append((thread_delete(levels[-1][0], t), lists))
    return levels


def lifting_pairs_by_enumeration(g) -> list[tuple]:
    """(thread edges, circuit edge ids) for each path-chord split of the
    induction down the ear sequence of ``g``: at each step (g_i, t, g_i - t),
    every circuit of g_i - t, all of them enumerated, that is non-separating
    there and that t path-chords in g_i."""
    from nscycles import (ear_sequence, enumerate_circuits, is_path_chord, is_separating,
                          thread_delete)

    pairs = []
    current = g
    for _, t in ear_sequence(g).steps:
        reduced = thread_delete(current, t)
        for c in enumerate_circuits(reduced):
            if not is_separating(reduced, c) and is_path_chord(current, c, t):
                pairs.append((t.edges, c.edges.ids()))
        current = reduced
    return pairs


def random_3connected_by_pair_list(n_target, rng) -> list[tuple[int, int]]:
    """The sorted edge pairs of random3c-``n_target`` drawn from ``rng``,
    by the generator's moves with each added edge chosen from the list of
    every nonadjacent pair (u, v), u < v, in sorted order."""
    base = n_target - 1 if n_target <= 5 else rng.randint(4, min(6, n_target - 1))
    n = base + 1
    adj = {v: set() for v in range(n)}
    for i in range(1, base + 1):
        for u, v in ((i, i % base + 1), (0, i)):
            adj[u].add(v)
            adj[v].add(u)

    def add_random_edge() -> bool:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]
        if not pairs:
            return False
        u, v = rng.choice(pairs)
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
        moved = neighbors[rng.randint(2, len(neighbors) - 2):]
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
        if not split_random_vertex() and not add_random_edge():
            raise RuntimeError("no applicable extension move")
    for _ in range(rng.randint(0, 2)):
        add_random_edge()
    return sorted((u, v) for u in adj for v in adj[u] if u < v)
