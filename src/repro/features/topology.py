"""Bit-exact structural topology kernels (DESIGN.md §14).

The eleven expensive graph features (f12, f15–f24) are functions of the
WCG's *ordered structure* alone: the node count and the set of distinct
directed host pairs, with nodes taken in sorted-name order (so the
result depends on the graph's content, not on the builder's insertion
order — DESIGN.md §9).  This module computes them from that structure
directly — integer BFS/flow kernels plus float reductions performed in
exactly the operation order networkx uses — so the values are
**bit-identical** to the networkx reference the differential tests run
(``tests/oracles/topology.py``) while skipping all graph-object
construction.

Because the inputs are pure structure, results are shared across
graphs: two WCGs whose rank-pair sets coincide (common under real
traffic — sessions repeat shapes) hit the same cache entry.  The
bounded LRU lives in :class:`repro.features.extractor.FeatureExtractor`.

Exactness notes (verified against networkx 3.x on corpus + random
graphs, exact float equality):

* diameter / k-hop reach / closeness ride integer BFS; the only float
  ops are the final divisions, replicated verbatim.
* clustering, neighbor degree, degree connectivity, degree centrality
  accumulate integers and divide in node order.
* sampled node connectivity is a unit-capacity max-flow (integer
  values); the reference draws its pairs from the same
  :func:`sample_connectivity_pairs` stream.
* betweenness (Brandes) and load (Newman) transcribe the networkx
  implementations operation for operation onto flat rank-indexed
  lists — identical because the reference graph's insertion order *is*
  sorted-name order, so rank indexing preserves every node/neighbor
  iteration order (and hence every float accumulation order) networkx
  sees, including load's ``(level, node)`` sort and betweenness's
  stack-pop accumulation.
"""

from __future__ import annotations

import numpy as np

from repro.core.wcg import WebConversationGraph

__all__ = ["structure_key", "structural_topology_features",
           "sample_connectivity_pairs", "und_adjacency",
           "diameter_and_knearest", "clustering_avg"]

#: Pair-sample cap for average node connectivity on large graphs.
_CONNECTIVITY_PAIR_CAP = 120


def structure_key(wcg: WebConversationGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Content-addressed structure of a WCG's canonical projection.

    ``(n_nodes, sorted rank pairs)`` where ranks index the sorted host
    list.  Equal keys => equal simple graphs up to relabeling => equal
    topology features (they never read names or weights).
    """
    hosts = sorted(wcg.hosts())
    rank = {host: i for i, host in enumerate(hosts)}
    pairs = tuple(sorted(
        (rank[source], rank[target])
        for source, target in wcg._pair_multiplicity
    ))
    return len(hosts), pairs


def und_adjacency(n: int, pairs) -> list[list[int]]:
    """Undirected adjacency lists, neighbor order matching
    ``DiGraph.to_undirected()`` on the sorted-insertion projection."""
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if v not in seen[u]:
            seen[u].add(v)
            adj[u].append(v)
            seen[v].add(u)
            adj[v].append(u)
    return adj


def _bfs_dists(adj: list[list[int]], src: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[src] = 0
    queue = [src]
    for v in queue:
        dv = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
    return dist


def diameter_and_knearest(n: int, und: list[list[int]]) -> tuple[float, float]:
    """f12 (max component diameter) and f24 (mean nodes within 2 hops),
    sharing one all-sources BFS sweep."""
    if n == 0:
        return 0.0, 0.0
    ecc_max = 0
    within2 = 0
    for s in range(n):
        dist = _bfs_dists(und, s, n)
        reached_max = max(d for d in dist if d >= 0)
        if reached_max > ecc_max:
            ecc_max = reached_max
        within2 += sum(1 for d in dist if 1 <= d <= 2)
    diameter = float(ecc_max) if n > 1 else 0.0
    return diameter, within2 / n


def _closeness_vals(n: int, pairs) -> list[float]:
    """Per-node closeness centrality, nx formula verbatim (reversed-
    adjacency BFS, Wasserman–Faust-free nx default)."""
    radj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        radj[v].append(u)
    vals = []
    for s in range(n):
        dist = _bfs_dists(radj, s, n)
        totsp = 0
        reached = 0
        for d in dist:
            if d >= 0:
                reached += 1
                totsp += d
        c = 0.0
        if totsp > 0 and n > 1:
            c = (reached - 1.0) / totsp
            c *= (reached - 1.0) / (n - 1)
        vals.append(c)
    return vals


def _degree_centrality_vals(n: int, pairs) -> list[float]:
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    scale = 1.0 / (n - 1.0)
    return [d * scale for d in deg]


def clustering_avg(n: int, und: list[list[int]]) -> float:
    """nx ``average_clustering``: per-node triangle ratio, then mean."""
    nbrs = [set(a) for a in und]
    coeffs = []
    for v in range(n):
        vs = nbrs[v]
        d = len(vs)
        triangles = sum(len(vs & nbrs[w]) for w in vs)
        coeffs.append(0 if triangles == 0 else triangles / (d * (d - 1)))
    return sum(coeffs) / len(coeffs)


def _neighbor_degree_vals(n: int, und: list[list[int]]) -> list[float]:
    deg = [len(a) for a in und]
    vals = []
    for v in range(n):
        d = deg[v]
        if d == 0:
            vals.append(0.0)
        else:
            vals.append(sum(deg[w] for w in und[v]) / d)
    return vals


def _degree_connectivity_vals(n: int, und: list[list[int]]) -> list[float]:
    """Values of nx ``average_degree_connectivity`` in its key-insertion
    (node-scan) order."""
    deg = [len(a) for a in und]
    dsum: dict[int, int] = {}
    dnorm: dict[int, int] = {}
    for v in range(n):
        k = deg[v]
        dsum[k] = dsum.get(k, 0) + sum(deg[w] for w in und[v])
        dnorm[k] = dnorm.get(k, 0) + k
    return [total if dnorm[k] == 0 else total / dnorm[k]
            for k, total in dsum.items()]


def _betweenness_vals(n: int, pairs) -> list[float]:
    """Brandes betweenness on the directed rank graph, nx verbatim.

    Same BFS discovery order (successors in sorted-pair order), same
    ``sigma`` float accumulation, same stack-pop ``delta`` pass, same
    ``1 / ((n-1) * (n-2))`` normalization — so every intermediate float
    equals what ``nx.betweenness_centrality(G, normalized=True)``
    produces on the sorted-insertion projection.  Caller guards n > 2.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        succ[u].append(v)
    bet = [0.0] * n
    for s in range(n):
        # _single_source_shortest_path_basic
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s] = 1.0
        dist[s] = 0
        queue = [s]
        for v in queue:
            stack.append(v)
            dv = dist[v] + 1
            sigmav = sigma[v]
            for w in succ[v]:
                if dist[w] < 0:
                    queue.append(w)
                    dist[w] = dv
                if dist[w] == dv:
                    sigma[w] += sigmav
                    preds[w].append(v)
        # _accumulate_basic (delta starts as *int* zero, as in nx)
        delta: list[float] = [0] * n
        for w in reversed(stack):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bet[w] += delta[w]
    scale = 1 / ((n - 1) * (n - 2))
    return [b * scale for b in bet]


def _load_vals(n: int, und: list[list[int]]) -> list[float]:
    """Newman load centrality on the undirected projection, nx verbatim.

    Replicates ``nx.load_centrality(G.to_undirected(),
    normalized=True)``: per-source ``nx.predecessor`` level BFS, the
    ``(path length, node)`` sort (rank order == sorted-name order, so
    the tiebreak matches the reference's name sort), the reverse-pop
    credit pass with its early ``break`` at the source, and the final
    ``1.0 / ((n-1) * (n-2))`` scale.  Caller guards n > 2.
    """
    bet = [0.0] * n
    pred: list[list[int]] = [[] for _ in range(n)]
    level_of = [-1] * n
    credit = [0.0] * n
    for source in range(n):
        # nx.predecessor(G, source, return_seen=True)
        level = 0
        level_of[source] = 0
        pred[source] = []
        seen = [source]
        nextlevel = [source]
        while nextlevel:
            level += 1
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in und[v]:
                    if level_of[w] < 0:
                        pred[w] = [v]
                        level_of[w] = level
                        nextlevel.append(w)
                        seen.append(w)
                    elif level_of[w] == level:
                        pred[w].append(v)
        # _node_betweenness: pop nodes in reverse (level, node) order
        onodes = sorted((level_of[v], v) for v in seen)
        for v in seen:
            credit[v] = 1.0
        for _, v in reversed(onodes):
            if v == source:
                continue  # the l > 0 filter
            vpred = pred[v]
            num_paths = len(vpred)
            share = credit[v] / num_paths
            for x in vpred:
                if x == source:
                    break
                credit[x] += share
        for v in seen:
            bet[v] += credit[v] - 1
            level_of[v] = -1  # reset for the next source
    scale = 1.0 / ((n - 1) * (n - 2))
    return [b * scale for b in bet]


def sample_connectivity_pairs(
    count: int,
    pair_cap: int = _CONNECTIVITY_PAIR_CAP,
    seed: int | None = None,
) -> list[tuple[int, int]]:
    """The (i, j) index pairs connectivity averages over, i < j.

    All pairs when there are at most ``pair_cap``; otherwise a seeded
    sample (default seed derived from ``count``, so the same graph order
    always draws the same pairs).  Both :func:`_node_connectivity_sampled`
    and the networkx reference in ``tests/oracles/topology.py`` route
    through this one function — sharing the rng stream *and* the
    enumeration order is what keeps their f20 values bit-identical.
    """
    if count < 2:
        return []
    pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
    if len(pairs) <= pair_cap:
        return pairs
    if seed is None:
        seed = count * 2654435761 % (2**32)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=pair_cap, replace=False)
    return [pairs[int(i)] for i in chosen]


def _build_flow_net(n: int, und: list[list[int]]):
    """Node-split unit-capacity flow network as flat arc arrays.

    Built once per structure; per-pair max-flow runs reset the capacity
    array instead of rebuilding the network (the rebuild dominated the
    naive kernel's runtime).
    """
    to: list[int] = []
    rev: list[int] = []
    init_cap: list[int] = []
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]

    def add(u: int, v: int, cap: int) -> None:
        arcs[u].append((len(to), v))
        to.append(v)
        init_cap.append(cap)
        rev.append(len(to))
        arcs[v].append((len(to), u))
        to.append(u)
        init_cap.append(0)
        rev.append(len(to) - 2)

    for v in range(n):
        add(2 * v, 2 * v + 1, 1)
    for u in range(n):
        for w in und[u]:
            add(2 * u + 1, 2 * w, 1)
    return to, rev, init_cap, arcs


def _maxflow(to, rev, init_cap, adj, cap, s, t, n2, touched, bound) -> int:
    """Edmonds–Karp on the prepared arc arrays (integer flow value).

    The flow value is an exact integer, so the shortcuts here cannot
    perturb results: BFS stops the moment the sink is labeled (its
    parent chain is already a shortest augmenting path), augmentation
    stops at ``bound`` — ``min(deg(a), deg(b))`` is a true cut, making
    the would-be final path-less BFS provably futile — and only arcs an
    augmentation actually touched are reset between pairs.
    """
    for i in touched:
        cap[i] = init_cap[i]
    del touched[:]
    flow = 0
    while flow < bound:
        parent = [-1] * n2
        parent[s] = s
        queue = [s]
        found = False
        for v in queue:
            for a, w in adj[v]:
                if cap[a] > 0 and parent[w] < 0:
                    parent[w] = a
                    if w == t:
                        found = True
                        break
                    queue.append(w)
            if found:
                break
        if not found:
            return flow
        v = t
        while v != s:
            a = parent[v]
            cap[a] -= 1
            cap[rev[a]] += 1
            touched.append(a)
            touched.append(rev[a])
            v = to[rev[a]]
        flow += 1
    return flow


def _node_connectivity_sampled(n: int, und: list[list[int]]) -> float:
    """f20 — mean local node connectivity over the shared pair sample.

    Pair selection goes through :func:`sample_connectivity_pairs` with
    the default order-derived seed, so this kernel and the networkx
    reference evaluate the *same* pairs and the integer flow totals sum
    in the same order.
    """
    if n < 2:
        return 0.0
    index_pairs = sample_connectivity_pairs(n)
    to, rev, init_cap, arcs = _build_flow_net(n, und)
    cap = list(init_cap)
    touched: list[int] = []
    deg = [len(a) for a in und]
    total = 0.0
    for a, b in index_pairs:
        bound = deg[a] if deg[a] < deg[b] else deg[b]
        total += _maxflow(to, rev, init_cap, arcs, cap,
                          2 * a + 1, 2 * b, 2 * n, touched, bound)
    return total / len(index_pairs)


def _mean(values) -> float:
    collected = list(values)
    if not collected:
        return 0.0
    return float(np.mean(collected))


def structural_topology_features(
    n: int, pairs: tuple[tuple[int, int], ...]
) -> dict[str, float]:
    """The eleven topology features of one :func:`structure_key`.

    Bit-identical to the networkx reference on the WCG the key was
    taken from (see module docstring for why).
    """
    und = und_adjacency(n, pairs)
    features: dict[str, float] = {}

    diameter, knearest = diameter_and_knearest(n, und)
    features["diameter"] = diameter

    n_directed = len(pairs)
    if n_directed:
        n_undirected = sum(len(a) for a in und) // 2
        features["reciprocity"] = float(
            (n_directed - n_undirected) * 2 / n_directed
        )
    else:
        features["reciprocity"] = 0.0

    features["avg_degree_centrality"] = (
        _mean(_degree_centrality_vals(n, pairs)) if n > 1 else 0.0
    )
    features["avg_closeness_centrality"] = (
        _mean(_closeness_vals(n, pairs)) if n > 1 else 0.0
    )

    if n > 2:
        features["avg_betweenness_centrality"] = _mean(
            _betweenness_vals(n, pairs)
        )
        features["avg_load_centrality"] = _mean(_load_vals(n, und))
        features["avg_clustering_coefficient"] = clustering_avg(n, und)
    else:
        features["avg_betweenness_centrality"] = 0.0
        features["avg_load_centrality"] = 0.0
        features["avg_clustering_coefficient"] = 0.0

    features["avg_node_centrality"] = _node_connectivity_sampled(n, und)
    features["avg_neighbor_degree"] = (
        _mean(_neighbor_degree_vals(n, und)) if n > 1 else 0.0
    )
    features["avg_degree_connectivity"] = _mean(
        _degree_connectivity_vals(n, und)
    )
    features["avg_k_nearest_neighbors"] = knearest
    return features
