"""Reference topology features: the networkx walk (f12, f15–f24).

The original formulation of the eleven algorithmic graph features, moved
here when ``repro.features.topology`` became the only production path.
It builds its ``nx.DiGraph`` from the WCG's public views (``hosts()`` +
``edges()``) — independently of ``structure_key`` — and shares exactly
one thing with the kernels under test: the seeded pair sample of
:func:`repro.features.topology.sample_connectivity_pairs`.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

from repro.core.wcg import WebConversationGraph
from repro.features.topology import (
    _CONNECTIVITY_PAIR_CAP,
    _mean,
    sample_connectivity_pairs,
)

def simple_graph(
    wcg: WebConversationGraph, include_origin: bool = True
) -> nx.DiGraph:
    """Collapse parallel edges into a simple digraph (multiplicity kept
    as ``weight``), inserting nodes and adjacencies in sorted order so
    every float computed over it depends on the graph's content, not on
    the builder's insertion order (DESIGN.md §9).
    """
    simple = nx.DiGraph()
    for host in sorted(wcg.hosts()):
        if not include_origin and host == wcg.origin:
            continue
        simple.add_node(host)
    multiplicity = Counter(
        (source, target) for source, target, _ in wcg.edges()
    )
    for source, target in sorted(multiplicity):
        if not include_origin and wcg.origin in (source, target):
            continue
        simple.add_edge(source, target, weight=multiplicity[(source, target)])
    return simple


def average_node_connectivity_sampled(
    graph: nx.Graph,
    pair_cap: int = _CONNECTIVITY_PAIR_CAP,
    seed: int | None = None,
) -> float:
    """Average local node connectivity over (a sample of) node pairs.

    Exact for graphs whose pair count is below ``pair_cap``; otherwise a
    deterministic sample of pairs is used — seeded from the graph order
    by default, or from an explicit ``seed`` for reproducible runs.

    The auxiliary flow network and residual network are built once and
    reused across all pairs — the naive per-pair rebuild dominates WCG
    feature-extraction time otherwise.
    """
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    nodes = list(graph.nodes)
    count = len(nodes)
    if count < 2:
        return 0.0
    pairs = [
        (nodes[a], nodes[b])
        for a, b in sample_connectivity_pairs(count, pair_cap, seed)
    ]
    auxiliary = build_auxiliary_node_connectivity(graph)
    residual = build_residual_network(auxiliary, "capacity")
    total = 0.0
    for a, b in pairs:
        total += local_node_connectivity(
            graph, a, b, auxiliary=auxiliary, residual=residual
        )
    return total / len(pairs)


def avg_nodes_within_k(graph: nx.Graph, k: int = 2) -> float:
    """Average number of nodes within ``k`` hops of each node (f24)."""
    if graph.number_of_nodes() == 0:
        return 0.0
    total = 0
    for node in graph.nodes:
        lengths = nx.single_source_shortest_path_length(graph, node, cutoff=k)
        total += len(lengths) - 1  # exclude the node itself
    return total / graph.number_of_nodes()


def topology_features(wcg: WebConversationGraph) -> dict[str, float]:
    """The eleven algorithmic graph features of one WCG, via networkx."""
    simple = simple_graph(wcg)
    undirected = simple.to_undirected()
    order = simple.number_of_nodes()

    features: dict[str, float] = {}
    if order > 1 and nx.is_connected(undirected):
        features["diameter"] = float(nx.diameter(undirected))
    elif order > 1:
        components = (
            undirected.subgraph(c) for c in nx.connected_components(undirected)
        )
        features["diameter"] = float(
            max(
                (nx.diameter(c) for c in components if c.number_of_nodes() > 1),
                default=0,
            )
        )
    else:
        features["diameter"] = 0.0
    features["reciprocity"] = (
        float(nx.overall_reciprocity(simple))
        if simple.number_of_edges() > 0
        else 0.0
    )
    features["avg_degree_centrality"] = _mean(
        nx.degree_centrality(simple).values()
    ) if order > 1 else 0.0
    features["avg_closeness_centrality"] = _mean(
        nx.closeness_centrality(simple).values()
    ) if order > 1 else 0.0
    features["avg_betweenness_centrality"] = _mean(
        nx.betweenness_centrality(simple, normalized=True).values()
    ) if order > 2 else 0.0
    features["avg_load_centrality"] = _mean(
        nx.load_centrality(undirected, normalized=True).values()
    ) if order > 2 else 0.0
    features["avg_node_centrality"] = average_node_connectivity_sampled(
        undirected
    )
    features["avg_clustering_coefficient"] = (
        float(nx.average_clustering(undirected)) if order > 2 else 0.0
    )
    features["avg_neighbor_degree"] = _mean(
        nx.average_neighbor_degree(undirected).values()
    ) if order > 1 else 0.0
    degree_conn = nx.average_degree_connectivity(undirected)
    features["avg_degree_connectivity"] = _mean(degree_conn.values())
    features["avg_k_nearest_neighbors"] = avg_nodes_within_k(undirected, k=2)
    return features
