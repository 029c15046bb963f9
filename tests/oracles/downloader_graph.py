"""Reference downloader-graph features: the networkx formulation.

The original ``repro.baselines.downloader_graph`` body (string-named
nodes in an ``nx.DiGraph``, networkx diameter / density / clustering),
moved here when the baseline switched to dense ids and the shared
topology kernels; ``tests/test_baselines.py`` compares the two row by
row.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.model import Trace
from repro.core.payloads import is_downloadable


def downloader_features(trace: Trace) -> np.ndarray:
    """The [12]-style feature vector for one trace."""
    graph = nx.DiGraph()
    # host -> most recent download node served from (or referred by) it
    last_download_via: dict[str, str] = {}
    for index, txn in enumerate(trace.transactions):
        if txn.status != 200 or not is_downloadable(txn.payload_type):
            continue
        node = f"file{index}:{txn.request.uri.split('?')[0]}"
        graph.add_node(
            node,
            host=txn.server,
            size=txn.payload_size,
            ptype=txn.payload_type.value,
            timestamp=txn.timestamp,
        )
        ref_host = txn.request.referrer_host
        parent = last_download_via.get(ref_host) or last_download_via.get(
            txn.server
        )
        if parent is not None and parent != node:
            graph.add_edge(parent, node)
        last_download_via[txn.server] = node
        if ref_host:
            last_download_via.setdefault(ref_host, node)
    order = graph.number_of_nodes()
    size = graph.number_of_edges()
    undirected = graph.to_undirected()
    if order > 1:
        components = [
            undirected.subgraph(c)
            for c in nx.connected_components(undirected)
        ]
        diameter = max(
            (nx.diameter(c) for c in components if c.number_of_nodes() > 1),
            default=0,
        )
        density = nx.density(graph)
        clustering = nx.average_clustering(undirected)
    else:
        diameter = 0
        density = 0.0
        clustering = 0.0
    out_degrees = [d for _, d in graph.out_degree()]
    sizes = [data["size"] for _, data in graph.nodes(data=True)]
    hosts = {data["host"] for _, data in graph.nodes(data=True)}
    stamps = sorted(
        data["timestamp"] for _, data in graph.nodes(data=True)
    )
    if len(stamps) > 1 and stamps[-1] > stamps[0]:
        growth = 60.0 * (len(stamps) - 1) / (stamps[-1] - stamps[0])
    else:
        growth = 0.0
    return np.array([
        float(order),
        float(size),
        float(diameter),
        float(density),
        float(clustering),
        float(max(out_degrees, default=0)),
        float(sum(sizes)),
        float(np.mean(sizes)) if sizes else 0.0,
        float(len(hosts)),
        growth,
    ])
