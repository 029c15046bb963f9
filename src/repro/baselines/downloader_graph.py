"""Downloader-graph baseline, after Kwon et al. [12] ("The Dropper
Effect", CCS 2015).

The abstraction the paper explicitly contrasts with (Section IV-A):
nodes are *downloaded files* and edges connect a downloaded file to the
files whose retrieval it caused — the inverse of the WCG, where payloads
are edge attributes and hosts are nodes.  Features are the
downloader-graph properties [12] classifies on: growth, diameter,
density, clustering, and file-size aggregates.

Used as a comparative baseline: training the same ERF on these features
quantifies what DynaMiner's *comprehensive* conversation abstraction
adds over a download-only view.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.model import Trace
from repro.core.payloads import is_downloadable
from repro.features.topology import (
    clustering_avg,
    diameter_and_knearest,
    und_adjacency,
)

__all__ = ["DOWNLOADER_FEATURES", "build_download_graph",
           "downloader_features", "extract_matrix"]

DOWNLOADER_FEATURES = (
    "dg_order",            # downloaded files
    "dg_size",             # provenance edges
    "dg_diameter",
    "dg_density",
    "dg_avg_clustering",
    "dg_max_out_degree",
    "dg_total_bytes",
    "dg_mean_bytes",
    "dg_distinct_hosts",
    "dg_growth_rate",      # downloads per minute
)


def build_download_graph(
    trace: Trace,
) -> tuple[list[tuple[str, int, float]], list[tuple[int, int]]]:
    """Build the [12]-style download graph for one trace.

    Returns ``(files, edges)``.  Node ``i`` is the ``i``-th downloaded
    file, annotated ``files[i] = (serving host, size, timestamp)``.  An
    edge ``(a, b)`` means the conversation that delivered file ``a``
    (identified by its serving host) later led, via referrer lineage,
    to the download of ``b``; a file has at most one parent, so the
    list carries no duplicates.
    """
    files: list[tuple[str, int, float]] = []
    edges: list[tuple[int, int]] = []
    # host -> most recent download node served from (or referred by) it
    last_download_via: dict[str, int] = {}
    for txn in trace.transactions:
        if txn.status != 200 or not is_downloadable(txn.payload_type):
            continue
        node = len(files)
        files.append((txn.server, txn.payload_size, txn.timestamp))
        ref_host = txn.request.referrer_host
        parent = last_download_via.get(ref_host)
        if parent is None:
            parent = last_download_via.get(txn.server)
        if parent is not None:
            edges.append((parent, node))
        last_download_via[txn.server] = node
        if ref_host:
            last_download_via.setdefault(ref_host, node)
    return files, edges


def downloader_features(trace: Trace) -> np.ndarray:
    """The [12]-style feature vector for one trace."""
    files, edges = build_download_graph(trace)
    order = len(files)
    size = len(edges)
    if order > 1:
        undirected = und_adjacency(order, edges)
        diameter, _ = diameter_and_knearest(order, undirected)
        density = size / (order * (order - 1))
        clustering = clustering_avg(order, undirected)
    else:
        diameter = density = clustering = 0.0
    out_degrees = Counter(parent for parent, _ in edges)
    sizes = [nbytes for _, nbytes, _ in files]
    stamps = sorted(stamp for _, _, stamp in files)
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
        float(max(out_degrees.values(), default=0)),
        float(sum(sizes)),
        float(np.mean(sizes)) if sizes else 0.0,
        float(len({host for host, _, _ in files})),
        growth,
    ])


def extract_matrix(traces: list[Trace]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over labelled traces using downloader-graph features."""
    rows, labels = [], []
    for trace in traces:
        if trace.label is None:
            continue
        rows.append(downloader_features(trace))
        labels.append(1.0 if trace.is_infection else 0.0)
    if not rows:
        return np.empty((0, len(DOWNLOADER_FEATURES))), np.empty(0)
    return np.vstack(rows), np.array(labels)
