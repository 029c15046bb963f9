"""Graph-centric features f7–f25 (Table II, GFs).

The nineteen features split into two cost tiers:

* :func:`scalar_graph_features` (this module) — order/size/degree/
  density/volume and the degree averages.  All are exact functions of
  the integer counters the WCG maintains per mutation, so reading them
  is O(1).
* the topology tier (:mod:`repro.features.topology`) — diameter,
  reciprocity, centralities, connectivity, clustering, k-hop reach.
  These run real graph algorithms, but every one of them is
  *multiplicity-invariant*: it depends only on the node set and the set
  of distinct host pairs, so it only changes when
  ``WebConversationGraph.structure_version`` moves — which is what lets
  the extractor cache them across edge-multiplicity-only updates.

Note on ``avg_pagerank``: the mean of PageRank values over all nodes is
identically ``1/order``.  Table IV confirms the authors computed exactly
this — Avg-pagerank, Avg-load-centrality, Avg-closeness-centrality and
Order all share the same gain ratio (0.309 ± 0.011), which only happens
when they are deterministic transforms of one another on this data.  We
keep the paper-faithful definition.
"""

from __future__ import annotations

from repro.core.wcg import WebConversationGraph

__all__ = ["scalar_graph_features"]


def scalar_graph_features(wcg: WebConversationGraph) -> dict[str, float]:
    """The counter-backed graph features — O(1), no graph traversal.

    Each value is an exact integer identity of the edge-walk
    formulation: max degree is a running maximum (degrees only grow),
    volume is twice the edge count (every edge contributes one in- and
    one out-degree), density reads the distinct-pair counter that equals
    the simple digraph's edge count.
    """
    counters = wcg.counters
    order = wcg.order
    size = wcg.size
    return {
        "order": float(order),
        "size": float(size),
        "degree": float(counters.max_degree) if order else 0.0,
        "density": (
            counters.distinct_pairs / (order * (order - 1))
            if order > 1
            else 0.0
        ),
        "volume": float(2 * size),
        "avg_in_degree": size / order if order else 0.0,
        "avg_out_degree": size / order if order else 0.0,
        # Paper-faithful: mean PageRank == 1/order exactly (PageRank
        # values sum to 1 over the graph; see module docstring), so the
        # power iteration is pure waste — compute the identity directly.
        "avg_pagerank": 1.0 / order if order > 0 else 0.0,
    }
