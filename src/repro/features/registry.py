"""Feature registry: the 37 payload-agnostic features of Table II.

Each :class:`FeatureSpec` records the paper's feature id (f1–f37), name,
group (HLF/GF/HF/TF) and whether the paper introduces it as novel; the
description and the prior work a reused feature cites are comments on
its row.  The registry drives extraction order (feature vector index =
registry order), the Table III feature-group ablation, and the Table IV
ranking labels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["FeatureGroup", "FeatureSpec", "FEATURES", "feature_names",
           "indices_of_groups", "spec_by_name", "NUM_FEATURES"]


class FeatureGroup(enum.Enum):
    """Feature grouping of Table II."""

    HIGH_LEVEL = "HLF"
    GRAPH = "GF"
    HEADER = "HF"
    TEMPORAL = "TF"


@dataclass(frozen=True)
class FeatureSpec:
    """Metadata for one feature column."""

    fid: str
    name: str
    group: FeatureGroup
    novel: bool = True


_H = FeatureGroup.HIGH_LEVEL
_G = FeatureGroup.GRAPH
_F = FeatureGroup.HEADER
_T = FeatureGroup.TEMPORAL

#: Table II, in feature-vector order.  Above each row: the paper's
#: description and, for a reused feature, the work it cites.
FEATURES: tuple[FeatureSpec, ...] = (
    # whether origin is known or not [25]
    FeatureSpec("f1", "origin", _H, novel=False),
    # whether X-Flash version is set
    FeatureSpec("f2", "x_flash_version", _H),
    # size of a WCG (transactions) [12]
    FeatureSpec("f3", "wcg_size", _H, novel=False),
    # number of unique hosts involved in the WCG
    FeatureSpec("f4", "conversation_length", _H),
    # average URIs per host [9]
    FeatureSpec("f5", "avg_uris_per_host", _H, novel=False),
    # average URI length
    FeatureSpec("f6", "avg_uri_length", _H),
    # number of nodes in a WCG [12, 25]
    FeatureSpec("f7", "order", _G, novel=False),
    # number of edges of a WCG [12]
    FeatureSpec("f8", "size", _G, novel=False),
    # number of edges a node shares with other nodes (max)
    FeatureSpec("f9", "degree", _G),
    # closeness of edge count to the maximum possible [12]
    FeatureSpec("f10", "density", _G, novel=False),
    # sum of node degrees over all nodes
    FeatureSpec("f11", "volume", _G),
    # longest distance between node pairs [12]
    FeatureSpec("f12", "diameter", _G, novel=False),
    # average incoming edges per node
    FeatureSpec("f13", "avg_in_degree", _G),
    # average outgoing edges per node
    FeatureSpec("f14", "avg_out_degree", _G),
    # likelihood of nodes to be mutually linked
    FeatureSpec("f15", "reciprocity", _G),
    # average of number of ties a node has
    FeatureSpec("f16", "avg_degree_centrality", _G),
    # average reciprocal of summed distances to all other nodes
    FeatureSpec("f17", "avg_closeness_centrality", _G),
    # average fraction of shortest paths through a node
    FeatureSpec("f18", "avg_betweenness_centrality", _G),
    # average fraction of all shortest paths through a node
    FeatureSpec("f19", "avg_load_centrality", _G),
    # average node connectivity (disconnecting-set size)
    FeatureSpec("f20", "avg_node_centrality", _G),
    # average clustering coefficient [12]
    FeatureSpec("f21", "avg_clustering_coefficient", _G, novel=False),
    # average degree of a node's neighbors
    FeatureSpec("f22", "avg_neighbor_degree", _G),
    # average degree of connected nodes
    FeatureSpec("f23", "avg_degree_connectivity", _G),
    # average number of nodes within k hops of each node
    FeatureSpec("f24", "avg_k_nearest_neighbors", _G),
    # average PageRank importance of a node
    FeatureSpec("f25", "avg_pagerank", _G),
    # total GET methods in a WCG
    FeatureSpec("f26", "gets", _F),
    # total POST methods in a WCG
    FeatureSpec("f27", "posts", _F),
    # total less-common methods (PUT, DELETE, ...)
    FeatureSpec("f28", "other_methods", _F),
    # total informational responses
    FeatureSpec("f29", "http_10x", _F),
    # total success responses
    FeatureSpec("f30", "http_20x", _F),
    # total redirection responses
    FeatureSpec("f31", "http_30x", _F),
    # total client-error responses
    FeatureSpec("f32", "http_40x", _F),
    # total server-error responses
    FeatureSpec("f33", "http_50x", _F),
    # URIs with referrer set [16, 25]
    FeatureSpec("f34", "referrer_ctrs", _F, novel=False),
    # URIs with empty referrer [16, 25]
    FeatureSpec("f35", "no_referrer_ctrs", _F, novel=False),
    # average duration to access a single URI (seconds)
    FeatureSpec("f36", "duration", _T),
    # average time between consecutive transactions (seconds)
    FeatureSpec("f37", "avg_inter_transaction_time", _T),
)

NUM_FEATURES = len(FEATURES)

_BY_NAME = {spec.name: index for index, spec in enumerate(FEATURES)}


def feature_names() -> list[str]:
    """All feature names in vector order."""
    return [spec.name for spec in FEATURES]


def indices_of_groups(groups: set[FeatureGroup]) -> list[int]:
    """Vector indices of the features belonging to ``groups``."""
    return [i for i, spec in enumerate(FEATURES) if spec.group in groups]


def spec_by_name(name: str) -> FeatureSpec:
    """Look up a :class:`FeatureSpec` by its short name."""
    try:
        return FEATURES[_BY_NAME[name]]
    except KeyError:
        raise KeyError(f"unknown feature {name!r}") from None
