"""Reference feature assembly: the vectorised matrix pass that was
``repro.features.batch`` until ``extract_batch`` started filling rows
through the scalar row routine (DESIGN.md §14).

:func:`assemble_rows` builds the ``(n_graphs, 37)`` design matrix in one
pass: the cheap tiers (high-level, scalar-graph, header, temporal) are
gathered into integer arrays — one element per graph — and reduced with
guarded ``np.divide`` columns instead of per-graph python dict
construction; the topology tier arrives precomputed (cached per
structure by the caller) and is scattered into its columns.

Bit-identity contract: every cell equals what the scalar path
(:meth:`repro.features.extractor.FeatureExtractor.extract`) produces for
the same graph.  The arithmetic argument, pinned by
``tests/features/test_columnar_equivalence.py``:

* all counter reads are int64 → float64 conversions, exact below 2**53;
* ``np.divide`` on float64 operands is the same IEEE-754 operation as
  python's ``int / int`` after its exact int→float conversion, and the
  ``where=`` guard reproduces the scalar ``if b else 0.0`` branches;
* f37 keeps the per-graph ``np.mean(np.diff(...))`` reduction — it is
  order-sensitive in float64 and must match the scalar path verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.core.wcg import WebConversationGraph
from repro.exceptions import FeatureError
from repro.features.registry import FEATURES, NUM_FEATURES

__all__ = ["assemble_rows"]

#: feature name -> vector column index.
_IDX = {spec.name: index for index, spec in enumerate(FEATURES)}

#: Topology-tier names, scattered from the extractor's per-structure rows.
_TOPOLOGY_NAMES = (
    "diameter", "reciprocity", "avg_degree_centrality",
    "avg_closeness_centrality", "avg_betweenness_centrality",
    "avg_load_centrality", "avg_node_centrality",
    "avg_clustering_coefficient", "avg_neighbor_degree",
    "avg_degree_connectivity", "avg_k_nearest_neighbors",
)


def _guarded_divide(
    numerator: np.ndarray, denominator: np.ndarray
) -> np.ndarray:
    """Elementwise ``a / b if b else 0.0`` in float64."""
    out = np.zeros(len(numerator), dtype=np.float64)
    np.divide(
        numerator.astype(np.float64),
        denominator.astype(np.float64),
        out=out,
        where=denominator != 0,
    )
    return out


def assemble_rows(
    graphs: list[WebConversationGraph],
    topology_rows: list[dict[str, float]],
) -> np.ndarray:
    """The ``(len(graphs), 37)`` feature matrix, one vectorized pass.

    ``topology_rows[i]`` must hold the eleven topology features of
    ``graphs[i]`` (the extractor supplies them from its structural
    cache).  Raises :class:`FeatureError` on non-finite cells, naming
    the offending features like the scalar path does.
    """
    n = len(graphs)
    matrix = np.empty((n, NUM_FEATURES), dtype=np.float64)
    if n == 0:
        return matrix

    counters = [wcg.counters for wcg in graphs]
    order = np.array([wcg.order for wcg in graphs], dtype=np.int64)
    size = np.array([wcg.size for wcg in graphs], dtype=np.int64)
    total_uris = np.array([c.total_uris for c in counters], dtype=np.int64)
    uri_hosts = np.array([c.uri_hosts for c in counters], dtype=np.int64)
    total_uri_length = np.array(
        [c.total_uri_length for c in counters], dtype=np.int64
    )

    # -- high-level tier (f1–f6) ------------------------------------------
    matrix[:, _IDX["origin"]] = [
        1.0 if wcg.has_known_origin else 0.0 for wcg in graphs
    ]
    matrix[:, _IDX["x_flash_version"]] = [
        1.0 if wcg.x_flash_version else 0.0 for wcg in graphs
    ]
    matrix[:, _IDX["wcg_size"]] = np.array(
        [c.request_edges for c in counters], dtype=np.int64
    )
    # conversation_length = remotes + 1, remotes = order - (1 | 2).
    own_nodes = np.array(
        [1 if wcg.victim == wcg.origin else 2 for wcg in graphs],
        dtype=np.int64,
    )
    matrix[:, _IDX["conversation_length"]] = order - own_nodes + 1
    matrix[:, _IDX["avg_uris_per_host"]] = _guarded_divide(
        total_uris, uri_hosts
    )
    matrix[:, _IDX["avg_uri_length"]] = _guarded_divide(
        total_uri_length, total_uris
    )

    # -- scalar graph tier (f7–f11, f13–f14, f25) -------------------------
    matrix[:, _IDX["order"]] = order
    matrix[:, _IDX["size"]] = size
    max_degree = np.array([c.max_degree for c in counters], dtype=np.int64)
    matrix[:, _IDX["degree"]] = np.where(order > 0, max_degree, 0)
    distinct_pairs = np.array(
        [c.distinct_pairs for c in counters], dtype=np.int64
    )
    matrix[:, _IDX["density"]] = _guarded_divide(
        distinct_pairs, order * (order - 1)
    )
    matrix[:, _IDX["volume"]] = 2 * size
    avg_degree = _guarded_divide(size, order)
    matrix[:, _IDX["avg_in_degree"]] = avg_degree
    matrix[:, _IDX["avg_out_degree"]] = avg_degree
    matrix[:, _IDX["avg_pagerank"]] = _guarded_divide(
        np.ones(n, dtype=np.int64), order
    )

    # -- header tier (f26–f35) --------------------------------------------
    matrix[:, _IDX["gets"]] = [c.gets for c in counters]
    matrix[:, _IDX["posts"]] = [c.posts for c in counters]
    matrix[:, _IDX["other_methods"]] = [c.other_methods for c in counters]
    for status_class, name in (
        (1, "http_10x"), (2, "http_20x"), (3, "http_30x"),
        (4, "http_40x"), (5, "http_50x"),
    ):
        matrix[:, _IDX[name]] = [
            c.status_classes[status_class] for c in counters
        ]
    matrix[:, _IDX["referrer_ctrs"]] = [c.with_referrer for c in counters]
    matrix[:, _IDX["no_referrer_ctrs"]] = [
        c.without_referrer for c in counters
    ]

    # -- temporal tier (f36–f37) ------------------------------------------
    durations = np.array([wcg.duration for wcg in graphs], dtype=np.float64)
    matrix[:, _IDX["duration"]] = _guarded_divide(durations, total_uris)
    gaps = np.zeros(n, dtype=np.float64)
    for i, wcg in enumerate(graphs):
        stamps = wcg.request_timestamps()
        if len(stamps) > 1:
            # Order-sensitive float reduction: must mirror the scalar
            # path's np.mean(np.diff(...)) exactly (see module docstring).
            gaps[i] = float(np.mean(np.diff(stamps)))
    matrix[:, _IDX["avg_inter_transaction_time"]] = gaps

    # -- topology tier (f12, f15–f24), precomputed per structure ----------
    for name in _TOPOLOGY_NAMES:
        column = _IDX[name]
        for i, row in enumerate(topology_rows):
            matrix[i, column] = row[name]

    if not np.all(np.isfinite(matrix)):
        bad_rows, bad_cols = np.where(~np.isfinite(matrix))
        bad = sorted({FEATURES[int(c)].name for c in bad_cols})
        raise FeatureError(
            f"non-finite feature values in batch rows "
            f"{sorted({int(r) for r in bad_rows})}: {bad}"
        )
    return matrix
