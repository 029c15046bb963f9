"""Feature extraction engine: WCG -> 37-dimensional vector.

The extractor walks the registry order so vector index ``i`` always
corresponds to ``FEATURES[i]``; subset selection for the Table III
ablation happens downstream via :func:`repro.features.registry.indices_of_groups`.

Extraction is tiered for the on-the-wire path:

* the cheap tier (high-level, header, temporal, scalar graph features)
  reads the WCG's running counters — O(1) per feature;
* the expensive topology tier is *content-addressed*: every topology
  feature is a function of the graph's :func:`~repro.features.topology.
  structure_key` alone, so results live in a bounded LRU shared across
  graphs — sessions that repeat a conversation shape (the common case
  under real traffic) pay for it once.  A per-graph weak cache keyed on
  ``structure_version`` short-circuits the key computation for an
  unchanged graph;
* the assembled 37-vector is cached per graph keyed on ``version``, so
  scoring an unchanged WCG never re-extracts anything.

:meth:`FeatureExtractor.extract_batch` is the multi-graph entry point:
cache-fresh rows are reused and each of the rest is filled by the same
row routine :meth:`~FeatureExtractor.extract` uses — the detector's
``score_batch`` flush (one or two rows at a time on a per-transaction
feed) and :func:`extract_matrix`'s serial path ride it.

Cache lifetime: the per-graph caches are
:class:`weakref.WeakKeyDictionary` — entries vanish with their graph —
and the structural LRU is bounded (``_STRUCTURE_CACHE_SIZE`` entries
of eleven floats), so a long-running tap extracting from
millions of session graphs holds constant extractor state.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.core.builder import build_wcg
from repro.core.model import Trace
from repro.core.wcg import WebConversationGraph
from repro.exceptions import FeatureError
from repro.features.graph import scalar_graph_features
from repro.features.header import header_features
from repro.features.high_level import high_level_features
from repro.features.registry import FEATURES, NUM_FEATURES, feature_names
from repro.features.temporal import temporal_features
from repro.features.topology import structural_topology_features, structure_key
from repro.obs import get_registry
from repro.parallel import parallel_map, resolve_n_jobs

__all__ = ["FeatureExtractor", "extract_features", "extract_matrix",
           "extract_trace_features"]

#: Bound on the shared structural topology LRU (read at each insert).
_STRUCTURE_CACHE_SIZE = 4096

_FEATURE_NAMES = tuple(feature_names())


class FeatureExtractor:
    """Extractor of the 37 payload-agnostic features.

    Semantically stateless — the same WCG always yields the same vector
    — but carries memoization so repeated extraction of a live, growing
    WCG only pays for what actually changed, and graphs sharing a
    conversation shape share one topology computation.
    """

    def __init__(self) -> None:
        self._vector_cache: "weakref.WeakKeyDictionary[WebConversationGraph, tuple[int, np.ndarray]]" = (
            weakref.WeakKeyDictionary()
        )
        self._topology_cache: "weakref.WeakKeyDictionary[WebConversationGraph, tuple[int, dict[str, float]]]" = (
            weakref.WeakKeyDictionary()
        )
        # Shared content-addressed topology results, LRU-bounded so a
        # long-running tap cannot accumulate unbounded structures.
        self._structural: "OrderedDict[tuple[int, tuple[tuple[int, int], ...]], dict[str, float]]" = (
            OrderedDict()
        )
        metrics = get_registry()
        self._metrics = metrics
        self._c_vec_hits = metrics.counter("features.vector_cache_hits")
        self._c_vec_misses = metrics.counter("features.vector_cache_misses")
        self._c_topo_hits = metrics.counter("features.topology_cache_hits")
        self._c_topo_misses = metrics.counter("features.topology_cache_misses")
        self._c_batch_extracts = metrics.counter("features.batch_extracts")
        self._c_batch_rows = metrics.counter("features.batch_rows")

    @property
    def structure_cache_len(self) -> int:
        """Entries currently held by the structural LRU (for tests)."""
        return len(self._structural)

    def extract(self, wcg: WebConversationGraph) -> np.ndarray:
        """Feature vector for one WCG, in registry order.

        The returned array is shared with the cache and marked
        read-only; copy it before mutating.
        """
        return self._row(wcg)

    def _row(self, wcg: WebConversationGraph) -> np.ndarray:
        """The cached read-only row of ``wcg``, computed when stale."""
        cached = self._vector_cache.get(wcg)
        if cached is not None and cached[0] == wcg.version:
            self._c_vec_hits.inc()
            return cached[1]
        self._c_vec_misses.inc()
        values = high_level_features(wcg)
        values.update(scalar_graph_features(wcg))
        values.update(self._topology(wcg))
        values.update(header_features(wcg))
        values.update(temporal_features(wcg))
        try:
            vector = np.array([values[name] for name in _FEATURE_NAMES],
                              dtype=np.float64)
        except KeyError as missing:
            spec = FEATURES[_FEATURE_NAMES.index(missing.args[0])]
            raise FeatureError(
                f"extractor produced no value for {spec.fid} ({spec.name})"
            ) from None
        if not np.isfinite(vector).all():
            bad = [FEATURES[i].name for i in np.where(~np.isfinite(vector))[0]]
            raise FeatureError(f"non-finite feature values: {bad}")
        vector.flags.writeable = False
        self._vector_cache[wcg] = (wcg.version, vector)
        return vector

    def extract_batch(
        self, graphs: list[WebConversationGraph]
    ) -> np.ndarray:
        """The ``(len(graphs), 37)`` matrix, rows in input order.

        Each row is what :meth:`extract` returns for that graph (one
        row routine serves both), copied into a fresh writable matrix.
        """
        graphs = list(graphs)
        self._c_batch_extracts.inc()
        self._c_batch_rows.inc(len(graphs))
        matrix = np.empty((len(graphs), NUM_FEATURES), dtype=np.float64)
        if graphs:
            with self._metrics.span("features.extract_batch"):
                for index, wcg in enumerate(graphs):
                    matrix[index] = self._row(wcg)
        return matrix

    def _topology(self, wcg: WebConversationGraph) -> dict[str, float]:
        """The expensive tier: per-graph memo, then the structural LRU."""
        cached = self._topology_cache.get(wcg)
        if cached is not None and cached[0] == wcg.structure_version:
            self._c_topo_hits.inc()
            return cached[1]
        key = structure_key(wcg)
        values = self._structural.get(key)
        if values is not None:
            self._structural.move_to_end(key)
            self._c_topo_hits.inc()
        else:
            self._c_topo_misses.inc()
            with self._metrics.span("features.topology"):
                values = structural_topology_features(*key)
            self._structural[key] = values
            while len(self._structural) > _STRUCTURE_CACHE_SIZE:
                self._structural.popitem(last=False)
        self._topology_cache[wcg] = (wcg.structure_version, values)
        return values

    def extract_trace(self, trace: Trace) -> np.ndarray:
        """Build the WCG for a trace and extract its features."""
        return self.extract(build_wcg(trace))


def extract_features(wcg: WebConversationGraph) -> np.ndarray:
    """Module-level convenience wrapper around :class:`FeatureExtractor`."""
    return FeatureExtractor().extract(wcg)


def extract_trace_features(trace: Trace) -> np.ndarray:
    """Feature row for one trace (module-level so process pools can ship it)."""
    return FeatureExtractor().extract_trace(trace)


def extract_matrix(
    traces: list[Trace], n_jobs: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Extract a design matrix and label vector from labelled traces.

    Returns ``(X, y)`` with ``y[i] = 1`` for infections, ``0`` for benign.
    Raises :class:`FeatureError` when a trace is unlabelled.  The serial
    path builds every WCG and rides one :meth:`FeatureExtractor.
    extract_batch` pass (sharing topology across repeated conversation
    shapes); ``n_jobs`` fans per-trace extraction out over a process
    pool instead (``-1`` = all cores).  Row order always matches the
    input order, and both paths produce byte-identical matrices.
    """
    for trace in traces:
        if trace.label is None:
            raise FeatureError("extract_matrix requires labelled traces")
    if not traces:
        return np.empty((0, NUM_FEATURES)), np.empty(0)
    labels = [1.0 if trace.is_infection else 0.0 for trace in traces]
    if min(resolve_n_jobs(n_jobs), len(traces)) <= 1:
        graphs = [build_wcg(trace) for trace in traces]
        return FeatureExtractor().extract_batch(graphs), np.array(labels)
    rows = parallel_map(extract_trace_features, traces, n_jobs=n_jobs)
    return np.vstack(rows), np.array(labels)
