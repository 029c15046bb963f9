"""The Web Conversation Graph (WCG) abstraction (Section III-A).

A WCG is a directed graph capturing the interaction between a victim host
and one or more remote hosts.  Formally (paper notation) a WCG
``G_i = (Phi_i, Psi_i, Sigma_i, alpha, beta)`` where ``Phi`` are request
edges, ``Psi`` response edges, ``Sigma`` redirection edges, ``alpha`` node
attributes and ``beta`` edge attributes.

Storage is columnar (DESIGN.md §14): hosts are interned to dense node
ids and each edge is a timestamp, a kind and two node ids in an
:class:`~repro.core.columns.EdgeColumnStore`, grown by amortized
doubling so the incremental live path stays O(1) per edge.  The object
API the rest of the repo consumes — :meth:`edges` yielding
:class:`EdgeData`, :meth:`hosts`, the counters — is a read-only *view*
materialized from the columns.  Graph analytics never build a graph
object: the topology features read the sorted simple-digraph structure
straight from the pair table (:func:`repro.features.topology.
structure_key`).

To make the on-the-wire path cheap, the graph maintains running
aggregates as it mutates:

* :class:`GraphCounters` — integer tallies (edge kinds, methods, status
  classes, URI totals, degree maximum, distinct host pairs) that back
  the cheap feature tier without any edge iteration.
* ``version`` — bumped on every feature-bearing mutation; callers cache
  derived values (the 37-vector, a classifier score) keyed on it.
* ``structure_version`` — bumped only when the *simple-graph* structure
  changes (a new node, or a first edge between a host pair).  Expensive
  topology features (diameter, centralities, connectivity, clustering)
  depend only on that structure, so they are recomputed only when this
  counter moves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.columns import EdgeColumnStore

__all__ = ["NodeKind", "EdgeKind", "EdgeData", "GraphCounters",
           "WebConversationGraph"]

#: Node name used for the synthetic origin node when the enticement
#: source is unknown (referrer concealed), per Section III-B.
EMPTY_ORIGIN = "empty"


class NodeKind(enum.Enum):
    """Designation of a WCG node (Section III-A)."""

    ORIGIN = "origin"
    VICTIM = "victim"
    REMOTE = "remote"
    MALICIOUS = "malicious"
    REDIRECTOR = "redirector"


class EdgeKind(enum.Enum):
    """Relation an edge represents."""

    REQUEST = "req"
    RESPONSE = "res"
    REDIRECT = "redir"


#: Dense codes for the ``kind`` column and back.
_KIND_CODE = {EdgeKind.REQUEST: 0, EdgeKind.RESPONSE: 1, EdgeKind.REDIRECT: 2}
_KIND_OF_CODE = (EdgeKind.REQUEST, EdgeKind.RESPONSE, EdgeKind.REDIRECT)
KIND_REQUEST, KIND_RESPONSE, KIND_REDIRECT = 0, 1, 2


class EdgeData(NamedTuple):
    """Edge attributes ``beta`` as stored (Section III-C, edge-level).

    A *view record* :meth:`WebConversationGraph.edges` materializes from
    the columns.  The per-edge HTTP attributes (method, status, payload)
    live on the transactions and in :class:`GraphCounters`; stages are
    derived on demand (:meth:`repro.core.builder.WCGBuilder.edge_stages`).
    """

    kind: EdgeKind
    timestamp: float


@dataclass
class _NodeData:
    """Node attributes ``alpha`` (Section III-C, node-level)."""

    kind: NodeKind = NodeKind.REMOTE
    uris: set[str] = field(default_factory=set)


@dataclass
class GraphCounters:
    """Running integer aggregates maintained by WCG mutations.

    Every value here is an exact tally — the cheap feature tier reads
    them directly instead of re-walking the edge list, and because they
    are integers the derived feature values are bit-identical to the
    edge-walk formulation.
    """

    request_edges: int = 0
    response_edges: int = 0
    redirect_edges: int = 0
    gets: int = 0
    posts: int = 0
    other_methods: int = 0
    with_referrer: int = 0
    without_referrer: int = 0
    status_classes: dict[int, int] = field(
        default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    )
    #: Hosts with at least one recorded URI / distinct URIs / their bytes.
    uri_hosts: int = 0
    total_uris: int = 0
    total_uri_length: int = 0
    #: Max total degree over the multigraph (degrees only ever grow).
    max_degree: int = 0
    #: Distinct ``(source, target)`` pairs == simple-digraph edge count.
    distinct_pairs: int = 0

    def copy(self) -> "GraphCounters":
        clone = replace(self)
        clone.status_classes = dict(self.status_classes)
        return clone


class WebConversationGraph:
    """An annotated WCG for one client conversation.

    Construction normally goes through
    :class:`repro.core.builder.WCGBuilder`; the mutation API here
    (``add_node`` / ``append_edge`` / ``record_*``) is what the builder
    drives.
    """

    def __init__(self, victim: str, origin: str = ""):
        self.victim = victim
        self.origin = origin or EMPTY_ORIGIN
        self._dnt = False
        self._x_flash_version: str = ""
        self._version = 0
        self._structure_version = 0
        self.counters = GraphCounters()
        # Host interning: name -> dense id, id -> name, id -> alpha record.
        self._host_ids: dict[str, int] = {}
        self._host_names: list[str] = []
        self._node_records: list[_NodeData] = []
        self._degrees: list[int] = []
        self._pair_multiplicity: dict[tuple[str, str], int] = {}
        self._edges = EdgeColumnStore()
        # Running timestamp extrema (duration = max - min, identical to
        # sorted[-1] - sorted[0]); sorted caches built lazily per version.
        self._ts_min = np.inf
        self._ts_max = -np.inf
        self._sorted_ts: tuple[int, list[float]] | None = None
        self._sorted_req_ts: tuple[int, np.ndarray] | None = None
        self.add_node(self.origin, kind=NodeKind.ORIGIN)
        self.add_node(victim, kind=NodeKind.VICTIM)

    # --- change tracking -------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped on every feature-bearing mutation (cache key)."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Bumped only when the simple-graph structure changes."""
        return self._structure_version

    @property
    def dnt(self) -> bool:
        """True when any request in the conversation carried DNT."""
        return self._dnt

    @dnt.setter
    def dnt(self, value: bool) -> None:
        if value != self._dnt:
            self._dnt = value
            self._version += 1

    @property
    def x_flash_version(self) -> str:
        """The last X-Flash-Version header observed (feature f2)."""
        return self._x_flash_version

    @x_flash_version.setter
    def x_flash_version(self, value: str) -> None:
        if value != self._x_flash_version:
            self._x_flash_version = value
            self._version += 1

    # --- structure -------------------------------------------------------

    @property
    def edge_store(self) -> EdgeColumnStore:
        """The columnar edge storage (snapshots and features slice it)."""
        return self._edges

    def _intern(self, host: str) -> int:
        """Id of ``host``, added as a plain remote node when new."""
        node_id = self._host_ids.get(host)
        if node_id is None:
            node_id = self._host_ids[host] = len(self._host_names)
            self._host_names.append(host)
            self._node_records.append(_NodeData())
            self._degrees.append(0)
            self._version += 1
            self._structure_version += 1
        return node_id

    def add_node(self, host: str, kind: NodeKind = NodeKind.REMOTE) -> None:
        """Add (or update) a host node."""
        existing = self._host_ids.get(host)
        if existing is not None:
            data = self._node_records[existing]
            # VICTIM/ORIGIN designations are sticky; MALICIOUS upgrades REMOTE.
            if data.kind is NodeKind.REMOTE and kind in (
                NodeKind.MALICIOUS,
                NodeKind.REDIRECTOR,
            ):
                data.kind = kind
            return
        self._node_records[self._intern(host)].kind = kind

    def mark_malicious(self, host: str) -> None:
        """Designate a node malicious (it served an exploit payload)."""
        if host not in self._host_ids:
            self.add_node(host, kind=NodeKind.MALICIOUS)
            return
        data = self._node_records[self._host_ids[host]]
        if data.kind in (NodeKind.REMOTE, NodeKind.REDIRECTOR):
            data.kind = NodeKind.MALICIOUS

    def append_edge(
        self,
        source: str,
        target: str,
        kind: int,
        timestamp: float,
        method: str = "",
        status: int = 0,
        referrer: str = "",
    ) -> int:
        """Append one edge, creating endpoints as needed; returns its
        edge index.

        ``method`` and ``referrer`` (request edges) and ``status``
        (response edges) are counted into :class:`GraphCounters`, not
        stored.
        """
        src = self._intern(source)
        dst = self._intern(target)
        index = self._edges.append(timestamp, kind, src, dst)
        self._version += 1

        degree = self._degrees[src] + 1
        self._degrees[src] = degree
        if degree > self.counters.max_degree:
            self.counters.max_degree = degree
        degree = self._degrees[dst] + 1
        self._degrees[dst] = degree
        if degree > self.counters.max_degree:
            self.counters.max_degree = degree

        pair = (source, target)
        multiplicity = self._pair_multiplicity.get(pair, 0)
        self._pair_multiplicity[pair] = multiplicity + 1
        if multiplicity == 0:
            self.counters.distinct_pairs += 1
            self._structure_version += 1

        if timestamp < self._ts_min:
            self._ts_min = timestamp
        if timestamp > self._ts_max:
            self._ts_max = timestamp
        counters = self.counters
        if kind == KIND_REQUEST:
            counters.request_edges += 1
            if method == "GET":
                counters.gets += 1
            elif method == "POST":
                counters.posts += 1
            else:
                counters.other_methods += 1
            if referrer:
                counters.with_referrer += 1
            else:
                counters.without_referrer += 1
        elif kind == KIND_RESPONSE:
            counters.response_edges += 1
            klass = status // 100
            if klass in counters.status_classes:
                counters.status_classes[klass] += 1
        else:
            counters.redirect_edges += 1
        return index

    def node_data(self, host: str) -> _NodeData:
        """The ``alpha`` record for ``host``."""
        return self._node_records[self._host_ids[host]]

    def record_uri(self, host: str, uri: str) -> None:
        """Track a URI observed for ``host`` (URIs-per-host annotation)."""
        uris = self._node_records[self._intern(host)].uris
        if uri in uris:
            return
        if not uris:
            self.counters.uri_hosts += 1
        uris.add(uri)
        self.counters.total_uris += 1
        self.counters.total_uri_length += len(uri)
        self._version += 1

    # --- views -----------------------------------------------------------

    def edges(self, kind: EdgeKind | None = None) -> Iterator[tuple[str, str, EdgeData]]:
        """Iterate ``(source, target, EdgeData)``, optionally filtered.

        Yields in edge append order; records are materialized views
        over the columns (see :class:`EdgeData`).
        """
        store = self._edges
        names = self._host_names
        want = None if kind is None else _KIND_CODE[kind]
        for src, dst, code, timestamp in zip(
            store.column("src").tolist(), store.column("dst").tolist(),
            store.column("kind").tolist(), store.column("timestamp").tolist(),
        ):
            if want is None or code == want:
                yield names[src], names[dst], \
                    EdgeData(_KIND_OF_CODE[code], timestamp)

    def request_edges(self) -> list[tuple[str, str, EdgeData]]:
        """``Phi`` — request edges."""
        return list(self.edges(EdgeKind.REQUEST))

    def response_edges(self) -> list[tuple[str, str, EdgeData]]:
        """``Psi`` — response edges."""
        return list(self.edges(EdgeKind.RESPONSE))

    def redirect_edges(self) -> list[tuple[str, str, EdgeData]]:
        """``Sigma`` — redirection edges."""
        return list(self.edges(EdgeKind.REDIRECT))

    def hosts(self) -> list[str]:
        """All node names, origin node included (insertion order)."""
        return list(self._host_names)

    @property
    def order(self) -> int:
        """Number of nodes (feature f7)."""
        return len(self._host_names)

    @property
    def size(self) -> int:
        """Number of edges (feature f8)."""
        return len(self._edges)

    @property
    def has_known_origin(self) -> bool:
        """True when the enticement origin was recoverable (feature f1)."""
        return self.origin != EMPTY_ORIGIN

    def timestamps(self) -> list[float]:
        """All edge timestamps, ascending (sorted lazily, cached per
        version)."""
        cached = self._sorted_ts
        if cached is None or cached[0] != self._version:
            ordered = np.sort(self._edges.column("timestamp")).tolist()
            cached = self._sorted_ts = (self._version, ordered)
        return list(cached[1])

    def request_timestamps(self) -> np.ndarray:
        """Request-edge timestamps, ascending.  Treat as read-only."""
        cached = self._sorted_req_ts
        if cached is None or cached[0] != self._version:
            store = self._edges
            stamps = np.sort(
                store.column("timestamp")[store.column("kind")
                                          == KIND_REQUEST]
            )
            cached = self._sorted_req_ts = (self._version, stamps)
        return cached[1]

    @property
    def duration(self) -> float:
        """Conversation duration in seconds (graph-level annotation)."""
        if len(self._edges) < 2:
            return 0.0
        return self._ts_max - self._ts_min

    def copy(self) -> "WebConversationGraph":
        """Deep-enough copy for incremental what-if evaluation.

        Columns snapshot as array slice-copies (no per-edge object
        duplication); node records are duplicated so live-builder
        annotations do not leak into clones.
        """
        clone = WebConversationGraph.__new__(WebConversationGraph)
        clone.victim = self.victim
        clone.origin = self.origin
        clone._dnt = self._dnt
        clone._x_flash_version = self._x_flash_version
        clone._version = self._version
        clone._structure_version = self._structure_version
        clone.counters = self.counters.copy()
        clone._host_ids = dict(self._host_ids)
        clone._host_names = list(self._host_names)
        clone._degrees = list(self._degrees)
        clone._pair_multiplicity = dict(self._pair_multiplicity)
        clone._edges = self._edges.copy()
        clone._ts_min = self._ts_min
        clone._ts_max = self._ts_max
        clone._sorted_ts = None
        clone._sorted_req_ts = None
        clone._node_records = [_NodeData(data.kind, set(data.uris))
                               for data in self._node_records]
        return clone

    def __repr__(self) -> str:
        return (
            f"WebConversationGraph(victim={self.victim!r}, "
            f"origin={self.origin!r}, order={self.order}, size={self.size})"
        )
