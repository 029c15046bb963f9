"""The Web Conversation Graph (WCG) abstraction (Section III-A).

A WCG is a directed graph capturing the interaction between a victim host
and one or more remote hosts.  Formally (paper notation) a WCG
``G_i = (Phi_i, Psi_i, Sigma_i, alpha, beta)`` where ``Phi`` are request
edges, ``Psi`` response edges, ``Sigma`` redirection edges, ``alpha`` node
attributes and ``beta`` edge attributes.

Storage is plain lists (DESIGN.md §14): hosts are interned to dense
node ids and each edge is one slot in four parallel lists — source id,
target id, :class:`EdgeKind`, timestamp — so an append is O(1).  The
object API the rest of the repo consumes — :meth:`edges` yielding
:class:`EdgeData`, :meth:`hosts`, the counters — is a read-only *view*
over those lists.  Graph analytics never build a graph object: the
topology features read the sorted simple-digraph structure straight
from the pair table (:func:`repro.features.topology.structure_key`).

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
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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


class EdgeData(NamedTuple):
    """Edge attributes ``beta`` as stored (Section III-C, edge-level).

    A *view record* :meth:`WebConversationGraph.edges` materializes from
    the edge lists.  The per-edge HTTP attributes (method, status, payload)
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
        # One slot per edge, in append order; treat the public lists as
        # read-only.
        self._sources: list[int] = []
        self._targets: list[int] = []
        self.edge_kinds: list[EdgeKind] = []
        self.edge_timestamps: list[float] = []
        #: Request-edge timestamps in append order — ascending, because
        #: the builder ingests in timestamp order.
        self.request_timestamps: list[float] = []
        #: Running edge-timestamp extrema (``inf`` / ``-inf`` while the
        #: graph has no edge).
        self.ts_min = math.inf
        self.ts_max = -math.inf
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

    def succeed(self, previous: "WebConversationGraph") -> None:
        """Continue ``previous``'s version counters, so a cache keyed on
        them never takes this replacement graph for the one it
        replaces."""
        self._version += previous.version
        self._structure_version += previous.structure_version

    # --- structure -------------------------------------------------------

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
        kind: EdgeKind,
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
        index = len(self.edge_kinds)
        self._sources.append(src)
        self._targets.append(dst)
        self.edge_kinds.append(kind)
        self.edge_timestamps.append(timestamp)
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

        if timestamp < self.ts_min:
            self.ts_min = timestamp
        if timestamp > self.ts_max:
            self.ts_max = timestamp
        counters = self.counters
        if kind is EdgeKind.REQUEST:
            self.request_timestamps.append(timestamp)
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
        elif kind is EdgeKind.RESPONSE:
            klass = status // 100
            if klass in counters.status_classes:
                counters.status_classes[klass] += 1
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
        over the edge lists (see :class:`EdgeData`).
        """
        names = self._host_names
        for src, dst, edge_kind, timestamp in zip(
            self._sources, self._targets, self.edge_kinds,
            self.edge_timestamps,
        ):
            if kind is None or edge_kind is kind:
                yield names[src], names[dst], EdgeData(edge_kind, timestamp)

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
        return len(self.edge_kinds)

    @property
    def has_known_origin(self) -> bool:
        """True when the enticement origin was recoverable (feature f1)."""
        return self.origin != EMPTY_ORIGIN

    @property
    def duration(self) -> float:
        """Conversation duration in seconds (graph-level annotation)."""
        if len(self.edge_kinds) < 2:
            return 0.0
        return self.ts_max - self.ts_min

    def __repr__(self) -> str:
        return (
            f"WebConversationGraph(victim={self.victim!r}, "
            f"origin={self.origin!r}, order={self.order}, size={self.size})"
        )
