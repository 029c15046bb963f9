"""WCG construction from HTTP transaction streams (Section III-B).

Construction steps, mirroring the paper: extract unique hosts as nodes;
group transactions into host-pair conversations; derive request,
response, and redirection edges; annotate nodes and the graph with
conversation attributes; prepend the *origin node* (the enticement
source, or ``"empty"`` when concealed).

The builder is *truly incremental*: :meth:`WCGBuilder.add` is a
constant-time append, and :meth:`WCGBuilder.build` folds the pending
transactions' edges into the existing graph and feeds each new
transaction to the running :class:`~repro.core.redirects.
RedirectInferencer` — nothing at all for the (common) watched sessions
whose graph is never requested.  The one exception is an out-of-order
arrival (a transaction stamped earlier than one already ingested): that
falls back to a full replay in stable timestamp order, which keeps the
result identical to the batch path by construction.  Conversation
stages are not tracked while ingesting; :meth:`WCGBuilder.edge_stages`
derives them for the readers that want them.

:func:`build_wcg` is a feed-once wrapper over the same machinery — the
batch and the on-the-wire graphs cannot drift because they are produced
by the same per-transaction mutation sequence (see DESIGN.md §9 and the
differential tests in ``tests/detection/test_wcg_incremental_equivalence.py``).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.model import HttpTransaction, Trace
from repro.core.redirects import RedirectInferencer
from repro.core.stages import Stage, assign_stages
from repro.core.wcg import (
    KIND_REDIRECT,
    KIND_REQUEST,
    KIND_RESPONSE,
    NodeKind,
    WebConversationGraph,
)
from repro.core.payloads import is_exploit_type
from repro.exceptions import GraphConstructionError
from repro.obs import get_registry

__all__ = ["WCGBuilder", "build_wcg"]


class WCGBuilder:
    """Incremental WCG builder.

    Feed transactions with :meth:`add` (a constant-time append);
    :meth:`build` drains the pending transactions into the live graph —
    new nodes/edges are appended and redirect edges are inferred from
    each new transaction alone.  The returned graph is the *same
    object* across calls, grown in place, which is what lets downstream
    caches key on the graph's ``version`` counters.  The on-the-wire
    detector reuses one builder per watched session (Section V-B, "WCG
    classification and update").
    """

    __slots__ = ("_victim", "_origin", "transactions", "_wcg", "_inferencer",
                 "_stamps", "_origin_link", "_c_ingested", "_c_edges",
                 "_c_replays")

    def __init__(self, victim: str | None = None, origin: str | None = None):
        self._victim = victim
        self._origin = origin
        #: Every transaction fed, in feed order — the one history.
        #: ``build`` ingests those past ``len(_stamps)``, so appending
        #: here *is* :meth:`add`.
        self.transactions: list[HttpTransaction] = []
        self._wcg: WebConversationGraph | None = None
        self._inferencer: RedirectInferencer | None = None
        # Request timestamps in ingest order — non-decreasing, since a
        # late arrival replays everything sorted.
        self._stamps: list[float] = []
        # Edge index of the origin link, -1 when the origin is the first
        # host itself.
        self._origin_link = -1
        metrics = get_registry()
        self._c_ingested = metrics.counter("wcg.transactions_ingested")
        self._c_edges = metrics.counter("wcg.edges_appended")
        self._c_replays = metrics.counter("wcg.out_of_order_replays")

    def add(self, txn: HttpTransaction) -> None:
        """Record one transaction (a constant-time append); the graph
        work — edge appends, redirect inference — is deferred to
        :meth:`build`."""
        self.transactions.append(txn)

    def extend(self, transactions: list[HttpTransaction]) -> None:
        """Append many transactions at once."""
        self.transactions.extend(transactions)

    def build(self) -> WebConversationGraph:
        """Return the live annotated WCG, ingesting any pending adds."""
        stamps = self._stamps
        for txn in self.transactions[len(stamps):]:
            if stamps and txn.timestamp < stamps[-1]:
                # Late (out-of-order) arrival: the canonical feed order
                # is the stable timestamp sort, so replay from scratch.
                # Live capture emits at response completion, which is
                # almost always in request order, so this path is rare.
                self._replay()
                break
            self._ingest(txn)
        if self._wcg is None:
            raise GraphConstructionError("no transactions to build a WCG from")
        return self._wcg

    def edge_stages(self) -> list[Stage]:
        """The :class:`Stage` of every edge of :meth:`build`'s graph, in
        edge order, derived from the ingested transactions on each call.

        A request or response edge takes its transaction's stage, the
        origin link is ``PRE_DOWNLOAD``, and an inferred redirect takes
        the stage of the last transaction stamped at or before it
        (``PRE_DOWNLOAD`` when there is none).
        """
        store = self.build().edge_store
        stamps = self._stamps
        # Ingest order is the stable timestamp sort of the history.
        txn_stages = assign_stages(
            sorted(self.transactions, key=lambda t: t.timestamp))
        stages: list[Stage] = []
        seq = -1
        for kind, timestamp in zip(store.column("kind").tolist(),
                                   store.column("timestamp").tolist()):
            if kind == KIND_REQUEST:
                seq += 1  # a transaction's edges start with its request
            if kind != KIND_REDIRECT:
                stages.append(txn_stages[seq])
            elif len(stages) == self._origin_link:
                stages.append(Stage.PRE_DOWNLOAD)
            else:
                governing = bisect_right(stamps, timestamp) - 1
                stages.append(txn_stages[governing] if governing >= 0
                              else Stage.PRE_DOWNLOAD)
        return stages

    # -- incremental machinery ---------------------------------------------

    def _replay(self) -> None:
        """Re-ingest everything in stable timestamp order."""
        self._c_replays.inc()
        self._wcg = None
        self._inferencer = None
        self._stamps = []
        for txn in sorted(self.transactions, key=lambda t: t.timestamp):
            self._ingest(txn)

    def _ingest(self, txn: HttpTransaction) -> None:
        if self._wcg is None:
            victim = self._victim or txn.client
            origin = (
                self._origin
                if self._origin is not None
                else txn.request.referrer_host or ""
            )
            self._wcg = WebConversationGraph(victim=victim, origin=origin)
            self._inferencer = RedirectInferencer()
        wcg = self._wcg
        self._c_ingested.inc()

        request = txn.request
        client, server = request.client, request.host
        # The request edge goes first: it adds the client and server
        # nodes (in that order) that everything below annotates.
        wcg.append_edge(client, server, kind=KIND_REQUEST,
                        timestamp=request.timestamp,
                        method=request.method.value,
                        referrer=request.referrer)
        self._c_edges.inc()
        wcg.record_uri(server, request.uri)
        if request.dnt:
            wcg.dnt = True
        flash = request.headers.get("X-Flash-Version")
        if flash:
            wcg.x_flash_version = flash
        response = txn.response
        if response is not None:
            ptype = txn.payload_type
            wcg.record_payload(server, ptype)
            wcg.append_edge(server, client, kind=KIND_RESPONSE,
                            timestamp=response.timestamp,
                            status=response.status)
            self._c_edges.inc()
            if (
                200 <= response.status < 300
                and is_exploit_type(ptype)
                and client == wcg.victim
            ):
                wcg.mark_malicious(server)

        if not self._stamps:
            self._link_origin(wcg, txn)
        self._stamps.append(txn.timestamp)

        for redirect in self._inferencer.observe(txn):
            wcg.add_node(redirect.source, kind=NodeKind.REDIRECTOR)
            wcg.append_edge(redirect.source, redirect.target,
                            kind=KIND_REDIRECT, timestamp=redirect.timestamp)
            self._c_edges.inc()

    def _link_origin(self, wcg: WebConversationGraph,
                     first: HttpTransaction) -> None:
        """Connect the origin node to the first host the victim visited
        (no edge when the origin *is* that host)."""
        self._origin_link = -1
        if wcg.origin == first.server:
            return
        self._origin_link = wcg.append_edge(
            wcg.origin, first.server, kind=KIND_REDIRECT,
            timestamp=first.timestamp,
        )
        self._c_edges.inc()


def build_wcg(
    source: Trace | list[HttpTransaction],
    victim: str | None = None,
    origin: str | None = None,
) -> WebConversationGraph:
    """One-shot WCG construction from a trace or transaction list.

    Feed-once wrapper over the incremental :class:`WCGBuilder`:
    transactions are fed in stable timestamp order, so the batch result
    is — by construction — identical to the live graph a per-transaction
    feed converges to.
    """
    if isinstance(source, Trace):
        transactions = source.transactions
        if origin is None and source.origin:
            origin = source.origin
    else:
        transactions = source
    builder = WCGBuilder(victim=victim, origin=origin)
    builder.extend(sorted(transactions, key=lambda t: t.timestamp))
    return builder.build()
