"""WCG construction from HTTP transaction streams (Section III-B).

Construction steps, mirroring the paper: extract unique hosts as nodes;
group transactions into host-pair conversations; derive request,
response, and redirection edges; annotate nodes and edges with
conversation attributes; prepend the *origin node* (the enticement
source, or ``"empty"`` when concealed).

The builder is *truly incremental*: :meth:`WCGBuilder.add` is a
constant-time append, and :meth:`WCGBuilder.build` folds the pending
transactions' edges into the existing graph, resumes stage assignment
through :class:`~repro.core.stages.StageAssigner` (re-labelling only
the edges a moved boundary invalidated), and feeds each new transaction
to the running :class:`~repro.core.redirects.RedirectInferencer`.
Per-transaction cost is therefore O(log n + affected edges) instead of
a full rebuild — and nothing at all for the (common) watched sessions
whose graph is never requested.  The one exception is an out-of-order arrival (a transaction
stamped earlier than one already ingested): that falls back to a full
replay in stable timestamp order, which keeps the result identical to
the batch path by construction.

:func:`build_wcg` is a feed-once wrapper over the same machinery — the
batch and the on-the-wire graphs cannot drift because they are produced
by the same per-transaction mutation sequence (see DESIGN.md §9 and the
differential tests in ``tests/detection/test_wcg_incremental_equivalence.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from repro.core.model import HttpTransaction, Trace
from repro.core.redirects import RedirectInferencer
from repro.core.stages import Stage, StageAssigner
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
    new nodes/edges are appended, stages of already-ingested edges are
    re-labelled only when an arrival moved a stage boundary, and
    redirect edges are inferred from each new transaction alone.  The
    returned graph is the *same object* across calls, grown in place,
    which is what lets downstream caches key on the graph's ``version``
    counters.  The on-the-wire detector
    reuses one builder per watched session (Section V-B, "WCG
    classification and update").
    """

    __slots__ = ("_victim", "_origin", "transactions", "_wcg", "_assigner",
                 "_inferencer", "_stamps", "_txn_edges", "_redirect_keys",
                 "_max_ts", "_c_ingested", "_c_edges", "_c_replays")

    def __init__(self, victim: str | None = None, origin: str | None = None):
        self._victim = victim
        self._origin = origin
        #: Every transaction fed, in feed order — the one history.
        #: ``build`` ingests those past ``len(_txn_edges)``, so
        #: appending here *is* :meth:`add`.
        self.transactions: list[HttpTransaction] = []
        self._wcg: WebConversationGraph | None = None
        self._assigner: StageAssigner | None = None
        self._inferencer: RedirectInferencer | None = None
        # Request timestamps in ingest order — non-decreasing, so the
        # list is sorted and position == assigner seq.
        self._stamps: list[float] = []
        # Per-seq (request edge index, response edge index | None) for
        # columnar stage re-labelling through ``set_edge_stage``.
        self._txn_edges: list[tuple[int, int | None]] = []
        # (timestamp, edge index) of every redirect edge, kept sorted
        # for windowed re-staging.
        self._redirect_keys: list[tuple[float, int]] = []
        self._max_ts = float("-inf")
        metrics = get_registry()
        self._c_ingested = metrics.counter("wcg.transactions_ingested")
        self._c_edges = metrics.counter("wcg.edges_appended")
        self._c_replays = metrics.counter("wcg.out_of_order_replays")

    def add(self, txn: HttpTransaction) -> None:
        """Record one transaction (a constant-time append); the graph
        work — edge appends, stage bookkeeping, redirect inference — is
        deferred to :meth:`build`."""
        self.transactions.append(txn)

    def extend(self, transactions: list[HttpTransaction]) -> None:
        """Append many transactions at once."""
        self.transactions.extend(transactions)

    def build(self) -> WebConversationGraph:
        """Return the live annotated WCG, ingesting any pending adds."""
        for txn in self.transactions[len(self._txn_edges):]:
            if self._wcg is not None and txn.timestamp < self._max_ts:
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

    # -- incremental machinery ---------------------------------------------

    def _replay(self) -> None:
        """Re-ingest everything in stable timestamp order."""
        self._c_replays.inc()
        ordered = sorted(self.transactions, key=lambda t: t.timestamp)
        self._wcg = None
        self._assigner = None
        self._inferencer = None
        self._stamps = []
        self._txn_edges = []
        self._redirect_keys = []
        self._max_ts = float("-inf")
        for txn in ordered:
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
            self._assigner = StageAssigner()
            self._inferencer = RedirectInferencer()
        wcg = self._wcg
        seq = len(self._txn_edges)
        self._c_ingested.inc()

        changes = self._assigner.add(txn)
        stage = self._assigner.current_stage(seq)

        request = txn.request
        client, server = request.client, request.host
        # The request edge goes first: it adds the client and server
        # nodes (in that order) that everything below annotates.
        request_edge = wcg.append_edge(
            client,
            server,
            kind=KIND_REQUEST,
            timestamp=request.timestamp,
            stage=int(stage),
            method=request.method.value,
            uri_length=request.uri_length,
            referrer=request.referrer,
            user_agent=request.user_agent,
        )
        self._c_edges.inc()
        wcg.record_uri(server, request.uri)
        if request.dnt:
            wcg.dnt = True
        flash = request.headers.get("X-Flash-Version")
        if flash:
            wcg.x_flash_version = flash
        response_edge: int | None = None
        response = txn.response
        if response is not None:
            ptype = txn.payload_type
            wcg.record_payload(server, ptype)
            response_edge = wcg.append_edge(
                server,
                client,
                kind=KIND_RESPONSE,
                timestamp=response.timestamp,
                stage=int(stage),
                status=response.status,
                payload_type=ptype,
                payload_size=response.body_size,
            )
            self._c_edges.inc()
            if (
                200 <= response.status < 300
                and is_exploit_type(ptype)
                and client == wcg.victim
            ):
                wcg.mark_malicious(server)
        self._txn_edges.append((request_edge, response_edge))
        self._stamps.append(txn.timestamp)
        self._max_ts = txn.timestamp

        # Apply the bounded re-labelling the new arrival caused.
        relabel_floor = txn.timestamp
        for other, new_stage in changes:
            if other == seq:
                continue
            other_request, other_response = self._txn_edges[other]
            wcg.set_edge_stage(other_request, new_stage)
            if other_response is not None:
                wcg.set_edge_stage(other_response, new_stage)
            if self._stamps[other] < relabel_floor:
                relabel_floor = self._stamps[other]

        if seq == 0 and self._link_origin(wcg, txn):
            self._c_edges.inc()

        # Redirect edges observed by this transaction, staged at the
        # nearest ingested transaction at-or-before their timestamp.
        for redirect in self._inferencer.observe(txn):
            wcg.add_node(redirect.source, kind=NodeKind.REDIRECTOR)
            redirect_edge = wcg.append_edge(
                redirect.source,
                redirect.target,
                kind=KIND_REDIRECT,
                timestamp=redirect.timestamp,
                stage=int(self._stage_at(redirect.timestamp)),
                redirect_kind=redirect.kind.value,
                cross_domain=redirect.cross_domain,
            )
            self._c_edges.inc()
            # In-order ingest ⇒ the new key sorts at (or near) the end.
            insort(self._redirect_keys, (redirect.timestamp, redirect_edge))

        # Re-stage redirect edges whose governing transaction may have
        # changed: any at-or-after the earliest re-labelled (or new)
        # transaction timestamp.  Earlier redirects are governed by
        # transactions whose stages did not move.
        start = bisect_left(self._redirect_keys, (relabel_floor, -1))
        for stamp, redirect_edge in self._redirect_keys[start:]:
            wcg.set_edge_stage(redirect_edge, self._stage_at(stamp))

    def _stage_at(self, ts: float) -> Stage:
        """Stage of the nearest transaction at or before ``ts``.

        ``_stamps`` is non-decreasing and position == assigner seq, so a
        bisect replaces the former linear scan; ties resolve to the
        highest seq, matching the stable-sort semantics of the batch
        algorithm.
        """
        index = bisect_right(self._stamps, ts) - 1
        if index < 0:
            return Stage.PRE_DOWNLOAD
        return self._assigner.current_stage(index)

    @staticmethod
    def _link_origin(wcg: WebConversationGraph, first: HttpTransaction) -> bool:
        """Connect the origin node to the first host the victim visited.

        Returns whether an edge was actually appended (the origin may
        *be* the first host)."""
        target = first.server
        if wcg.origin == target:
            return False
        wcg.append_edge(
            wcg.origin,
            target,
            kind=KIND_REDIRECT,
            timestamp=first.timestamp,
            stage=int(Stage.PRE_DOWNLOAD),
            redirect_kind="origin",
            cross_domain=True,
        )
        return True


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
