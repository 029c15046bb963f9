"""Per-session WCG watching (Section V-B, "WCG classification and update").

A :class:`SessionWatch` owns one candidate conversation: its transaction
list, its incremental WCG builder, and its clue detector.  The
:class:`SessionTable` clusters an interleaved multi-client stream into
watches using session IDs with the referrer/timestamp fallback heuristic.

The table keeps no clock of its own: every ``route`` and ``sweep`` is
handed the detector's stream watermark.  Its memory is bounded:
terminated watches are dropped from the routing structures (``route()``
would only skip over them), and a watch that never produced an
infection clue is retired once nothing can reach it — idle past
``2 * idle_gap`` of the watermark when it carries no session ID (one
gap is the last moment ``matches`` accepts a transaction, the second an
allowance for late completions), past ``prune_after`` when it does.
Clue-active watches are never auto-pruned: :meth:`SessionTable.expire`
hands them over for their "stopped growing" verdict and closes them at
the same horizons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from repro.core.builder import WCGBuilder
from repro.core.model import HttpMethod, HttpTransaction
from repro.core.sessions import extract_session_id
from repro.core.stages import Stage
from repro.core.wcg import WebConversationGraph
from repro.detection.clues import ClueDetector, CluePolicy, InfectionClue
from repro.obs import NULL_TRACER, NullTracer, Tracer, get_registry

__all__ = ["SessionWatch", "SessionTable"]

#: Full-table sweep cadence: every this-many routed transactions the
#: table drops prunable watches for *all* clients (the per-route prune
#: only touches the active client's list).
_SWEEP_INTERVAL = 256


@dataclass(slots=True)
class SessionWatch:
    """State of one watched conversation."""

    key: str
    client: str
    policy: CluePolicy
    #: The one history; the builder :meth:`wcg` makes shares this list.
    transactions: list[HttpTransaction] = field(default_factory=list)
    session_ids: frozenset[str] = frozenset()
    hosts: set[str] = field(default_factory=set)
    last_ts: float = 0.0
    #: Set when a clue fired and the WCG is under classifier watch.
    active_clue: InfectionClue | None = None
    alerted: bool = False
    terminated: bool = False
    #: Transactions held when ``SessionTable.expire`` last handed the
    #: watch over for its final verdict.
    judged: int = 0
    #: The detector's scoring bookkeeping for this watch: transactions
    #: since the last score request, the WCG order / version that
    #: request saw, and the clock its verdicts age cooldown entries
    #: against (its horizon, or the watermark it was last routed at).
    updates_since_score: int = 0
    scored_order: int = 0
    scored_version: int | None = None
    verdict_clock: float = 0.0
    #: (edge count, structure version) last surfaced to the tracer.
    traced_wcg: tuple[int, int] = (0, -1)
    _clues: ClueDetector = field(init=False, repr=False)
    _builder: WCGBuilder | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._clues = ClueDetector(self.policy)

    def add(self, txn: HttpTransaction,
            session_id: str | None = None) -> InfectionClue | None:
        """Ingest one transaction; returns a clue if one fires now.

        ``session_id`` is ``extract_session_id(txn)`` when the caller
        (the table's ``route``) has already extracted it.
        """
        self.transactions.append(txn)
        if session_id is None:
            session_id = extract_session_id(txn)
        if session_id and session_id not in self.session_ids:
            self.session_ids |= {session_id}
        self.hosts.add(txn.server)
        ref = txn.request.referrer_host
        if ref:
            self.hosts.add(ref)
        self.last_ts = max(self.last_ts, txn.timestamp)
        clue = self._clues.observe(txn)
        if clue is not None and self.active_clue is None:
            self.active_clue = clue
        return clue

    def wcg(self) -> WebConversationGraph:
        """The live WCG for this session — one graph object, grown in
        place, so downstream caches can key on its version counters.
        The builder is made on the first call (most watches are never
        asked) and takes the history over."""
        if self._builder is None:
            self._builder = WCGBuilder(victim=self.client)
            self._builder.transactions = self.transactions
        return self._builder.build()

    def edge_stages(self) -> list[Stage]:
        """The stage of every edge of :meth:`wcg`, in edge order (for the
        trace reader; see ``WCGBuilder.edge_stages``)."""
        self.wcg()  # makes the builder on first use
        return self._builder.edge_stages()

    def matches(self, txn: HttpTransaction, session_id: str,
                idle_gap: float) -> bool:
        """Does ``txn`` belong to this watch? (clustering heuristic)"""
        if txn.client != self.client:
            return False
        if session_id and session_id in self.session_ids:
            return True
        if txn.timestamp - self.last_ts > idle_gap:
            return False
        ref = txn.request.referrer_host
        if ref and ref in self.hosts:
            return True
        if txn.server in self.hosts:
            return True
        # Timestamp-proximity fallback (Section V-B): a referrer-less
        # POST from the same client to a never-seen host inside the
        # activity window is grouped with the ongoing conversation —
        # exactly the shape of a post-infection call-back.
        return (
            txn.request.method is HttpMethod.POST
            and not ref
            and not self.terminated
        )


class SessionTable:
    """Clusters a live transaction stream into per-session watches.

    ``prune_after`` bounds clue-less watches a session ID can still
    reach, ``min(2 * idle_gap, prune_after)`` the rest (DESIGN §9).
    ``tracer`` is its detector's (watch, clue and prune events)."""

    def __init__(self, policy: CluePolicy | None = None,
                 idle_gap: float = 60.0,
                 prune_after: float | None = None,
                 tracer: Tracer | NullTracer = NULL_TRACER):
        self.policy = policy or CluePolicy()
        self.idle_gap = idle_gap
        #: Idle horizon after which a clue-less watch with a session ID
        #: is closed and dropped.  Far larger than ``idle_gap`` so the
        #: session-ID match (which ignores the idle gap) keeps working
        #: across realistic pauses; bounded so it cannot forever.
        self.prune_after = (
            prune_after if prune_after is not None
            else max(20.0 * idle_gap, 1200.0)
        )
        #: The same without one: ``matches`` rejects everything past
        #: one ``idle_gap``; the second allows for late completions.
        self.retire_after = min(2.0 * idle_gap, self.prune_after)
        self._watches: dict[str, list[SessionWatch]] = {}
        #: Total watches ever opened (pruning does not decrease this).
        self.opened_count = 0
        #: Per-client watch ordinals.  Watch keys are numbered within
        #: their client rather than globally so a key depends only on
        #: that client's own transaction stream — the property that
        #: lets a client-sharded fleet (repro.service) reproduce the
        #: single-process alert stream byte for byte.
        self._client_serial: dict[str, int] = {}
        self._routed = 0
        #: Watches currently retained (routing candidates); mirrors
        #: ``sum(len(group) for group in self._watches.values())``.
        self._live = 0
        metrics = get_registry()
        self._metered = metrics.enabled
        self._c_opened = metrics.counter("session.watches_opened")
        self._c_pruned = metrics.counter("session.watches_pruned")
        self._c_sweeps = metrics.counter("session.sweeps")
        self._c_late = metrics.counter("session.late_transactions")
        self._g_active = metrics.gauge("session.active_watches")
        self._g_retained = metrics.gauge("session.retained_transactions")
        self._tracer = tracer

    def route(self, txn: HttpTransaction, now: float) -> SessionWatch:
        """Find (or open) the watch that owns ``txn`` and ingest it;
        ``now`` is the stream watermark, ``txn.timestamp`` at the least."""
        client = txn.client
        timestamp = txn.timestamp
        if now - timestamp > self.idle_gap:
            self._c_late.inc()  # past the retirement allowance (DESIGN §9)
        self._routed += 1
        if self._routed % _SWEEP_INTERVAL == 0:
            self.sweep(now)
        else:
            self._prune_client(client, now)
        session_id = extract_session_id(txn)
        candidates = self._watches.get(client)
        if candidates is None:
            candidates = self._watches[client] = []
        idle_gap = self.idle_gap
        for chosen in reversed(candidates):
            if not chosen.terminated and chosen.matches(txn, session_id,
                                                        idle_gap):
                break
        else:
            self.opened_count += 1
            ordinal = self._client_serial.get(client, 0) + 1
            self._client_serial[client] = ordinal
            chosen = SessionWatch(f"{client}#{ordinal}", client, self.policy)
            candidates.append(chosen)
            self._live += 1
            self._c_opened.inc()
            self._g_active.set(self._live)
            if self._tracer.enabled:
                self._tracer.emit("watch", ts=timestamp,
                                  client=client, watch=chosen.key)
        clue = chosen.add(txn, session_id)
        if self._metered:
            self._g_retained.inc()
        if clue is not None and self._tracer.enabled:
            self._tracer.emit("clue", ts=clue.timestamp, client=clue.client,
                              watch=chosen.key, **clue.as_primitives())
        return chosen

    def watches(self) -> list[SessionWatch]:
        """All retained watches, across clients."""
        return [w for group in self._watches.values() for w in group]

    def expire(self, now: float) -> tuple[list[SessionWatch], float]:
        """The clue-active watches that stopped growing before watermark
        ``now`` (idle past ``retire_after`` since their last verdict),
        oldest ``last_ts`` first, and the watermark at which this has
        work again.  The caller owes each its final verdict.

        A clue-active watch is closed when a clue-less one would be
        pruned: with that verdict, or at ``prune_after`` if a session ID
        can still reach it (a transaction carrying the ID then joins it
        and owes it a new verdict).
        """
        retire_after = self.retire_after
        stopped = []
        due = float("inf")
        for watch in self.watches():
            if watch.active_clue is None or watch.terminated:
                continue
            if watch.judged < len(watch.transactions):  # verdict owed
                if watch.last_ts + retire_after >= now:
                    due = min(due, watch.last_ts + retire_after)
                    continue
                watch.judged = len(watch.transactions)
                stopped.append(watch)
            reach = watch.last_ts + (self.prune_after if watch.session_ids
                                     else retire_after)
            if reach < now:
                watch.terminated = True
            else:
                due = min(due, reach)
        stopped.sort(key=attrgetter("last_ts"))
        return stopped, due

    # -- pruning ----------------------------------------------------------

    def _prunable(self, watch: SessionWatch, now: float) -> bool:
        idle = now - watch.last_ts
        return watch.terminated or (
            watch.active_clue is None and idle > self.retire_after
            and (idle > self.prune_after or not watch.session_ids))

    def _prune_client(self, client: str, now: float) -> None:
        group = self._watches.get(client)
        if not group:
            return
        # Every route lands here and almost none finds anything to
        # drop: look first, rebuild the list only when something is.
        if not any(map(self._prunable, group, repeat(now))):
            return
        kept = [w for w in group if not self._drop_if_prunable(w, now)]
        if kept:
            self._watches[client] = kept
        else:
            del self._watches[client]
            # The client left entirely; forget its ordinal too so the
            # table stays bounded by *active* clients.  If the client
            # returns its keys restart at #1, which is fine — alert
            # session keys only disambiguate concurrent watches (and
            # the tracer resets a recycled key's timeline).
            self._client_serial.pop(client, None)

    def _drop_if_prunable(self, watch: SessionWatch, now: float) -> bool:
        if not self._prunable(watch, now):
            return False
        watch.terminated = True
        self._live -= 1
        self._c_pruned.inc()
        self._g_active.set(self._live)
        self._g_retained.dec(len(watch.transactions))
        if self._tracer.enabled:
            # Stamped with the watch's own last stream time, not the
            # watermark: a shard catches up with the fleet clock only
            # at its own next packet, so *when* the prune runs varies
            # with the worker count.  The watch's last_ts depends only
            # on its own client's stream — the canonical trace stays
            # worker-count invariant.
            self._tracer.emit(
                "prune", ts=watch.last_ts, client=watch.client,
                watch=watch.key, alerted=watch.alerted,
                had_clue=watch.active_clue is not None,
                transactions=len(watch.transactions),
            )
            self._tracer.close_watch(watch.key, alerted=watch.alerted)
        return True

    def sweep(self, now: float) -> None:
        """Drop every watch prunable at watermark ``now``, for all
        clients."""
        self._c_sweeps.inc()
        for client in list(self._watches):
            self._prune_client(client, now)
