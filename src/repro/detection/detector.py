"""The on-the-wire detector (Stage 2 of Figure 5).

``OnTheWireDetector`` sits on an HTTP transaction stream (network edge or
web proxy position), weeds out trusted-vendor traffic, clusters the rest
into session watches, infers infection clues, and — once a clue opens a
watch — extracts the WCG's features and queries the trained ERF on every
meaningful update.  An infectious verdict raises an :class:`Alert` and
terminates the session; a benign verdict keeps the watch open until the
session stops growing.

Stream time is one watermark, ``OnTheWireDetector.watermark``:
``process_batch`` advances it with transaction timestamps, a packet tap
with each packet's, and a shard with the fleet's clock.  Once it passes
a clue-active watch's ``last_ts + 2 * idle_gap`` the watch has stopped
growing and gets its final verdict, stamped ``last_ts`` (see
``SessionTable.expire``).  End of capture (``finalize``) is the
watermark moved to +∞.

Detector state is bounded: per-watch scoring bookkeeping lives on the
watch and goes with it, the session table prunes closed and stale
watches against the watermark (see :mod:`repro.detection.monitor`), and
a cooldown entry four windows old counts as absent and goes at the next
sweep (eight windows at the latest).  Scoring itself leans on the WCG's
version counters — an unchanged graph is never re-extracted or
re-scored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.model import HttpTransaction
from repro.core.payloads import is_exploit_type
from repro.detection.alerts import Alert
from repro.detection.clues import CluePolicy
from repro.detection.monitor import SessionTable, SessionWatch
from repro.detection.whitelist import VendorWhitelist
from repro.exceptions import DetectionError
from repro.features.extractor import FeatureExtractor
from repro.learning.forest import EnsembleRandomForest
from repro.obs import NULL_TRACER, Tracer, get_registry

__all__ = ["DetectorConfig", "OnTheWireDetector"]

#: A cooldown entry this many ``alert_cooldown`` windows behind a
#: verdict's clock counts as absent (swept or not: the sweep only frees
#: memory).
_COOLDOWN_SPANS = 4.0


@dataclass
class DetectorConfig:
    """Tunables of the on-the-wire stage.

    ``alert_threshold`` is the classifier-probability cut for raising an
    alert.  0.5 is the raw majority-of-probability-mass rule; the default
    0.7 is the deployment operating point tuned on ground-truth CV so
    that borderline mid-stream WCGs (the scores the ERF's averaging
    places between 0.5 and 0.65) do not page anyone — the paper's live
    deployments report essentially no false alerts.
    ``reclassify_interval`` bounds how often a watched-but-quiet WCG is
    re-scored (every update would be wasteful on asset storms —
    re-scoring always happens when a new host joins or a risky payload
    lands).
    """

    alert_threshold: float = 0.7
    reclassify_interval: int = 25
    idle_gap: float = 60.0
    use_whitelist: bool = True
    #: Suppress further alerts for the same client within this many
    #: seconds of the previous one.  An infection episode can fragment
    #: across several session watches (C&C probes, follow-up fetches);
    #: terminating "the corresponding session" (Section V-B) means one
    #: incident-level alert, not one per fragment.
    alert_cooldown: float = 180.0
    #: Idle horizon after which clue-less session watches *that carry
    #: a session ID* are dropped from the table (``None`` = the table
    #: default, ``max(20 * idle_gap, 1200)``); those without one go
    #: after ``min(2 * idle_gap, prune_after)`` — see ``SessionTable``.
    prune_after: float | None = None


@dataclass
class _PendingScore:
    """One classification request awaiting the (micro-batched) ERF call.

    The WCG reference plus its order/size at request time are captured
    here; feature extraction itself is deferred to the flush, where one
    :meth:`~repro.features.extractor.FeatureExtractor.extract_batch`
    call fills every pending row.  That deferral is sound because the
    batching flush rule (no second transaction of the same client
    routes while one of its watches has a pending score) guarantees the
    graph cannot mutate between the request and the flush — the
    extracted row is exactly what request-time extraction would have
    produced.
    """

    watch: SessionWatch
    now: float
    wcg: "object"
    wcg_order: int
    wcg_size: int


class OnTheWireDetector:
    """Streaming malware-infection detector."""

    def __init__(
        self,
        classifier: EnsembleRandomForest,
        policy: CluePolicy | None = None,
        config: DetectorConfig | None = None,
        whitelist: VendorWhitelist | None = None,
    ):
        if not classifier.trees_:
            raise DetectionError("classifier must be fitted before deployment")
        self.classifier = classifier
        self.policy = policy or CluePolicy()
        self.config = config or DetectorConfig()
        self.whitelist = whitelist or VendorWhitelist()
        #: Every alert raised so far, in emission order.
        self.alerts: list[Alert] = []
        self._extractor = FeatureExtractor()
        self._last_alert_ts: dict[str, float] = {}
        #: Stream time: the largest timestamp advanced to so far.
        self.watermark = float("-inf")
        #: No watch stops growing and no cooldown sweep is due before the
        #: watermark reaches this (a lower bound: lowered when a watch
        #: turns clue-active or an alert lands, made exact by each scan).
        self._due = float("inf")
        self.transactions_seen = 0
        self.transactions_weeded = 0
        self.classifications = 0
        metrics = get_registry()
        self._metrics = metrics
        #: This detector's own trace, in the mode of the registry it is
        #: built under (:data:`~repro.obs.NULL_TRACER` when that is off).
        self.tracer = Tracer(metrics.trace) if metrics.trace else NULL_TRACER
        self._table = SessionTable(policy=self.policy,
                                   idle_gap=self.config.idle_gap,
                                   prune_after=self.config.prune_after,
                                   tracer=self.tracer)
        self._c_txns = metrics.counter("detector.transactions")
        self._c_weeded = metrics.counter("detector.weeded")
        self._c_scores = metrics.counter("detector.scores_requested")
        self._c_batches = metrics.counter("detector.score_batches_flushed")
        self._c_alerts = metrics.counter("detector.alerts")
        self._c_cooldown = metrics.counter("detector.cooldown_suppressed")
        self._h_batch_size = metrics.histogram("detector.score_batch_size")
        self._h_latency = metrics.histogram("detector.score_latency_seconds")

    # -- stream interface ---------------------------------------------------

    def process_batch(self, transactions: list[HttpTransaction]) -> list[Alert]:
        """Ingest the transactions of one decoder batch/tick.

        Classification requests accumulate and are scored as **one**
        classifier matrix call (:meth:`score_batch`) instead of one
        single-row call each.  Semantics are identical to feeding the
        transactions one batch each, because pending scores are flushed
        before any transaction of a client that already has one is
        routed, and before the watermark retires a watch: a transaction
        can only mutate (or be routed by) its own client's watches, so
        at every flush point each pending watch's WCG, the cooldown map,
        and the routing structures are exactly what the one-at-a-time
        feed saw.  Alerts dispatch in request order.
        """
        alerts: list[Alert] = []
        pending: list[_PendingScore] = []
        pending_clients: set[str] = set()
        table = self._table
        retire_after = table.retire_after
        watermark = self.watermark  # only this loop moves it
        for txn in transactions:
            if txn.timestamp > watermark:  # advance(), inlined
                self.watermark = watermark = txn.timestamp
                if watermark >= self._due:
                    alerts.extend(self.score_batch(pending))
                    pending.clear()
                    pending_clients.clear()
                    alerts.extend(self._retire_stopped())
            self.transactions_seen += 1
            self._c_txns.inc()
            if self.config.use_whitelist and self.whitelist.trusted(txn.server):
                self.transactions_weeded += 1
                self._c_weeded.inc()
                continue
            if txn.client in pending_clients:
                alerts.extend(self.score_batch(pending))
                pending.clear()
                pending_clients.clear()
            watch = table.route(txn, watermark)
            if watch.alerted or watch.terminated:
                continue
            if watch.active_clue is None:
                continue  # nothing suspicious yet; keep accumulating
            horizon = watch.last_ts + retire_after
            if horizon < self._due:
                self._due = horizon
            # Behind the watermark only if over 2 * idle_gap late.
            watch.verdict_clock = (horizon if horizon > watermark
                                   else watermark)
            if not self._should_score(watch, txn):
                continue
            request = self._request_score(watch, txn.timestamp)
            if request is not None:
                pending.append(request)
                pending_clients.add(watch.client)
        alerts.extend(self.score_batch(pending))
        return alerts

    def advance(self, now: float) -> list[Alert]:
        """Move stream time to ``now``; returns the alerts of the final
        verdicts it brings (:meth:`_retire_stopped`).  No-op if earlier."""
        if now <= self.watermark:
            return []
        self.watermark = now
        return self._retire_stopped() if now >= self._due else []

    def finalize(self) -> list[Alert]:
        """End of capture: :meth:`advance` to +∞, so every clue-active
        watch gets its final verdict, then drop every watch."""
        alerts = self.advance(float("inf"))
        self._table.sweep(self.watermark)
        return alerts

    def replay(self, transactions: Iterable[HttpTransaction]) -> list[Alert]:
        """Replay a recorded stream in timestamp order, to its end.

        The forensic / proxy deployment of the case studies: a stable
        sort on the timestamp (several hosts' captures merge into one
        proxy stream), one :meth:`process_batch`, then :meth:`finalize`.
        Returns every alert, the end-of-capture verdicts included.
        """
        ordered = sorted(transactions, key=lambda txn: txn.timestamp)
        return self.process_batch(ordered) + self.finalize()

    def _retire_stopped(self) -> list[Alert]:
        """Give every watch that stopped growing (Section V-B) its final
        verdict, then drop cooldown entries four windows old.

        The verdicts are one classifier matrix call, stamped ``last_ts``
        and dispatched in ``last_ts`` order (table order on ties), so
        cross-watch cooldown suppression is still a sequential walk.
        """
        now = self.watermark
        stopped, due = self._table.expire(now)
        requests = [self._request_score(watch, watch.last_ts)
                    for watch in stopped]
        alerts = self.score_batch([r for r in requests if r is not None])
        span = _COOLDOWN_SPANS * self.config.alert_cooldown
        stamps = self._last_alert_ts
        if min(stamps.values(), default=now) + span < now:
            self._last_alert_ts = stamps = {
                client: stamp for client, stamp in stamps.items()
                if stamp + span >= now
            }
        # An aged entry is harmless until swept, so a sweep is only
        # scheduled once the oldest is two spans old: each then drops a
        # span's worth of alerts, not one.
        self._due = min(due, min(stamps.values(), default=due) + 2 * span)
        return alerts

    # -- scoring ------------------------------------------------------------

    def _should_score(self, watch: SessionWatch, txn: HttpTransaction) -> bool:
        """Re-score on clue trigger, graph growth, risky payload, or
        periodically."""
        watch.updates_since_score += 1
        count = watch.updates_since_score
        if count == 1:  # first score right after the clue fired
            return True
        if is_exploit_type(txn.payload_type):
            return True
        if watch.wcg().order > watch.scored_order:
            return True  # a new host joined the conversation
        return count % self.config.reclassify_interval == 0

    def _request_score(
        self, watch: SessionWatch, now: float
    ) -> _PendingScore | None:
        """Capture one classification request (features + bookkeeping).

        The scoring-side bookkeeping happens here, at request time —
        equivalent to the sequential path because the flush rule keeps
        the watch untouched until the batched classifier call lands.
        """
        wcg = watch.wcg()
        if watch.scored_version == wcg.version:
            # Nothing feature-bearing changed since the last score, and
            # that score did not alert (the watch would be terminated) —
            # the verdict is already known to be sub-threshold.
            return None
        self.classifications += 1
        self._c_scores.inc()
        watch.updates_since_score = 1
        watch.scored_order = wcg.order
        watch.scored_version = wcg.version
        if self.tracer.enabled:
            self._trace_growth(watch, wcg, now)
        return _PendingScore(watch=watch, now=now, wcg=wcg,
                             wcg_order=wcg.order, wcg_size=wcg.size)

    def _trace_growth(self, watch: SessionWatch, wcg, now: float) -> None:
        """Surface the WCG's growth since the last score request.

        Edge events are emitted here — where the detection path
        materializes the graph — rather than from inside the builder:
        the builder folds its pending transactions lazily, and forcing
        extra folds just to observe edges would change *when* the
        out-of-order replay runs, breaking the tracing-on/off metrics
        identity.  Each event carries the edge's own timestamp, so the
        reconstructed timeline is stream-accurate even though emission
        batches at scoring points, and the edge's stage as derived at
        emission.  (On the rare out-of-order replay the graph is rebuilt
        sorted, so the tail slice may describe re-ordered edges; the
        diff is deterministic either way.)
        """
        size = wcg.size
        last_size, last_structure = watch.traced_wcg
        if size > last_size:
            stamps = wcg.edge_timestamps
            kinds = wcg.edge_kinds
            stages = watch.edge_stages()
            for index in range(last_size, size):
                self.tracer.emit(
                    "edge",
                    ts=float(stamps[index]),
                    client=watch.client,
                    watch=watch.key,
                    edge=kinds[index].name.lower(),
                    stage=int(stages[index]),
                    index=index,
                )
        structure = wcg.structure_version
        if structure != last_structure:
            self.tracer.emit(
                "wcg", ts=now, client=watch.client, watch=watch.key,
                order=int(wcg.order), size=int(size),
                structure_version=int(structure),
            )
        watch.traced_wcg = (size, structure)

    def score_batch(self, requests: list[_PendingScore]) -> list[Alert]:
        """Score pending requests as one matrix call; dispatch in order.

        Feature rows are assembled here, in one ``extract_batch`` call
        over the pending WCGs (safe because the flush rule froze them;
        see :class:`_PendingScore`).  Per-row
        classifier output is independent of the other rows in the
        matrix (arena inference is elementwise across rows), so
        each verdict is byte-identical to the single-row call the
        sequential path would have made.
        """
        if not requests:
            return []
        rows = self._extractor.extract_batch(
            [request.wcg for request in requests]
        )
        scores, latency = self._timed_scores(rows)
        self._c_batches.inc()
        self._h_batch_size.observe(len(requests))
        alerts = []
        traced = self.tracer.enabled
        for index, (request, score) in enumerate(zip(requests, scores)):
            if traced:
                self._trace_score(request, float(score), len(requests),
                                  latency)
            alert = self._dispatch(request, float(score), rows[index])
            if alert is not None:
                alerts.append(alert)
        return alerts

    def _timed_scores(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, float | None]:
        """Classifier call; returns ``(scores, per-row seconds)``.

        The clock is only read when metrics or tracing want the
        latency, so the disabled path is exactly the bare classifier
        call (and reports ``None``).  The histogram observation stays
        metrics-gated — it is a no-op instrument otherwise.
        """
        if not (self._metrics.enabled or self.tracer.enabled):
            return self.classifier.decision_scores(rows), None
        started = time.perf_counter()
        scores = self.classifier.decision_scores(rows)
        elapsed = time.perf_counter() - started
        # Per-score latency: the batch call amortizes over its rows.
        per_row = elapsed / len(rows)
        self._h_latency.observe(per_row)
        return scores, per_row

    def _trace_score(self, request: _PendingScore, score: float,
                     batch: int, latency: float | None) -> None:
        """Emit one ``score`` event (batch size, per-row latency; the
        latency is wall-clock and thus excluded from the canonical
        trace form)."""
        data = {
            "score": score,
            "batch": batch,
            "order": request.wcg_order,
            "size": request.wcg_size,
        }
        if latency is not None:
            data["latency_s"] = latency
        self.tracer.emit("score", ts=request.now,
                         client=request.watch.client,
                         watch=request.watch.key, **data)

    def _dispatch(self, request: _PendingScore, score: float,
                  row: np.ndarray) -> Alert | None:
        """Apply the verdict: threshold, cooldown, alert, terminate.

        ``row`` is the feature vector the score came from; when tracing
        is enabled it feeds the alert's forest explanation.
        """
        watch = request.watch
        now = request.now
        traced = self.tracer.enabled
        if score < self.config.alert_threshold:
            if traced:
                self.tracer.emit(
                    "verdict", ts=now, client=watch.client,
                    watch=watch.key, decision="benign", score=score,
                    threshold=self.config.alert_threshold,
                )
            return None
        last = self._last_alert_ts.get(watch.client)
        span = _COOLDOWN_SPANS * self.config.alert_cooldown
        if last is not None and last + span < watch.verdict_clock:
            last = None  # aged out, swept or not
        if last is not None and now - last < self.config.alert_cooldown:
            # Same incident: terminate the fragment quietly.  A negative
            # delta (skewed or out-of-order timestamps) counts as inside
            # the cooldown — it is the same incident seen with an earlier
            # clock, not a reason to page twice.  Keep the high-water
            # mark so the window stays monotonic.
            self._c_cooldown.inc()
            self._last_alert_ts[watch.client] = max(last, now)
            watch.alerted = True
            watch.terminated = True
            if traced:
                self.tracer.emit(
                    "verdict", ts=now, client=watch.client,
                    watch=watch.key, decision="cooldown", score=score,
                    threshold=self.config.alert_threshold,
                    suppressed_by=last,
                )
                self.tracer.close_watch(watch.key, alerted=True)
            return None
        self._last_alert_ts[watch.client] = now
        self._due = min(self._due, now + 2 * span)
        alert = Alert(
            client=watch.client,
            score=score,
            clue=watch.active_clue,
            timestamp=now,
            wcg_order=request.wcg_order,
            wcg_size=request.wcg_size,
            session_key=watch.key,
        )
        watch.alerted = True
        watch.terminated = True  # DynaMiner terminates infectious sessions
        self._c_alerts.inc()
        if traced:
            self.tracer.emit(
                "verdict", ts=now, client=watch.client, watch=watch.key,
                decision="alert", score=score,
                threshold=self.config.alert_threshold,
                provenance=self._provenance(request, row),
            )
            self.tracer.close_watch(watch.key, alerted=True)
        self.alerts.append(alert)
        return alert

    def _provenance(self, request: _PendingScore, row: np.ndarray) -> dict:
        """Why the alert fired, as its ``verdict`` event carries it
        (DESIGN.md §16): JSON primitives only.

        * ``clue_chain`` — the watch's clues in firing order, each a
          ``server`` / ``payload_type`` / ``chain_length`` /
          ``timestamp`` dict, from the tracer's per-watch summary (kept
          outside the event ring, so it survives ring rotation; the
          first 32); ``clues_total`` counts every clue the watch fired;
        * ``first_clue_ts`` / ``first_edge_ts`` — stream time of the
          first clue and of the WCG's earliest edge;
          ``time_to_detection`` / ``time_from_first_edge`` — the alert
          time minus each (the latter is the paper's earliness measure);
        * ``wcg_order`` / ``wcg_size`` — graph dimensions at verdict time;
        * ``tree_votes`` / ``tree_scores`` / ``vote_tally`` /
          ``feature_path_counts`` — the forest explanation of
          :meth:`~repro.learning.forest.EnsembleRandomForest.explain_row`.

        Every field is stream-derived — no wall clock — so provenance
        is identical across runs and worker counts.
        """
        watch = request.watch
        now = request.now
        summary = self.tracer.watch_summary(watch.key)
        if summary is not None and summary.clues:
            chain = [
                {"server": event.data.get("server", ""),
                 "payload_type": event.data.get("payload", ""),
                 "chain_length": int(event.data.get("chain_length", 0)),
                 "timestamp": event.ts}
                for event in summary.clues
            ]
            clues_total = summary.clue_count
        elif watch.active_clue is not None:
            # The tracer was enabled after this watch opened (or its
            # timeline was evicted); fall back to the opening clue.
            clue = watch.active_clue
            chain = [{"server": clue.server,
                      "payload_type": clue.payload_type.value,
                      "chain_length": clue.chain_length,
                      "timestamp": clue.timestamp}]
            clues_total = 1
        else:
            chain = []
            clues_total = 0
        first_clue_ts = chain[0]["timestamp"] if chain else now
        wcg = request.wcg
        first_edge_ts = wcg.ts_min if wcg.size else now
        explanation = self.classifier.explain_row(row)
        return {
            "clue_chain": chain,
            "clues_total": int(clues_total),
            "first_clue_ts": float(first_clue_ts),
            "first_edge_ts": float(first_edge_ts),
            "time_to_detection": float(now - first_clue_ts),
            "time_from_first_edge": float(now - first_edge_ts),
            "wcg_order": int(request.wcg_order),
            "wcg_size": int(request.wcg_size),
            "tree_votes": list(explanation["tree_votes"]),
            "tree_scores": list(explanation["tree_scores"]),
            "vote_tally": list(explanation["vote_tally"]),
            "feature_path_counts": list(explanation["feature_path_counts"]),
        }

    # -- introspection --------------------------------------------------------

    def watch_count(self) -> int:
        """Number of session watches opened so far."""
        return self._table.opened_count

    def tracked_state_size(self) -> tuple[int, int]:
        """(live watches, cooldown entries) — the two containers the
        boundedness regression test pins; per-watch scoring state lives
        on the watches themselves."""
        return len(self._table.watches()), len(self._last_alert_ts)
