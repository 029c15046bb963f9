"""Regression tests: detector and session-table state stays bounded.

The seed implementation never dropped anything: terminated watches sat
in ``SessionTable._watches`` forever (``route()`` re-scanned them per
transaction), and the detector's per-watch scoring dicts and per-client
cooldown map only ever grew.  (The scoring bookkeeping has since moved
onto the watch itself, so it is bounded exactly as the watches are.)  On a long-lived wire tap that is a slow
memory leak and a slowly degrading hot path.  These tests stream many
short sessions from many clients over a long simulated capture and pin
that every state container stays small while the opened-watch counter
keeps the old accounting semantics.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

from repro.core.model import HttpMethod
from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDecoder
from repro.detection.monitor import SessionTable, SessionWatch
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.synthesis.corpus import validation_corpus
from tests.conftest import make_txn


def _benign_session(client: str, base_ts: float, host: str):
    return [
        make_txn(host=host, uri="/", ts=base_ts, client=client),
        make_txn(host=host, uri="/style.css", ts=base_ts + 1.0,
                 client=client, content_type="text/css",
                 referrer=f"http://{host}/"),
    ]


def _infection_burst(prefix: str, base_ts: float, client: str):
    return [
        make_txn(host=f"{prefix}-hop.com", ts=base_ts, status=302,
                 content_type="", client=client,
                 extra_res_headers={"Location": f"http://{prefix}-ek.pw/g"}),
        make_txn(host=f"{prefix}-ek.pw", uri="/g", ts=base_ts + 1,
                 client=client, referrer=f"http://{prefix}-hop.com/"),
        make_txn(host=f"{prefix}-ek.pw", uri="/drop.exe", ts=base_ts + 2,
                 client=client, content_type="application/x-msdownload",
                 referrer=f"http://{prefix}-ek.pw/g"),
        make_txn(host=f"{prefix}-cnc.xyz", uri="/p.php", ts=base_ts + 3,
                 client=client, method=HttpMethod.POST,
                 content_type="text/plain"),
    ]


class TestDetectorStateBounded:
    @staticmethod
    def _run(trained_model, sessions: int):
        config = DetectorConfig(
            alert_threshold=0.2,
            alert_cooldown=50.0,
            idle_gap=30.0,
            prune_after=120.0,
        )
        detector = OnTheWireDetector(trained_model, config=config)
        clients = 160
        stream = []
        for index in range(sessions):
            client = f"host-{index % clients}"
            base_ts = 1000.0 + index * 40.0
            if index % 5 == 0:
                stream.extend(_infection_burst(f"s{index}", base_ts, client))
            else:
                stream.extend(
                    _benign_session(client, base_ts, f"site-{index}.example")
                )
        detector.process_batch(stream)
        return detector

    def test_long_multi_session_stream(self, trained_model):
        sessions = 400
        detector = self._run(trained_model, sessions)
        live_watches, cooldown_entries = detector.tracked_state_size()
        # Retained state is bounded by the prune horizon and the sweep
        # cadence, never by how many sessions flowed through.
        assert live_watches <= 300, live_watches
        # A cooldown entry goes four windows (200 s) after its alert.
        assert cooldown_entries <= 8
        # Accounting semantics survive pruning: watches *opened* keeps
        # counting even though most watches are long gone.
        assert detector.watch_count() >= sessions * 0.9
        assert len(detector.alerts) >= 10

        detector.finalize()
        live_watches, _ = detector.tracked_state_size()
        assert live_watches == 0

    def test_state_does_not_scale_with_stream_length(self, trained_model):
        # The sharp version of boundedness: doubling the stream must not
        # grow any retained container (the seed leaked one watch and two
        # dict entries per session).
        short = self._run(trained_model, 200)
        long = self._run(trained_model, 400)
        short_sizes = short.tracked_state_size()
        long_sizes = long.tracked_state_size()
        for short_size, long_size in zip(short_sizes, long_sizes):
            assert long_size <= max(short_size + 8, short_size * 1.25), (
                short_sizes, long_sizes,
            )

    def test_forgets_scoring_state_on_alert(self, trained_model):
        config = DetectorConfig(alert_threshold=0.2, alert_cooldown=10.0)
        detector = OnTheWireDetector(trained_model, config=config)
        detector.process_batch(_infection_burst("one", 10.0, "victim"))
        assert len(detector.alerts) == 1
        # The scoring state is the alerted watch's own: the client's
        # next transaction prunes that watch, state and all, and the
        # watch it opens inherits nothing.
        follow_up = make_txn(host="later.example", ts=15.0, client="victim")
        detector.process_batch([follow_up])
        watches = detector._table.watches()
        assert not any(watch.alerted for watch in watches)
        fresh = watches[-1]
        assert fresh.hosts == {"later.example"}
        assert (fresh.updates_since_score, fresh.scored_order,
                fresh.scored_version) == (0, 0, None)


class TestCooldownSweep:
    """The cooldown sweep only frees memory: an entry four windows
    behind the clock a verdict is judged at counts as absent, swept or
    not, so when sweeps run cannot change an alert."""

    @staticmethod
    def _lagging_client():
        """``lag`` alerts; ``bob`` then carries the clock 800 s on; then
        a second episode of ``lag`` arrives stamped 100 s, inside the
        cooldown of its first alert but far behind the clock."""
        stream = _infection_burst("one", 0.0, "lag") + [
            make_txn(host="one-cnc.xyz", uri=f"/p.php?beat={beat}",
                     ts=4.0 + beat, client="lag", method=HttpMethod.POST,
                     content_type="text/plain") for beat in range(8)]
        stream += [make_txn(host="news.example", ts=10.0 * i, client="bob")
                   for i in range(2, 81)]
        stream += _infection_burst("two", 100.0, "lag") + [
            make_txn(host="two-cnc.xyz", uri=f"/p.php?beat={beat}",
                     ts=104.0 + beat, client="lag", method=HttpMethod.POST,
                     content_type="text/plain") for beat in range(8)]
        stream += [make_txn(host="news.example", ts=800.0 + 10.0 * i,
                            client="bob") for i in range(1, 40)]
        return stream

    def _alerts(self, eager: bool):
        from tests.detection.test_proxy import _AlertsPastTenEdges

        detector = OnTheWireDetector(_AlertsPastTenEdges(), config=DetectorConfig(
            alert_cooldown=180.0, idle_gap=60.0, reclassify_interval=10_000))
        alerts = []
        for txn in self._lagging_client():
            if eager:  # scan, and so sweep, at every step of the clock
                detector._due = float("-inf")
            alerts += detector.process_batch([txn])
        alerts += detector.finalize()
        return alerts

    def test_sweeping_early_changes_no_alert(self):
        lazy, eager = self._alerts(eager=False), self._alerts(eager=True)
        assert [(a.client, a.timestamp) for a in lazy] == [("lag", 11.0),
                                                           ("lag", 111.0)]
        assert eager == lazy


class TestSessionTablePruning:
    def test_expire_drops_terminated_watches(self, trained_model):
        detector = OnTheWireDetector(trained_model,
                                     config=DetectorConfig(idle_gap=30.0))
        detector.process_batch([
            make_txn(host=f"h{index}.com", ts=100.0 + index,
                     client=f"c{index}") for index in range(20)])
        assert detector.tracked_state_size() == (20, 0)
        detector.finalize()
        assert detector.tracked_state_size() == (0, 0)
        assert detector.watch_count() == 20

    def test_idle_clueless_watches_pruned_during_routing(self):
        table = SessionTable(policy=CluePolicy(), idle_gap=30.0,
                             prune_after=100.0)
        table.route(make_txn(host="old.com", ts=100.0, client="alice"), 100.0)
        # Time marches on via other clients' traffic; alice's clueless
        # watch falls past the prune horizon and is dropped on her next
        # routed transaction (it gets a fresh watch).
        for index in range(10):
            ts = 150.0 + index * 10.0
            table.route(make_txn(host=f"b{index}.com", ts=ts, client="bob"),
                        ts)
        table.route(make_txn(host="new.com", ts=260.0, client="alice"), 260.0)
        alice = [w for w in table.watches() if w.client == "alice"]
        assert len(alice) == 1
        assert alice[0].hosts == {"new.com"}

    def test_session_id_match_survives_within_prune_horizon(self):
        # The session-ID match intentionally ignores idle_gap; pruning
        # must not break it inside the horizon.
        table = SessionTable(policy=CluePolicy(), idle_gap=30.0,
                             prune_after=500.0)
        first = table.route(make_txn(
            host="app.com", ts=100.0, client="alice",
            extra_req_headers={"Cookie": "PHPSESSID=abc123"},
        ), 100.0)
        second = table.route(make_txn(
            host="app.com", uri="/later", ts=300.0, client="alice",
            extra_req_headers={"Cookie": "PHPSESSID=abc123"},
        ), 300.0)
        assert second is first


def _traced_bytes_per_item(build) -> float:
    """tracemalloc bytes still allocated, per item of the list
    ``build()`` returns, once everything else it made is collected."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) >= 500
    return (after - before) / len(kept)


def _retained_bytes_per_transaction(mix) -> float:
    """What a wire-decoded transaction of ``mix`` retains."""
    generator = LoadGenerator(seed=23, mix=mix, concurrency=8)
    packets = generator.capture(6000)

    def build():
        decoder = LiveDecoder(book=generator.book)
        kept = [txn for packet in packets for txn in decoder.feed(packet)]
        return kept + decoder.flush()

    return _traced_bytes_per_item(build)


class TestByteBudgets:
    """What one live client costs, in bytes (DESIGN §9).  The budgets
    are the measured sizes plus a few percent, so an attribute dict, an
    eager builder or a per-message string copy creeping back fails."""

    def test_idle_clueless_watch_shell_fits_one_kib(self):
        """The watch minus its transactions: slots, key, one history
        list, the host sets and a clue detector — no WCG builder until
        a graph is asked for.  Was 2 196 B with the eager builder and
        four attribute dicts."""
        count = 500
        policy = CluePolicy()
        txns = [make_txn(host=f"h{i}.example", ts=float(i), client=f"c{i}")
                for i in range(count)]
        for txn in txns:  # the referrer memo is the transaction's own
            assert txn.request.referrer_host == ""

        def build():
            watches = []
            for txn in txns:
                watch = SessionWatch(f"{txn.client}#1", txn.client, policy)
                watch.add(txn)
                watches.append(watch)
            return watches

        assert _traced_bytes_per_item(build) <= 1024

    def test_retained_wire_decoded_transaction_budget(self):
        """A transaction as the tap hands it to the watch that retains
        it, on the HOSTILE mix (bodies ~44 B, so this is the envelope:
        two messages, their header maps, URI and host).  Was 1 222 B
        with a fresh ``'HTTP/1.1'`` per message, 1 115 B with a pair
        per header."""
        assert _retained_bytes_per_transaction(HOSTILE) <= 1025

    def test_retained_wire_decoded_mixed_transaction_budget(self):
        """The same on the MIXED mix, bodies included.  Was 2 115 B
        with a pair per header."""
        assert _retained_bytes_per_transaction(MIXED) <= 1975

    def test_unpickled_synthesized_transaction_budget(self):
        """A synthesized transaction as a proxy stream read from disk
        holds it (the ``proxy_dense`` input).  Was 1 211 B with a pair
        per header."""
        corpus = validation_corpus(seed=1301, scale=0.02)
        stream = pickle.dumps(
            [txn for trace in corpus.traces for txn in trace.transactions],
            protocol=pickle.HIGHEST_PROTOCOL)
        assert _traced_bytes_per_item(lambda: pickle.loads(stream)) <= 905
