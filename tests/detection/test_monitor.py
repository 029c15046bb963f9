"""Unit tests for session watching and the session table."""

from repro.core.model import HttpMethod
from repro.detection.clues import CluePolicy
from repro.detection.monitor import SessionTable, SessionWatch
from tests.conftest import make_txn
from tests.oracles.session_prune import rebuilding_prune_client


class TestSessionWatch:
    def test_add_tracks_state(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", uri="/x?sid=S1", ts=1.0))
        assert watch.session_ids == {"S1"}
        assert "a.com" in watch.hosts
        assert watch.last_ts == 1.0

    def test_clue_recorded_once(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        first = watch.add(make_txn(host="ek.pw", uri="/a.exe", ts=1.0,
                                   content_type="application/x-msdownload"))
        assert first is not None
        watch.add(make_txn(host="ek.pw", uri="/b.exe", ts=2.0,
                           content_type="application/x-msdownload"))
        assert watch.active_clue is first

    def test_wcg_grows_incrementally(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        order_before = watch.wcg().order
        watch.add(make_txn(host="b.com", ts=2.0))
        assert watch.wcg().order == order_before + 1

    def test_matches_by_session_id(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", uri="/x?sid=SAME", ts=1.0))
        later = make_txn(host="z.org", uri="/y?sid=SAME", ts=500.0)
        assert watch.matches(later, "SAME", idle_gap=60.0)

    def test_matches_by_referrer_within_gap(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        linked = make_txn(host="b.com", ts=10.0, referrer="http://a.com/")
        assert watch.matches(linked, "", idle_gap=60.0)

    def test_no_match_past_idle_gap(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        later = make_txn(host="a.com", ts=1000.0)
        assert not watch.matches(later, "", idle_gap=60.0)

    def test_no_match_other_client(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        other = make_txn(host="a.com", ts=2.0, client="other")
        assert not watch.matches(other, "", idle_gap=60.0)

    def test_referrerless_post_matches(self):
        # The C&C call-back grouping rule (Section V-B timestamps).
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        callback = make_txn(host="fresh-cnc.xyz", ts=5.0,
                            method=HttpMethod.POST)
        assert watch.matches(callback, "", idle_gap=60.0)

    def test_referrerless_get_to_new_host_does_not_match(self):
        watch = SessionWatch(key="k", client="victim", policy=CluePolicy())
        watch.add(make_txn(host="a.com", ts=1.0))
        unrelated = make_txn(host="fresh.org", ts=5.0)
        assert not watch.matches(unrelated, "", idle_gap=60.0)


class TestSessionTable:
    def test_routes_to_same_watch(self):
        table = SessionTable()
        w1 = table.route(make_txn(host="a.com", ts=1.0))
        w2 = table.route(make_txn(host="b.com", ts=2.0,
                                  referrer="http://a.com/"))
        assert w1 is w2

    def test_new_watch_for_unrelated(self):
        table = SessionTable()
        w1 = table.route(make_txn(host="a.com", ts=1.0))
        w2 = table.route(make_txn(host="z.org", ts=2.0))
        assert w1 is not w2
        assert len(table.watches()) == 2

    def test_per_client_isolation(self):
        table = SessionTable()
        w1 = table.route(make_txn(host="a.com", ts=1.0, client="alice"))
        w2 = table.route(make_txn(host="a.com", ts=2.0, client="bob"))
        assert w1 is not w2

    def test_terminated_watch_not_reused(self):
        table = SessionTable()
        w1 = table.route(make_txn(host="a.com", ts=1.0))
        w1.terminated = True
        w2 = table.route(make_txn(host="a.com", ts=2.0))
        assert w2 is not w1

    def test_expire(self):
        table = SessionTable(idle_gap=60.0)
        table.route(make_txn(host="a.com", ts=1.0))
        table.route(make_txn(host="z.org", ts=100.0))
        expired = table.expire(now=130.0)
        assert len(expired) == 1
        assert expired[0].hosts == {"a.com"}

    def test_watch_keys_unique(self):
        table = SessionTable()
        table.route(make_txn(host="a.com", ts=1.0))
        table.route(make_txn(host="z.org", ts=2.0))
        keys = [w.key for w in table.watches()]
        assert len(set(keys)) == len(keys)


class TestRetainedTransactionsGauge:
    def test_gauge_is_what_the_retained_watches_hold(self):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            table = SessionTable(idle_gap=5.0)
            for index in range(300):
                table.route(make_txn(host=f"h{index % 7}.com",
                                     ts=float(index),
                                     client=f"c{index % 40}"))
            held = sum(len(w.transactions) for w in table.watches())
            gauges = registry.snapshot()["gauges"]
            assert gauges["session.retained_transactions"] == held
            assert 0 < held < 300  # some watches were retired on the way
            assert gauges["session.active_watches"] == len(table.watches())
            table.expire(now=1000.0)
            gauges = registry.snapshot()["gauges"]
        assert gauges["session.retained_transactions"] == 0
        assert gauges["session.active_watches"] == 0


class TestPruneEventsUnchanged:
    def test_same_prunes_in_the_same_order_on_mixed(self, trained_model,
                                                    monkeypatch):
        """Scan-then-rebuild must drop exactly the watches the rebuild-
        always version dropped, at the same routes: same ``prune``
        events in the same emission order, same counter."""
        from repro.detection.detector import DetectorConfig, OnTheWireDetector
        from repro.loadgen import MIXED, LoadGenerator
        from repro.net.flows import transactions_from_packets
        from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer

        generator = LoadGenerator(seed=23, mix=MIXED, concurrency=8)
        txns = transactions_from_packets(generator.capture(6000),
                                         book=generator.book)

        def run():
            registry = MetricsRegistry()
            with use_registry(registry), use_tracer(Tracer()) as tracer:
                # A horizon far inside the ~10 min stream, so the
                # per-route prune (not just the sweep) has work to do.
                detector = OnTheWireDetector(trained_model, config=DetectorConfig(
                    idle_gap=5.0, prune_after=20.0))
                for txn in txns:
                    detector.process_batch([txn])
                detector.finalize()
                events = sorted(tracer.events(), key=lambda e: e.seq)
            return ([e.canonical() for e in events],
                    registry.snapshot()["counters"])

        events, counters = run()
        monkeypatch.setattr(SessionTable, "_prune_client",
                            rebuilding_prune_client)
        reference_events, reference_counters = run()
        prunes = [e for e in events if e["kind"] == "prune"]
        assert len(prunes) > 50
        assert counters["session.watches_pruned"] == len(prunes)
        assert events == reference_events
        assert counters == reference_counters
