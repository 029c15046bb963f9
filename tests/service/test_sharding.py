"""Unit tests for the client-affinity router and the merge contract."""

from repro.core.payloads import PayloadType
from repro.detection.alerts import Alert
from repro.detection.clues import InfectionClue
from repro.loadgen import MIXED, LoadGenerator
from repro.loadgen.episodes import HostAllocator, RawConnection, _http_get
from repro.net.packets import decode_ethernet, decode_ipv4, decode_tcp
from repro.obs.registry import Histogram
from repro.net.pcap import PcapPacket
from repro.service import (
    PacketRouter,
    client_ip_of,
    merge_alerts,
    merge_snapshots,
    shard_of,
)
from repro.service.worker import ShardAlert


def _histogram(*values):
    histogram = Histogram("lat")
    for value in values:
        histogram.observe(value)
    return histogram


class TestClientHeuristic:
    def test_service_port_marks_server(self):
        assert client_ip_of("10.0.0.1", 49152, "198.51.0.1", 80) == "10.0.0.1"
        assert client_ip_of("198.51.0.1", 80, "10.0.0.1", 49152) == "10.0.0.1"
        assert client_ip_of("10.0.0.2", 50000, "9.9.9.9", 443) == "10.0.0.2"

    def test_direction_stable(self):
        forward = client_ip_of("10.0.0.1", 49152, "198.51.0.1", 80)
        reverse = client_ip_of("198.51.0.1", 80, "10.0.0.1", 49152)
        assert forward == reverse

    def test_ambiguous_falls_back_symmetrically(self):
        forward = client_ip_of("10.0.0.1", 5555, "10.0.0.2", 6666)
        reverse = client_ip_of("10.0.0.2", 6666, "10.0.0.1", 5555)
        assert forward == reverse

    def test_shard_of_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for client in ("10.0.0.1", "172.31.0.5", "x"):
                shard = shard_of(client, n)
                assert 0 <= shard < n
                assert shard == shard_of(client, n)


class TestPacketRouter:
    def test_client_affinity_over_mixed_workload(self):
        """Every TCP packet of a given client lands on one shard, both
        directions included — the invariant the whole parity story
        rests on."""
        generator = LoadGenerator(seed=31, mix=MIXED, concurrency=6)
        packets = generator.capture(4000)
        router = PacketRouter(n_shards=4)
        seen: dict[str, set[int]] = {}
        for packet in packets:
            for shard, routed in router.route(packet):
                # Recover the client the router should have used.
                try:
                    ip = decode_ipv4(decode_ethernet(routed.data).payload)
                    if ip.is_fragment:
                        continue
                    segment = decode_tcp(ip.payload)
                except Exception:
                    continue
                client = client_ip_of(ip.src, segment.src_port,
                                      ip.dst, segment.dst_port)
                seen.setdefault(client, set()).add(shard)
        assert seen, "expected routable TCP traffic"
        for client, shards in seen.items():
            assert len(shards) == 1, f"client {client} split: {shards}"

    def test_all_packets_delivered_exactly_once(self):
        generator = LoadGenerator(seed=37, mix=MIXED, concurrency=6)
        packets = generator.capture(3000)
        router = PacketRouter(n_shards=3)
        delivered = 0
        for packet in packets:
            delivered += len(router.route(packet))
        held = sum(len(v) for v in router._held.values())
        assert delivered + held == len(packets)

    def test_garbage_routes_deterministically(self):
        router_a = PacketRouter(n_shards=4)
        router_b = PacketRouter(n_shards=4)
        junk = PcapPacket(1.0, b"\x00\x01garbage-frame")
        [(shard_a, _)] = router_a.route(junk)
        [(shard_b, _)] = router_b.route(junk)
        assert shard_a == shard_b

    def test_single_shard_routes_everything_to_zero(self):
        hosts = HostAllocator()
        ip, port = hosts.client()
        conn = RawConnection(ip, port, hosts.server())
        router = PacketRouter(n_shards=1)
        packets = conn.open(0.0) + conn.send(
            0.01, True, _http_get(conn.server_ip, "/", "a")
        )
        for packet in packets:
            for shard, _ in router.route(packet):
                assert shard == 0


def _alert(ts: float, client: str) -> Alert:
    clue = InfectionClue(client=client, server="evil.example",
                         payload_type=PayloadType.EXE, chain_length=3,
                         timestamp=ts)
    return Alert(client=client, score=0.9, clue=clue, timestamp=ts,
                 wcg_order=3, wcg_size=4, session_key=f"{client}#1")


class TestMergeAlerts:
    def test_orders_by_timestamp_then_shard_then_seq(self):
        a = ShardAlert(1, 0, _alert(5.0, "c1"))
        b = ShardAlert(0, 0, _alert(5.0, "c2"))
        c = ShardAlert(0, 1, _alert(1.0, "c3"))
        merged = merge_alerts([a, b, c])
        assert [alert.client for alert in merged] == ["c3", "c2", "c1"]

    def test_same_shard_ties_keep_emission_order(self):
        first = ShardAlert(2, 0, _alert(7.0, "x"))
        second = ShardAlert(2, 1, _alert(7.0, "y"))
        merged = merge_alerts([second, first])
        assert [alert.client for alert in merged] == ["x", "y"]


class TestMergeSnapshots:
    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots([
            {"enabled": True, "counters": {"a": 2, "b": 1}, "gauges": {"g": 3},
             "histograms": {}},
            {"enabled": True, "counters": {"a": 5}, "gauges": {"g": 4},
             "histograms": {}},
        ])
        assert merged["enabled"] is True
        assert merged["shards"] == 2
        assert merged["counters"] == {"a": 7, "b": 1}
        assert merged["gauges"] == {"g": 7}

    def test_histograms_combine(self):
        h1 = _histogram(1.0, 9.0)
        h2 = _histogram(0.5, 1.5, 4.0)
        merged = merge_snapshots([
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h1.snapshot()}},
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h2.snapshot()}},
        ])
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 5
        assert hist["sum"] == 16.0
        assert hist["min"] == 0.5
        assert hist["max"] == 9.0
        assert hist["mean"] == 16.0 / 5
        # The fleet tail comes from the pooled samples.
        assert hist["p99"] == _histogram(1.0, 9.0, 0.5, 1.5, 4.0).quantile(
            0.99)

    def test_empty_histogram_does_not_poison_stats(self):
        # A shard that never observed a sample snapshots its histogram
        # with count=0 and None order statistics; the fleet merge must
        # keep the populated shard's stats (regression: TypeError when
        # min/max compared None against a float under REPRO_METRICS=1).
        empty = Histogram("lat").snapshot()
        full = _histogram(1.0, 9.0).snapshot()
        for ordering in ([empty, full], [full, empty]):
            merged = merge_snapshots([
                {"enabled": True, "counters": {}, "gauges": {},
                 "histograms": {"lat": dict(h)}} for h in ordering
            ])
            hist = merged["histograms"]["lat"]
            assert hist["count"] == 2
            assert hist["min"] == 1.0
            assert hist["max"] == 9.0
            assert hist["p99"] == full["p99"]
            assert hist["mean"] == 5.0

    def test_exact_quantiles_from_sample_buffers(self):
        # When every contributing shard ships its retained samples, the
        # fleet quantiles are computed over the pooled buffer — exact,
        # not the conservative max-of estimate.
        h1 = Histogram("lat")
        h2 = Histogram("lat")
        for value in range(0, 50):
            h1.observe(float(value))
        for value in range(50, 100):
            h2.observe(float(value))
        merged = merge_snapshots([
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h1.snapshot()}},
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h2.snapshot()}},
        ])
        oracle = Histogram("lat")
        for value in range(100):
            oracle.observe(float(value))
        hist = merged["histograms"]["lat"]
        for stat, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            assert hist[stat] == oracle.quantile(q)
        # Exact beats max-of: each shard's own p50 is far off 49.5.
        assert hist["p50"] == 49.5
        assert max(h1.snapshot()["p50"], h2.snapshot()["p50"]) != 49.5

    def test_merged_output_strips_samples(self):
        h = Histogram("lat")
        h.observe(1.0)
        merged = merge_snapshots([
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h.snapshot()}},
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h.snapshot()}},
        ])
        assert "samples" not in merged["histograms"]["lat"]

    def test_single_shard_histogram_also_recomputed_and_stripped(self):
        h = Histogram("lat")
        for value in (1.0, 2.0, 3.0):
            h.observe(value)
        merged = merge_snapshots([
            {"enabled": True, "counters": {}, "gauges": {},
             "histograms": {"lat": h.snapshot()}},
        ])
        hist = merged["histograms"]["lat"]
        assert "samples" not in hist
        assert hist["p50"] == 2.0

    def test_oversized_pool_decimates_deterministically(self):
        snapshots = []
        for shard in range(3):
            h = Histogram("lat")
            for value in range(2000):
                h.observe(float(shard * 2000 + value))
            snapshots.append(
                {"enabled": True, "counters": {}, "gauges": {},
                 "histograms": {"lat": h.snapshot()}}
            )
        first = merge_snapshots([dict(s) for s in snapshots])
        second = merge_snapshots([dict(s) for s in snapshots])
        hist = first["histograms"]["lat"]
        assert hist == second["histograms"]["lat"]  # deterministic
        assert hist["count"] == 6000
        # A sane approximation of the 0..5999 ramp despite decimation.
        assert abs(hist["p50"] - 2999.5) / 2999.5 < 0.1

    def test_disabled_snapshots_merge_to_disabled(self):
        merged = merge_snapshots([
            {"enabled": False, "counters": {}, "gauges": {},
             "histograms": {}},
        ])
        assert merged["enabled"] is False
        assert merged["counters"] == {}
