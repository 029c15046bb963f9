"""Tests for the mixed-workload stream generator (repro.loadgen)."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.loadgen import (
    BENIGN_ONLY,
    HOSTILE,
    MIXED,
    HostAllocator,
    LoadGenerator,
    RawConnection,
    WorkloadMix,
    benign_episode,
    exploit_kit_episode,
    giant_pipelined_episode,
    http_flood_episode,
    malformed_burst_episode,
    orphan_response_episode,
    overflow_episode,
    retrans_storm_episode,
    slow_drip_episode,
)
from repro.net.flows import (
    AddressBook,
    OverloadPolicy,
    transactions_from_packets,
)
from repro.obs import MetricsRegistry, use_registry


def _decode(packets, book=None):
    registry = MetricsRegistry()
    with use_registry(registry):
        recovered = transactions_from_packets(packets, book=book)
    return recovered, registry.snapshot()["counters"]


class TestRawConnection:
    def _conn(self):
        return RawConnection("172.31.0.1", 50000, "198.51.100.1")

    def test_simple_exchange_decodes(self):
        conn = self._conn()
        packets = conn.open(1.0)
        packets.extend(conn.send(
            1.1, True, b"GET /x HTTP/1.1\r\nHost: s\r\n\r\n"
        ))
        packets.extend(conn.send(
            1.2, False, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
        ))
        packets.extend(conn.close(1.3))
        recovered, _ = _decode(packets)
        assert len(recovered) == 1
        assert recovered[0].request.uri == "/x"
        assert recovered[0].response.body == b"hi"

    def test_segment_places_bytes_at_offset(self):
        conn = self._conn()
        packets = conn.open(1.0)
        request = b"GET / HTTP/1.1\r\nHost: s\r\n\r\n"
        # Emit the tail before the head: decode must still succeed.
        packets.append(conn.segment(1.2, True, request[10:], 10))
        packets.append(conn.segment(1.3, True, request[:10], 0))
        packets.extend(conn.close(1.4))
        recovered, _ = _decode(packets)
        assert len(recovered) == 1

    def test_mtu_split(self):
        conn = self._conn()
        frames = conn.send(1.0, True, b"x" * 3000, mtu=1400)
        assert len(frames) == 3


class TestEpisodes:
    """Each builder produces decodable (or deliberately hostile) wire."""

    def test_benign_decodes(self):
        book = AddressBook()
        packets = benign_episode(np.random.default_rng(1), 100.0, book)
        recovered, _ = _decode(packets, book=book)
        assert len(recovered) > 0
        assert packets[0].timestamp == pytest.approx(100.0)

    def test_exploit_kit_decodes(self):
        book = AddressBook()
        packets = exploit_kit_episode(np.random.default_rng(2), 100.0, book)
        recovered, _ = _decode(packets, book=book)
        assert len(recovered) > 0

    def test_flood_is_many_short_connections(self):
        packets = http_flood_episode(
            np.random.default_rng(3), 100.0, HostAllocator()
        )
        _, counters = _decode(packets)
        assert counters["reassembly.streams_opened"] >= 10

    def test_slow_drip_request_survives_fragmentation(self):
        packets = slow_drip_episode(
            np.random.default_rng(4), 100.0, HostAllocator()
        )
        recovered, _ = _decode(packets)
        assert len(recovered) == 1
        assert recovered[0].status == 200

    def test_giant_pipelined_recovers_every_pair(self):
        packets = giant_pipelined_episode(
            np.random.default_rng(5), 100.0, HostAllocator()
        )
        recovered, _ = _decode(packets)
        assert len(recovered) >= 120
        assert all(t.status == 200 for t in recovered)

    def test_retrans_storm_decodes_byte_identical(self):
        # Shuffled/duplicated/overlapping delivery must not corrupt the
        # recovered response body.
        packets = retrans_storm_episode(
            np.random.default_rng(6), 100.0, HostAllocator()
        )
        recovered, _ = _decode(packets)
        assert len(recovered) == 1
        assert recovered[0].status == 200
        assert len(recovered[0].response.body) > 0

    def test_malformed_burst_counted_not_fatal(self):
        packets = malformed_burst_episode(np.random.default_rng(7), 100.0)
        recovered, counters = _decode(packets)
        assert recovered == []
        assert counters["decode.errors"] > 0

    def test_orphan_responses_counted(self):
        packets = orphan_response_episode(
            np.random.default_rng(8), 100.0, HostAllocator()
        )
        _, counters = _decode(packets)
        assert counters["http.orphan_responses"] >= 2

    def test_overflow_degrades_capped_reassembler(self):
        packets = overflow_episode(
            np.random.default_rng(9), 100.0, HostAllocator(),
            oversize=64 * 1024,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            transactions_from_packets(packets, policy=OverloadPolicy(
                max_buffered_per_direction=16 * 1024))
        assert registry.snapshot()["counters"]["reassembly.overflows"] == 1


class TestLoadGenerator:
    def test_deterministic_from_seed(self):
        a = LoadGenerator(seed=42).capture(2000)
        b = LoadGenerator(seed=42).capture(2000)
        assert [(p.timestamp, p.data) for p in a] == \
            [(p.timestamp, p.data) for p in b]

    def test_different_seeds_differ(self):
        a = LoadGenerator(seed=1).capture(500)
        b = LoadGenerator(seed=2).capture(500)
        assert [p.data for p in a] != [p.data for p in b]

    def test_globally_time_sorted(self):
        packets = LoadGenerator(seed=3, mix=HOSTILE).capture(3000)
        stamps = [p.timestamp for p in packets]
        assert stamps == sorted(stamps)

    def test_stream_is_lazy_and_bounded(self):
        # Drawing 50k packets must not materialize 50k packets: peak
        # traced memory stays orders of magnitude below the stream size.
        generator = LoadGenerator(seed=4, concurrency=8)
        tracemalloc.start()
        total = sum(len(p.data) for p in generator.packets(limit=50_000))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert total > 10 * 2**20  # the stream itself is tens of MiB
        assert peak < total / 4  # but never resident at once

    def test_infinite_stream_no_limit(self):
        generator = LoadGenerator(seed=5)
        taken = list(itertools.islice(generator.packets(), 1234))
        assert len(taken) == 1234

    def test_mix_respected(self):
        # A benign-only mix never emits hostile endpoints (172.31/16).
        packets = LoadGenerator(seed=6, mix=BENIGN_ONLY).capture(2000)
        recovered, counters = _decode(
            packets, book=LoadGenerator(seed=6, mix=BENIGN_ONLY).book
        )
        assert len(recovered) > 0
        assert counters["decode.errors"] == 0
        assert counters["http.orphan_responses"] == 0

    def test_mixed_stream_decodes_with_hostile_signals(self):
        generator = LoadGenerator(seed=7, mix=HOSTILE,
                                  overflow_bytes=64 * 1024)
        packets = generator.capture(6000)
        registry = MetricsRegistry()
        with use_registry(registry):
            transactions_from_packets(
                packets, book=generator.book,
                policy=OverloadPolicy(max_buffered_per_direction=16 * 1024))
        counters = registry.snapshot()["counters"]
        assert counters["reassembly.overflows"] > 0
        assert counters["http.orphan_responses"] > 0
        assert counters["decode.errors"] > 0

    def test_zero_weight_mix_rejected(self):
        mix = WorkloadMix(benign=0.0, exploit_kit=0.0, http_flood=0.0,
                          slow_drip=0.0, giant_pipelined=0.0,
                          retrans_storm=0.0, malformed_burst=0.0,
                          orphan_response=0.0, overflow=0.0)
        with pytest.raises(ValueError):
            LoadGenerator(seed=1, mix=mix)

    def test_default_mix_is_mixed(self):
        assert LoadGenerator().mix is MIXED
