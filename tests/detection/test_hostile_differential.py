"""Hostile-traffic differential: live == batch under adversarial load.

The live/batch equivalence contract (see ``test_live_equivalence``)
must survive traffic engineered to break it: overlapping retransmission
storms, orphan responses, malformed frames, connections that overflow
the reassembly buffer cap, floods.  Both poll schedules of the one
decoder see the identical :mod:`repro.loadgen` stream under the *same*
overload policy — buffer cap, connection cap and linger — so both shed,
evict and degrade the same connections: every transaction either side
emits must match the other byte for byte, every decode, reassembly and
HTTP counter must read the same, with zero uncaught exceptions.
"""

from repro.detection.live import LiveDecoder, OverloadPolicy
from repro.loadgen import HOSTILE, LoadGenerator, WorkloadMix
from repro.net.flows import transactions_from_packets
from repro.obs import MetricsRegistry, use_registry

#: The ledger's hostile rules: a buffer cap below loadgen's
#: overflow-episode payload, a connection cap low enough to shed and a
#: linger that expires, so every rule fires on both schedules.
HOSTILE_POLICY = OverloadPolicy(max_connections=12,
                                max_buffered_per_direction=32 * 1024,
                                closed_linger=2.0)
OVERFLOW_BYTES = 128 * 1024
#: How many times a parser was stepped is the schedule itself: the tap
#: steps one per record with new bytes, a capture one per direction.
SCHEDULE_COUNTERS = ("http.parser_feeds",)


def _ordered(transactions):
    return sorted(
        transactions,
        key=lambda t: (t.timestamp, t.server, t.request.uri),
    )


def _assert_identical(live, batch):
    assert len(live) == len(batch)
    for ours, theirs in zip(_ordered(live), _ordered(batch)):
        assert ours.request == theirs.request
        assert ours.response == theirs.response


def _wire_counters(registry):
    return {name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(("decode.", "reassembly.", "http."))
            and name not in SCHEDULE_COUNTERS}


def _live_decode(packets, book):
    decoder = LiveDecoder(book=book, policy=HOSTILE_POLICY)
    transactions = []
    for packet in packets:
        transactions.extend(decoder.feed(packet))
    transactions.extend(decoder.flush())
    return transactions


def _differential(mix, seed, count, concurrency=6):
    generator = LoadGenerator(seed=seed, mix=mix, concurrency=concurrency,
                              overflow_bytes=OVERFLOW_BYTES)
    packets = generator.capture(count)

    live_registry = MetricsRegistry()
    with use_registry(live_registry):
        live = _live_decode(packets, generator.book)
    batch_registry = MetricsRegistry()
    with use_registry(batch_registry):
        batch = transactions_from_packets(
            packets, book=generator.book, policy=HOSTILE_POLICY
        )
    _assert_identical(live, batch)
    live_counters = _wire_counters(live_registry)
    assert live_counters == _wire_counters(batch_registry)
    return live, live_counters


class TestHostileDifferential:
    def test_hostile_mix_live_equals_batch(self):
        """Pure hostile stream: overlaps, orphans, overflow, garbage,
        at the ledger's concurrency, where the connection cap sheds."""
        live, counters = _differential(HOSTILE, seed=17, count=5000,
                                       concurrency=10)
        # The hostile patterns and every policy rule actually fired (the
        # same number of times on both schedules), and neither raised.
        for name in ("reassembly.overflows", "http.orphan_responses",
                     "decode.errors", "decode.dropped",
                     "decode.evicted_connections"):
            assert counters[name] > 0, name

    def test_mixed_stream_live_equals_batch(self):
        """Hostile noise interleaved with benign/exploit-kit traffic:
        degraded connections must not perturb healthy ones."""
        mix = WorkloadMix(benign=0.35, exploit_kit=0.1, http_flood=0.1,
                          slow_drip=0.05, giant_pipelined=0.1,
                          retrans_storm=0.1, malformed_burst=0.1,
                          orphan_response=0.05, overflow=0.15)
        live, counters = _differential(mix, seed=23, count=5000)
        assert len(live) > 0  # healthy traffic still decodes
        assert counters["reassembly.overflows"] > 0

    def test_storm_heavy_stream_byte_identical(self):
        """Overlap-heavy: most traffic is retransmission storms."""
        mix = WorkloadMix(benign=0.1, exploit_kit=0.0, http_flood=0.0,
                          slow_drip=0.0, giant_pipelined=0.1,
                          retrans_storm=0.8, malformed_burst=0.0,
                          orphan_response=0.0, overflow=0.0)
        live, counters = _differential(mix, seed=29, count=4000)
        assert len(live) > 0
        assert counters["decode.errors"] == 0
