"""Unit + property tests for TCP stream reassembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TcpReassemblyError
from repro.net.packets import ACK, FIN, PSH, RST, SYN
from repro.net.http1 import RequestParser
from repro.net.reassembly import FlowKey, StreamDirection, TcpReassembler


def _segment(src="10.0.0.1", dst="10.0.0.2", src_port=40000, dst_port=80,
             seq=0, flags=ACK, payload=b""):
    """The flat segment tuple ``decode_segment`` produces."""
    return (src, dst, src_port, dst_port, seq, 0, flags, 65535, payload)


def _sent(stream, by_client=True):
    """The in-order bytes one side of ``stream`` has sent."""
    for src, direction in stream.directions.items():
        if (src == stream.client) == by_client:
            return bytes(direction.data)
    return b""


class TestFlowKey:
    def test_canonical_both_directions(self):
        forward = FlowKey.of("1.1.1.1", 40000, "2.2.2.2", 80)
        backward = FlowKey.of("2.2.2.2", 80, "1.1.1.1", 40000)
        assert forward == backward

    def test_distinct_connections_differ(self):
        a = FlowKey.of("1.1.1.1", 40000, "2.2.2.2", 80)
        b = FlowKey.of("1.1.1.1", 40001, "2.2.2.2", 80)
        assert a != b


class TestHandshakeAndDirections:
    def _open_stream(self):
        reassembler = TcpReassembler()
        reassembler.feed(1.0, _segment(seq=99, flags=SYN))
        reassembler.feed(1.1, _segment(
            "10.0.0.2", "10.0.0.1", src_port=80, dst_port=40000, seq=499,
            flags=SYN | ACK))
        return reassembler

    def test_client_identified_by_syn(self):
        reassembler = self._open_stream()
        stream = reassembler.streams()[0]
        assert stream.client == ("10.0.0.1", 40000)
        assert stream.server == ("10.0.0.2", 80)

    def test_in_order_payload(self):
        reassembler = self._open_stream()
        reassembler.feed(1.2, _segment(seq=100, flags=PSH | ACK,
                                       payload=b"GET "))
        reassembler.feed(1.3, _segment(seq=104, flags=PSH | ACK,
                                       payload=b"/ HT"))
        stream = reassembler.streams()[0]
        assert _sent(stream) == b"GET / HT"

    def test_out_of_order_payload(self):
        reassembler = self._open_stream()
        reassembler.feed(1.3, _segment(seq=104, payload=b"/ HT"))
        reassembler.feed(1.2, _segment(seq=100, payload=b"GET "))
        assert _sent(reassembler.streams()[0]) == b"GET / HT"

    def test_retransmission_ignored(self):
        reassembler = self._open_stream()
        reassembler.feed(1.2, _segment(seq=100, payload=b"abcd"))
        reassembler.feed(1.3, _segment(seq=100, payload=b"abcd"))
        assert _sent(reassembler.streams()[0]) == b"abcd"

    def test_overlapping_retransmission_trimmed(self):
        reassembler = self._open_stream()
        reassembler.feed(1.2, _segment(seq=100, payload=b"abcd"))
        reassembler.feed(1.3, _segment(seq=102, payload=b"cdEF"))
        assert _sent(reassembler.streams()[0]) == b"abcdEF"

    def test_server_data_separate(self):
        reassembler = self._open_stream()
        reassembler.feed(1.2, _segment(seq=100, payload=b"req"))
        reassembler.feed(1.4, _segment(
            "10.0.0.2", "10.0.0.1", src_port=80, dst_port=40000, seq=500,
            payload=b"res"))
        stream = reassembler.streams()[0]
        assert _sent(stream) == b"req"
        assert _sent(stream, by_client=False) == b"res"

    def test_fin_both_sides_closes(self):
        reassembler = self._open_stream()
        reassembler.feed(1.5, _segment(seq=100, flags=FIN | ACK))
        stream = reassembler.streams()[0]
        assert not stream.closed
        reassembler.feed(1.6, _segment(
            "10.0.0.2", "10.0.0.1", src_port=80, dst_port=40000, seq=500,
            flags=FIN | ACK))
        assert stream.closed

    def test_rst_closes_immediately(self):
        reassembler = self._open_stream()
        reassembler.feed(1.5, _segment(
            "10.0.0.2", "10.0.0.1", src_port=80, dst_port=40000, seq=500,
            flags=RST))
        assert reassembler.streams()[0].closed


class TestMidCaptureStreams:
    def test_client_guessed_from_service_port(self):
        reassembler = TcpReassembler()
        reassembler.feed(1.0, _segment(
            "10.0.0.9", "10.0.0.2", seq=7, payload=b"GET / HTTP/1.1\r\n"))
        stream = reassembler.streams()[0]
        assert stream.client == ("10.0.0.9", 40000)
        assert _sent(stream).startswith(b"GET")

    def test_seq_adopted_without_syn(self):
        reassembler = TcpReassembler()
        reassembler.feed(1.0, _segment(
            "10.0.0.9", "10.0.0.2", seq=1000, payload=b"abc"))
        reassembler.feed(1.1, _segment(
            "10.0.0.9", "10.0.0.2", seq=1003, payload=b"def"))
        assert _sent(reassembler.streams()[0]) == b"abcdef"


class TestSequenceWraparound:
    def test_payload_across_wrap(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 2**32 - 2
        direction.feed(2**32 - 2, b"ab", 1.0)
        direction.feed(0, b"cd", 1.1)
        assert bytes(direction.data) == b"abcd"

    def test_fully_stale_segment_dropped(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 100
        direction.feed(100, b"abcdef", 1.0)
        direction.feed(100, b"abc", 1.1)  # entirely behind next_seq
        assert bytes(direction.data) == b"abcdef"

    def test_gap_flag(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        direction.feed(10, b"later", 1.0)
        assert direction.pending
        direction.feed(0, b"0123456789", 1.1)
        assert not direction.pending
        assert bytes(direction.data) == b"0123456789later"

    def test_buffer_overflow_guard(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        with pytest.raises(TcpReassemblyError, match="overflow"):
            for index in range(40):
                direction.feed(
                    10_000_000 + index * 2_000_000, b"\x00" * 1_500_000, 1.0
                )


class TestTimestampAt:
    def test_epoch_zero_capture_not_treated_as_missing(self):
        # A capture clock starting at the epoch is a legitimate
        # timestamp; timestamp_at must not fall back as if unset.
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.feed(0, b"", 0.0)  # pure-ACK at t=0 pins first_ts
        assert direction.first_ts == 0.0
        assert direction.timestamp_at(0) == 0.0
        direction.feed(0, b"GET", 7.5)
        assert direction.timestamp_at(0) == 7.5

    def test_marks_resolve_per_segment(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        direction.feed(0, b"aaaa", 1.0)
        direction.feed(4, b"bbbb", 2.0)
        assert direction.timestamp_at(0) == 1.0
        assert direction.timestamp_at(3) == 1.0
        assert direction.timestamp_at(4) == 2.0
        assert direction.timestamp_at(7) == 2.0


class TestConsumableView:
    """``data`` is the direction's one buffer of in-order bytes: a
    parser frames it in place, and offsets stay absolute however much of
    it the parser has deleted."""

    def _loaded(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        direction.feed(0, b"first", 1.0)
        direction.feed(5, b"second", 2.0)
        return direction

    def test_end_counts_in_order_bytes(self):
        direction = self._loaded()
        assert direction.end == 11
        direction.feed(16, b"fourth", 4.0)  # behind a hole
        assert direction.end == 11
        direction.feed(11, b"third", 3.0)
        assert direction.end == 22
        assert bytes(direction.data) == b"firstsecondthirdfourth"

    def test_a_parser_frames_the_direction_in_place(self):
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        parser = RequestParser()
        parser.buffer = direction.data
        direction.feed(0, b"GET /a HTTP/1.1\r\n\r\nGET /b HT", 1.0)
        assert [r.uri for r in parser.feed(b"")] == ["/a"]
        # The framed message left the one buffer; the partial one waits.
        assert bytes(direction.data) == b"GET /b HT"
        assert parser.pending_offset == 19
        direction.feed(28, b"TP/1.1\r\n\r\n", 2.0)
        assert [r.uri for r in parser.feed(b"")] == ["/b"]
        assert direction.data == bytearray()
        assert direction.end == 38
        assert parser.starts == [0, 19]

    def test_offsets_stay_absolute_across_compaction(self):
        direction = self._loaded()
        del direction.data[:7]  # a parser framed "firstse"
        direction.trim_marks(5)
        # The mark covering offset 5 (and beyond) must survive.
        assert direction.timestamp_at(5) == 2.0
        assert direction.timestamp_at(10) == 2.0
        direction.feed(11, b"third", 3.0)
        assert direction.timestamp_at(11) == 3.0
        assert bytes(direction.data) == b"condthird"
        assert direction.end == 16

    def test_trim_keeps_straddling_mark(self):
        direction = self._loaded()
        direction.trim_marks(7)  # mid-"second"
        assert direction.marks == [(5, 2.0)]
        assert direction.timestamp_at(7) == 2.0

    def test_batch_consumers_unaffected(self):
        direction = self._loaded()
        assert bytes(direction.data) == b"firstsecond"
        assert direction.end == 11


class TestOverlapDrain:
    """Regression: overlapping pending chunks must drain, not leak."""

    def test_overlapping_pending_chunks_drain(self):
        # pending at 100 (len 50) and 120 (len 50): once the hole fills,
        # the second chunk starts *behind* next_seq (150) but extends to
        # 170 — its fresh tail must be trimmed in, not lost, and nothing
        # may leak in `pending` forever.
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        payload = bytes(range(200)) * 1  # 200 distinct-ish bytes
        direction.feed(100, payload[100:150], 2.0)
        direction.feed(120, payload[120:170], 3.0)
        direction.feed(0, payload[:100], 4.0)
        assert bytes(direction.data) == payload[:170]
        assert direction.pending == {}

    def test_drained_bytes_keep_arrival_timestamps(self):
        # Out-of-order bytes must be marked with their *true* arrival
        # time, not the time of the packet that filled the hole.
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        direction.feed(4, b"bbbb", 2.0)
        direction.feed(0, b"aaaa", 9.0)
        assert bytes(direction.data) == b"aaaabbbb"
        assert direction.timestamp_at(0) == 9.0
        assert direction.timestamp_at(4) == 2.0

    def test_fully_stale_pending_chunk_discarded(self):
        # A pending chunk entirely covered by in-order data is dropped.
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        direction.feed(10, b"XY", 2.0)
        direction.feed(0, b"0123456789AB", 3.0)  # covers [0, 12) > [10, 12)
        assert bytes(direction.data) == b"0123456789AB"
        assert direction.pending == {}

    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.lists(st.binary(min_size=1, max_size=64), min_size=2,
                        max_size=10),
        seed=st.integers(0, 10**6),
    )
    def test_overlapping_shuffled_slices_reassemble(self, chunks, seed):
        """Property: arbitrary overlapping re-slices still reassemble."""
        message = b"".join(chunks)
        rng = np.random.default_rng(seed)
        slices = []
        position = 0
        for chunk in chunks:
            lo = max(0, position - int(rng.integers(0, 8)))
            hi = min(len(message),
                     position + len(chunk) + int(rng.integers(0, 8)))
            slices.append((lo, message[lo:hi]))
            position += len(chunk)
        for index in rng.permutation(len(slices)):
            lo, data = slices[int(index)]
            slices.append((lo, data))
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 0
        for index in rng.permutation(len(slices)):
            lo, data = slices[int(index)]
            if data:
                direction.feed(lo, data, 1.0)
        assert bytes(direction.data) == message


class TestOverflowDegrade:
    """Regression: a hostile connection degrades itself, not the tap."""

    def _overflow_stream(self, reassembler, client, server):
        reassembler.feed(1.0, _segment(client, server, seq=99, flags=SYN))
        for index in range(40):
            reassembler.feed(2.0 + index, _segment(
                client, server, seq=10_000_000 + index * 2_000_000,
                payload=b"\x00" * 1_500_000))

    def test_reassembler_degrades_instead_of_raising(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            reassembler = TcpReassembler()
            # Overflowing one connection must not raise out of feed().
            self._overflow_stream(reassembler, "10.0.0.1", "10.0.0.2")
        counters = registry.snapshot()["counters"]
        assert counters["reassembly.overflows"] == 1
        stream = reassembler.streams()[0]
        direction = stream.direction(stream.client, stream.server)
        assert direction.broken
        assert direction.pending == {}  # buffered bytes released

    def test_broken_direction_stops_buffering(self):
        reassembler = TcpReassembler()
        self._overflow_stream(reassembler, "10.0.0.1", "10.0.0.2")
        stream = reassembler.streams()[0]
        direction = stream.direction(stream.client, stream.server)
        before = len(direction.data)
        # Further traffic on the broken direction is ignored quietly.
        reassembler.feed(99.0, _segment(seq=100, payload=b"ignored"))
        assert len(direction.data) == before
        assert direction.pending == {}

    def test_other_connections_unaffected(self):
        reassembler = TcpReassembler()
        self._overflow_stream(reassembler, "10.0.0.1", "10.0.0.2")
        reassembler.feed(50.0, _segment(
            "10.0.0.3", "10.0.0.2", src_port=40001, seq=7,
            payload=b"GET / HTTP/1.1\r\n"))
        healthy = [s for s in reassembler.streams()
                   if s.client and s.client[0] == "10.0.0.3"]
        assert _sent(healthy[0]).startswith(b"GET")

    def test_configurable_buffer_cap(self):
        reassembler = TcpReassembler(max_buffered=1024)
        reassembler.feed(1.0, _segment(seq=99, flags=SYN))
        reassembler.feed(2.0, _segment(seq=10_000, payload=b"\x00" * 2048))
        stream = reassembler.streams()[0]
        assert stream.direction(stream.client, stream.server).broken

    def test_running_byte_count_overflows_on_the_same_segment(self):
        """``buffered`` is a running count of ``pending``'s bytes; the
        overflow must fire on exactly the segments a re-sum of
        ``pending`` would refuse, through holes filling, overlaps
        draining, duplicates replaced by longer ones, and refusals."""
        rng = np.random.default_rng(5)
        cap = 8192
        direction = StreamDirection(src=("a", 1), dst=("b", 2),
                                    max_buffered=cap)
        direction.next_seq = 0
        refused = drained = 0
        for step in range(4000):
            seq = (direction.next_seq + int(rng.integers(-300, 9000))) % 2**32
            if step % 7 == 0 and direction.pending:
                seq = next(iter(direction.pending))  # duplicate / replace
            if step % 50 == 0:
                seq = direction.next_seq  # fill the hole, drain what follows
            payload = bytes(int(rng.integers(1, 900)))
            held = sum(len(chunk) for chunk, _ in direction.pending.values())
            assert direction.buffered == held
            ahead = 0 < (seq - direction.next_seq) % 2**32 < 2**31
            contiguous = len(direction.data)
            try:
                direction.feed(seq, payload, float(step))
            except TcpReassemblyError:
                assert ahead and held + len(payload) > cap
                refused += 1
            else:
                assert not (ahead and held + len(payload) > cap)
            drained += len(direction.data) > contiguous + len(payload)
        assert direction.buffered == sum(
            len(chunk) for chunk, _ in direction.pending.values())
        assert refused > 50 and drained > 20

    def test_overflow_counter_fires_once_and_releases_the_count(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            reassembler = TcpReassembler(max_buffered=4096)
            reassembler.feed(1.0, _segment(seq=99, flags=SYN))
            for index in range(1, 9):
                reassembler.feed(1.0 + index, _segment(
                    seq=100 + index * 2000, payload=b"\x00" * 1000))
                stream = reassembler.streams()[0]
                direction = stream.direction(stream.client, stream.server)
                # Four 1000-byte chunks fit under the cap; the fifth is
                # the one that breaks the direction.
                assert direction.broken == (index >= 5)
        assert registry.snapshot()["counters"]["reassembly.overflows"] == 1
        assert direction.pending == {} and direction.buffered == 0


class TestReassemblyProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                        max_size=12),
        seed=st.integers(0, 10**6),
    )
    def test_any_arrival_order_reassembles(self, chunks, seed):
        """Property: payload split arbitrarily and shuffled reassembles."""
        message = b"".join(chunks)
        offsets = []
        position = 0
        for chunk in chunks:
            offsets.append((position, chunk))
            position += len(chunk)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(offsets))
        direction = StreamDirection(src=("a", 1), dst=("b", 2))
        direction.next_seq = 5000
        for index in order:
            offset, chunk = offsets[int(index)]
            direction.feed(5000 + offset, chunk, 1.0)
        assert bytes(direction.data) == message
