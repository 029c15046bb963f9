"""The flat per-packet wire path against its layered, eager formulation.

Two differentials (oracles in ``tests/oracles/wire_path.py``):

* ``decode_segment`` — one unpack for the common frame shape — must
  return what the layered codecs return, or raise what they raise, on
  any frame: options, lying length fields, fragments, truncation,
  foreign ethertypes, raw-IP captures.
* ``LiveDecoder`` — one connection table, parsers stepped only when
  their input changed — must emit the same transactions *from the same
  packets* as the decoder that polls both parsers on every segment.

Plus the accounting rule both paths share: a mangled frame adds exactly
one to ``decode.errors``, foreign traffic adds nothing.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.live import LiveDecoder, OverloadPolicy
from repro.exceptions import PcapError
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.net.flows import decode_segment, transactions_from_packets
from repro.net.packets import (
    ACK,
    PSH,
    IpFragmentReassembler,
    decode_tcp_frame,
    encode_tcp_in_ipv4_ethernet,
)
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PcapPacket
from repro.obs import MetricsRegistry, use_registry
from tests.oracles.wire_path import eager_live_decode, layered_segment


def _frame(payload=b"GET / HTTP/1.1\r\n\r\n"):
    return encode_tcp_in_ipv4_ethernet(
        "10.1.2.3", "172.16.0.9", 40123, 80, 1000, 2000, PSH | ACK, payload)


def _mutated(payload, ihl=5, ip_options=0, total_len=None, flags_frag=0,
             ethertype=0x0800, protocol=6, version=4, tcp_offset=5,
             tcp_options=0):
    """A frame whose header fields say what the arguments say, whatever
    bytes actually follow (``total_len=None`` declares the truth)."""
    base = _frame(payload)
    ip = bytearray(base[14:34])
    body = base[34:54] + b"\x01" * tcp_options + payload
    if total_len is None:
        total_len = 20 + ip_options + len(body)
    ip[0] = (version << 4) | ihl
    ip[2:4] = struct.pack("!H", total_len)
    ip[6:8] = struct.pack("!H", flags_frag)
    ip[9] = protocol
    body = body[:12] + bytes([tcp_offset << 4]) + body[13:]
    return (base[:12] + struct.pack("!H", ethertype) + bytes(ip)
            + b"\x01" * ip_options + body)


def _outcome(decode, data, linktype):
    """What ``decode`` makes of one frame: its result, or its error."""
    try:
        return decode(data, linktype, IpFragmentReassembler().feed)
    except PcapError as exc:
        return ("PcapError", str(exc))


def _assert_same(data, linktype=LINKTYPE_ETHERNET):
    assert _outcome(decode_segment, data, linktype) == _outcome(
        layered_segment, data, linktype)


class TestDecodeDifferential:
    def test_common_shape_takes_the_values_of_the_frame(self):
        segment = decode_segment(_frame(b"abc"), LINKTYPE_ETHERNET, None)
        assert segment == ("10.1.2.3", "172.16.0.9", 40123, 80, 1000, 2000,
                           PSH | ACK, 65535, b"abc")
        _assert_same(_frame(b"abc"))

    def test_truncation_at_every_byte(self):
        frame = _frame(b"x" * 9)
        for cut in range(len(frame) + 1):
            _assert_same(frame[:cut])
            _assert_same(frame[14:14 + cut], LINKTYPE_RAW_IP)

    def test_unknown_linktype_is_skipped(self):
        assert decode_segment(_frame(), 105, None) is None

    def test_length_fields_on_both_sides_of_the_fast_shape(self):
        """Exhaustive over the two fields the fast shape trusts only
        within bounds: IPv4 total length (shorter than the headers,
        inside the frame, past its end) and TCP data offset (below 5,
        inside the segment, past its end)."""
        fast = fallback = 0
        for total_len in range(0, 110):
            for tcp_offset in range(16):
                for tcp_options in (0, 8):
                    data = _mutated(b"p" * 31, total_len=total_len,
                                    tcp_offset=tcp_offset,
                                    tcp_options=tcp_options)
                    _assert_same(data)
                    if decode_tcp_frame(data) is None:
                        fallback += 1
                    else:
                        fast += 1
        assert fast > 1000 and fallback > 1000

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.binary(max_size=40),
        ihl=st.one_of(st.just(5), st.integers(0, 15)),
        ip_options=st.sampled_from([0, 0, 4, 40]),
        total_len=st.one_of(st.none(), st.integers(0, 200)),
        flags_frag=st.sampled_from(
            [0, 0, 0x4000, 0x8000, 0x2000, 0x0001, 0x2003, 0x1FFF]),
        ethertype=st.sampled_from([0x0800, 0x0800, 0x0800, 0x0806, 0x86DD]),
        protocol=st.sampled_from([6, 6, 6, 17, 1]),
        version=st.sampled_from([4, 4, 4, 6, 0]),
        tcp_offset=st.one_of(st.just(5), st.integers(0, 15)),
        tcp_options=st.sampled_from([0, 0, 4, 40]),
        cut=st.one_of(st.none(), st.integers(0, 160)),
        raw_ip=st.sampled_from([False, False, False, True]),
    )
    def test_any_frame_decodes_like_the_layered_codecs(
            self, payload, raw_ip, cut, **fields):
        """Every header field the fast shape test reads is driven
        through values on both sides of it, independently of the bytes
        that actually follow (IHL vs options present, total length vs
        frame length, data offset vs TCP options present)."""
        data = _mutated(payload, **fields)[:cut]
        if raw_ip:
            _assert_same(data[14:], LINKTYPE_RAW_IP)
        else:
            _assert_same(data)

    def test_fragments_meet_in_a_shared_reassembler(self):
        """MF/offset frames leave the fast shape and are reassembled;
        the segment surfaces with the completing piece, identically."""
        frame = _frame(b"F" * 64)
        eth, header, rest = frame[:14], bytearray(frame[14:34]), frame[34:]
        pieces = []
        for offset in range(0, len(rest), 24):
            chunk = rest[offset:offset + 24]
            more = 0x2000 if offset + 24 < len(rest) else 0
            header[2:4] = struct.pack("!H", 20 + len(chunk))
            header[6:8] = struct.pack("!H", more | offset // 8)
            pieces.append(eth + bytes(header) + chunk)
        ours, theirs = IpFragmentReassembler(), IpFragmentReassembler()
        results = [
            (decode_segment(piece, LINKTYPE_ETHERNET, ours.feed),
             layered_segment(piece, LINKTYPE_ETHERNET, theirs.feed))
            for piece in pieces
        ]
        assert all(fast == layered for fast, layered in results)
        assert [fast is None for fast, _ in results] == (
            [True] * (len(pieces) - 1) + [False])
        assert results[-1][0][-1] == b"F" * 64


def _bad_frames():
    """(name, frame, errors it must add to ``decode.errors``)."""
    bad_ihl = bytearray(_frame())
    bad_ihl[14] = 0x43
    bad_offset = bytearray(_frame())
    bad_offset[46] = 0x30
    arp = bytearray(_frame())
    arp[12:14] = b"\x08\x06"
    udp = bytearray(_frame())
    udp[23] = 17
    return [
        ("truncated-ethernet", b"\x00" * 9, 1),
        ("bad-ihl", bytes(bad_ihl), 1),
        ("bad-tcp-offset", bytes(bad_offset), 1),
        ("non-ipv4", bytes(arp), 0),
        ("non-tcp", bytes(udp), 0),
    ]


class TestDecodeErrorsCountedOnce:
    @pytest.mark.parametrize("name,frame,expected", _bad_frames(),
                             ids=[name for name, _, _ in _bad_frames()])
    def test_live_and_batch_count_each_bad_frame_once(self, name, frame,
                                                      expected):
        packets = [PcapPacket(1.0, _frame()), PcapPacket(2.0, frame)]
        live_registry = MetricsRegistry()
        with use_registry(live_registry):
            decoder = LiveDecoder()
            for packet in packets:
                decoder.feed(packet)
            decoder.flush()
        batch_registry = MetricsRegistry()
        with use_registry(batch_registry):
            transactions_from_packets(packets)
        for registry in (live_registry, batch_registry):
            counters = registry.snapshot()["counters"]
            assert counters.get("decode.errors", 0) == expected
            assert counters["decode.packets"] == 2


#: The ledger's hostile shedding rules: a cap low enough to shed, a
#: buffer cap below the overflow episodes, a linger that expires.
HOSTILE_POLICY = OverloadPolicy(max_connections=12,
                                max_buffered_per_direction=32 * 1024,
                                closed_linger=2.0)


def _live_emissions(packets, policy):
    decoder = LiveDecoder(policy=policy)
    emitted = []
    for index, packet in enumerate(packets):
        emitted.extend((index, txn) for txn in decoder.feed(packet))
    emitted.extend((-1, txn) for txn in decoder.flush())
    return emitted


def _rows(emissions):
    """Everything a transaction carries, plus where it was emitted."""
    rows = []
    for index, txn in emissions:
        req, res = txn.request, txn.response
        rows.append((
            index, req.method, req.uri, req.host, req.client, req.timestamp,
            list(req.headers), req.body,
            None if res is None else (res.status, res.timestamp,
                                      list(res.headers), res.body),
        ))
    return rows


class TestLiveEqualsEagerPath:
    @pytest.mark.parametrize("mix,seed,concurrency", [
        (MIXED, 23, 8), (HOSTILE, 29, 10),
    ], ids=["mixed", "hostile"])
    def test_same_transactions_from_the_same_packets(self, mix, seed,
                                                     concurrency):
        packets = LoadGenerator(
            seed=seed, mix=mix, concurrency=concurrency,
            overflow_bytes=128 * 1024,
        ).capture(6000)
        live_registry = MetricsRegistry()
        with use_registry(live_registry):
            live = _live_emissions(packets, HOSTILE_POLICY)
        eager = eager_live_decode(packets, HOSTILE_POLICY)
        assert len(live) > 500
        assert _rows(live) == _rows(eager)
        # Transactions surface as their packets arrive, not at the flush.
        assert sum(index >= 0 for index, _ in live) > len(live) // 2
        counters = live_registry.snapshot()["counters"]
        assert counters["http.transactions"] == len(live)
        if mix is HOSTILE:
            assert counters["decode.dropped"] > 0
            assert counters["decode.evicted_connections"] > 0
            assert counters["reassembly.overflows"] > 0

    def test_unshed_stream_also_equals_batch(self):
        """Without a connection cap nothing is shed, and the batch decode
        under the same policy holds the same transactions (it has no
        emission index)."""
        packets = LoadGenerator(seed=31, mix=HOSTILE, concurrency=6,
                                overflow_bytes=128 * 1024).capture(4000)
        policy = OverloadPolicy(max_buffered_per_direction=32 * 1024)
        live = [row[1:] for row in _rows(_live_emissions(packets, policy))]
        batch = [row[1:] for row in _rows(
            (0, txn) for txn in transactions_from_packets(
                packets, policy=policy))]
        key = repr
        assert sorted(live, key=key) == sorted(batch, key=key)
