"""The fixed-offset shard router against the decode-every-frame router.

``PacketRouter.route`` reads the ports and the client's raw address at
fixed offsets for exactly the frames ``decode_tcp_frame`` takes, and
decodes everything else as before.  ``tests/oracles/router.py`` decodes
every frame.  Both must hand back the same ``(shard, piece)`` lists for
any record stream: where each packet lands is part of the fleet's
byte-identity contract.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.net.packets import decode_tcp_frame
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PcapPacket
from repro.service import PacketRouter
from repro.service import sharding
from tests.oracles.router import PacketRouter as DecodingRouter

#: Addresses whose byte order and dotted-quad order disagree
#: (``10.0.0.9`` sorts after ``10.0.0.10`` as a string), so the
#: ambiguous-port fallback must compare what ``client_ip_of`` compares.
_POOL = [bytes(a) for a in ((10, 0, 0, 9), (10, 0, 0, 10), (10, 0, 0, 100),
                            (9, 255, 255, 255), (192, 168, 1, 2),
                            (100, 0, 0, 1))]

addresses = st.one_of(st.sampled_from(_POOL),
                      st.binary(min_size=4, max_size=4))
ports = st.one_of(st.sampled_from([80, 443, 8080, 3128, 0, 22, 1023, 1024,
                                   5555, 49152, 65535]),
                  st.integers(0, 65535))


@st.composite
def tcp_segments(draw) -> bytes:
    """A TCP header (data offset 0-15, options when above 5) + payload."""
    data_offset = draw(st.sampled_from([5, 5, 5, 6, 8, 15, 4, 3, 0]))
    header = struct.pack("!HHIIBBHHH", draw(ports), draw(ports),
                         draw(st.integers(0, 2**32 - 1)), 0,
                         data_offset << 4 | draw(st.sampled_from([0, 0, 1])),
                         draw(st.sampled_from([0x02, 0x10, 0x18, 0x11])),
                         65535, 0, 0)
    options = bytes(max(0, data_offset - 5) * 4)
    return header + options + draw(st.binary(max_size=24))


def ipv4_header(draw, payload_len: int, protocol: int, src: bytes,
                dst: bytes, ident: int, flags_frag: int) -> bytes:
    """An IPv4 header (IHL 5-7, or a mangled version) for a payload."""
    ihl = draw(st.sampled_from([5, 5, 5, 6, 7, 4]))
    version = draw(st.sampled_from([4, 4, 4, 4, 6]))
    options = bytes(max(0, ihl - 5) * 4)
    total_len = 20 + len(options) + payload_len
    total_len = draw(st.sampled_from([
        total_len, total_len, total_len, total_len - 1, total_len + 1,
        total_len + 100, 19, 0, 20,
    ])) & 0xFFFF
    return struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total_len,
                       ident, flags_frag, 64, protocol, 0, src,
                       dst) + options


def ethernet(draw, ip_packet: bytes) -> bytes:
    ethertype = draw(st.sampled_from([0x0800, 0x0800, 0x0800, 0x8100,
                                      0x86DD, 0x0806]))
    padding = bytes(draw(st.sampled_from([0, 0, 0, 2, 6])))
    return (b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", ethertype)
            + ip_packet + padding)


@st.composite
def records(draw) -> list[bytes]:
    """One datagram's frames: a whole datagram, or its fragments in any
    order (sometimes one missing), each maybe truncated to 0-60 bytes."""
    src, dst = draw(addresses), draw(addresses)
    if draw(st.booleans()):
        src, dst = dst, src
    protocol = draw(st.sampled_from([6, 6, 6, 6, 17, 1]))
    segment = draw(tcp_segments())
    ident = draw(st.integers(0, 3))
    if draw(st.integers(0, 5)) > 0:
        flags_frag = draw(st.sampled_from([0, 0, 0x4000]))
        frames = [ethernet(draw, ipv4_header(draw, len(segment), protocol,
                                             src, dst, ident, flags_frag)
                           + segment)]
    else:
        cut = draw(st.integers(1, max(1, (len(segment) - 1) // 8))) * 8
        pieces = [(0, segment[:cut], 0x2000), (cut, segment[cut:], 0)]
        frames = [ethernet(draw, ipv4_header(draw, len(chunk), protocol,
                                             src, dst, ident,
                                             more | offset // 8) + chunk)
                  for offset, chunk, more in pieces]
        frames = draw(st.permutations(frames))
        if draw(st.integers(0, 4)) == 0:
            frames = frames[1:]
    if draw(st.integers(0, 7)) == 0:
        index = draw(st.integers(0, len(frames) - 1))
        frames[index] = frames[index][:draw(st.integers(0, 60))]
    return list(frames)


streams = st.lists(records(), min_size=1, max_size=12).map(
    lambda batches: [frame for batch in batches for frame in batch])


def _assert_same_routes(packets, n_shards, linktype=LINKTYPE_ETHERNET):
    fast = PacketRouter(n_shards, linktype=linktype)
    reference = DecodingRouter(n_shards, linktype=linktype)
    for packet in packets:
        assert fast.route(packet) == reference.route(packet), packet


@settings(max_examples=200, deadline=None)
@given(stream=streams, n_shards=st.integers(1, 5),
       raw_ip=st.integers(0, 4))
def test_router_matches_the_decoding_router(stream, n_shards, raw_ip):
    linktype = LINKTYPE_ETHERNET
    if raw_ip == 0:  # LINKTYPE_RAW_IP records carry no Ethernet header
        linktype = LINKTYPE_RAW_IP
        stream = [frame[14:] for frame in stream]
    packets = [PcapPacket(float(i), frame) for i, frame in enumerate(stream)]
    _assert_same_routes(packets, n_shards, linktype)


def test_router_matches_on_generated_workloads():
    for seed, mix in ((31, MIXED), (41, HOSTILE)):
        packets = LoadGenerator(seed=seed, mix=mix, concurrency=6).capture(
            3000)
        _assert_same_routes(packets, 3)


def test_only_frames_the_fast_test_rejects_are_decoded(monkeypatch):
    """The router decodes a record only when ``decode_tcp_frame`` would
    not take it: on MIXED, the 2 % of the 4 000 records that are
    garbage or fragments."""
    calls = []
    decode = sharding.decode_segment

    def counting(data, *args):
        calls.append(data)
        return decode(data, *args)

    monkeypatch.setattr(sharding, "decode_segment", counting)
    packets = LoadGenerator(seed=31, mix=MIXED, concurrency=6).capture(4000)
    router = PacketRouter(4)
    for packet in packets:
        router.route(packet)
    rejected = [p.data for p in packets if decode_tcp_frame(p.data) is None]
    assert calls == rejected
    assert 0 < len(calls) < len(packets) // 20
