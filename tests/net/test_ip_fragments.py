"""Tests for IPv4 fragment reassembly."""

import struct

import numpy as np
import pytest

from repro.net.packets import (
    ACK,
    PSH,
    IpFragmentReassembler,
    Ipv4Packet,
    decode_ethernet,
    decode_ipv4,
    decode_tcp,
    encode_tcp_in_ipv4_ethernet,
)
from repro.detection.live import LiveDecoder
from repro.net.flows import packets_from_trace, transactions_from_packets
from repro.net.pcap import PcapPacket
from repro.core.model import Trace
from repro.service.sharding import PacketRouter
from tests.conftest import make_txn


def _fragment(src="1.1.1.1", dst="2.2.2.2", proto=6, ident=7,
              offset=0, more=True, payload=b""):
    return Ipv4Packet(
        src=src, dst=dst, protocol=proto, payload=payload, ident=ident,
        more_fragments=more, frag_offset=offset,
    )


class TestReassembler:
    def test_passthrough_unfragmented(self):
        reasm = IpFragmentReassembler()
        packet = _fragment(more=False, offset=0, payload=b"whole")
        assert reasm.feed(packet) is packet

    def test_two_fragments_in_order(self):
        reasm = IpFragmentReassembler()
        assert reasm.feed(_fragment(offset=0, more=True,
                                    payload=b"A" * 8)) is None
        out = reasm.feed(_fragment(offset=8, more=False, payload=b"B" * 4))
        assert out is not None
        assert out.payload == b"A" * 8 + b"B" * 4
        assert not out.is_fragment

    def test_out_of_order_fragments(self):
        reasm = IpFragmentReassembler()
        assert reasm.feed(_fragment(offset=8, more=False,
                                    payload=b"tail")) is None
        out = reasm.feed(_fragment(offset=0, more=True, payload=b"x" * 8))
        assert out is not None
        assert out.payload == b"x" * 8 + b"tail"

    def test_hole_blocks_completion(self):
        reasm = IpFragmentReassembler()
        assert reasm.feed(_fragment(offset=0, more=True,
                                    payload=b"a" * 8)) is None
        # Missing [8, 16); the final piece is at 16.
        assert reasm.feed(_fragment(offset=16, more=False,
                                    payload=b"c" * 4)) is None

    def test_independent_datagrams(self):
        reasm = IpFragmentReassembler()
        assert reasm.feed(_fragment(ident=1, offset=0, more=True,
                                    payload=b"1" * 8)) is None
        assert reasm.feed(_fragment(ident=2, offset=0, more=True,
                                    payload=b"2" * 8)) is None
        out1 = reasm.feed(_fragment(ident=1, offset=8, more=False,
                                    payload=b"end"))
        assert out1 is not None and out1.payload.startswith(b"1")
        out2 = reasm.feed(_fragment(ident=2, offset=8, more=False,
                                    payload=b"end"))
        assert out2 is not None and out2.payload.startswith(b"2")

    def test_pending_cap_evicts_oldest(self):
        reasm = IpFragmentReassembler(max_pending=2)
        reasm.feed(_fragment(ident=1, offset=0, more=True, payload=b"x" * 8))
        reasm.feed(_fragment(ident=2, offset=0, more=True, payload=b"y" * 8))
        reasm.feed(_fragment(ident=3, offset=0, more=True, payload=b"z" * 8))
        # ident=1 was evicted; completing it now fails (still pending tail).
        out = reasm.feed(_fragment(ident=1, offset=8, more=False,
                                   payload=b"end"))
        assert out is None


class TestPipelineWithFragments:
    def _fragment_frame(self, frame: bytes, mtu_payload: int = 24):
        """Split one Ethernet/IPv4/TCP frame into IP fragments."""
        eth, ip_header, rest = frame[:14], frame[14:34], frame[34:]
        fragments = []
        offset = 0
        while offset < len(rest):
            chunk = rest[offset:offset + mtu_payload]
            more = offset + mtu_payload < len(rest)
            flags_frag = ((0x2000 if more else 0) | (offset // 8))
            hdr = bytearray(ip_header)
            total_len = 20 + len(chunk)
            hdr[2:4] = struct.pack("!H", total_len)
            hdr[6:8] = struct.pack("!H", flags_frag)
            hdr[10:12] = b"\x00\x00"  # checksum (unverified on decode)
            fragments.append(bytes(eth) + bytes(hdr) + chunk)
            offset += mtu_payload
        return fragments

    def _fragmented_capture(self):
        trace = Trace(transactions=[
            make_txn(host="frag.com", uri="/page", body=b"F" * 200),
        ])
        packets, book = packets_from_trace(trace)
        # Fragment every data-bearing frame.
        exploded = []
        for packet in packets:
            if len(packet.data) > 100:
                for piece in self._fragment_frame(packet.data):
                    exploded.append(PcapPacket(timestamp=packet.timestamp,
                                               data=piece))
            else:
                exploded.append(packet)
        return exploded, book

    def test_http_over_fragmented_ip(self):
        exploded, book = self._fragmented_capture()
        transactions = transactions_from_packets(exploded, book=book)
        assert len(transactions) == 1
        assert transactions[0].response.body == b"F" * 200

    def test_live_and_sharded_decode_fragments_like_batch(self):
        """Regression: the live decoder built a fresh fragment
        reassembler per packet, so fragments never met and the tap
        dropped every fragmented datagram (batch 1 transaction, live 0).
        The router holds a datagram's pieces and releases them together
        to the owning shard, whose decoder must reassemble them too."""
        exploded, book = self._fragmented_capture()
        batch = transactions_from_packets(exploded, book=book)

        def live(packets):
            decoder = LiveDecoder(book=book)
            out = [t for packet in packets for t in decoder.feed(packet)]
            return out + decoder.flush()

        router = PacketRouter(2)
        shards = [[], []]
        for packet in exploded:
            for shard, piece in router.route(packet):
                shards[shard].append(piece)
        assert sum(len(shard) for shard in shards) == len(exploded)
        sharded = live(shards[0]) + live(shards[1])
        for decoded in (live(exploded), sharded):
            assert len(decoded) == len(batch) == 1
            assert decoded[0].request == batch[0].request
            assert decoded[0].response == batch[0].response
