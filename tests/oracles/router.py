"""The decode-every-frame shard router the fixed-offset peek replaced.

Production reads the two ports and the client's four address bytes at
fixed offsets of the common frame shape and memoises the shard per
address.  This module is the straightforward formulation: every
record goes through ``decode_segment`` (fast decode, then the layered
codecs with the fragment hook) and the shard comes from the decoded
dotted-quad endpoints.  The router differential requires the same
``(shard, piece)`` lists from both on the same record streams.
"""

from __future__ import annotations

import zlib

from repro.exceptions import PcapError
from repro.net.flows import decode_segment
from repro.net.packets import IpFragmentReassembler, Ipv4Packet
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket
from repro.service.sharding import client_ip_of, shard_of


class PacketRouter:
    """Assigns each pcap record to a shard by client affinity."""

    def __init__(self, n_shards: int, linktype: int = LINKTYPE_ETHERNET):
        self.n_shards = n_shards
        self.linktype = linktype
        self._fragments = IpFragmentReassembler()
        self._held: dict[tuple[str, str, int, int], list[PcapPacket]] = {}
        self._pieces: list[PcapPacket] = []

    def route(self, packet: PcapPacket) -> list[tuple[int, PcapPacket]]:
        self._pieces = [packet]
        try:
            segment = decode_segment(packet.data, self.linktype,
                                     self._defragment)
        except PcapError:
            segment = None
        if segment is None:
            shard = zlib.crc32(packet.data) % self.n_shards
        else:
            src, dst, src_port, dst_port = segment[:4]
            shard = shard_of(client_ip_of(src, src_port, dst, dst_port),
                             self.n_shards)
        return [(shard, piece) for piece in self._pieces]

    def _defragment(self, ip: Ipv4Packet) -> Ipv4Packet | None:
        if not ip.is_fragment:
            return ip
        key = (ip.src, ip.dst, ip.protocol, ip.ident)
        self._held.setdefault(key, []).append(self._pieces[0])
        completed = self._fragments.feed(ip)
        self._pieces = [] if completed is None else self._held.pop(key)
        return completed
