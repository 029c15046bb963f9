"""Client-affinity packet routing for the sharded detection service.

The shard key is the **client IP**, not the :class:`FlowKey`: DynaMiner's
detection state is clustered per client (the session table groups a
client's transactions into watches, WCGs span a client's *connections*,
the alert cooldown is per client), so every connection a client opens
must land on the same shard or the shard's watch clustering would see a
fragment of the client's activity and diverge from the single-process
detector.  Flow-hashing would balance load slightly better; it would
also silently split WCGs.  Client affinity is the strongest partition
that is still byte-identical.

Routing never raises and never drops: a packet the router cannot parse
down to TCP endpoints (mangled frame, non-IPv4, non-TCP) is assigned a
deterministic fallback shard from a hash of its raw bytes — exactly one
shard sees it and counts it (``decode.errors`` etc.), so merged fleet
counters match the single-process run.  IPv4 fragments are held until
their datagram completes and then delivered *as the original pieces* to
the owning flow's shard, matching the single-process decode where a
fragmented segment surfaces at the arrival of its completing piece.
"""

from __future__ import annotations

import struct
import zlib

from repro.exceptions import PcapError
from repro.net.flows import decode_segment
from repro.net.packets import (ETHERTYPE_IPV4, IPPROTO_TCP,
                                IpFragmentReassembler, Ipv4Packet, _ip_str)
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket

__all__ = ["PacketRouter", "client_ip_of", "shard_of"]

#: Well-known HTTP(S)/proxy server ports.  The router sees raw segments
#: and must decide which endpoint is the client without waiting for a
#: SYN (it may start mid-capture); a port-based heuristic is standard
#: tap practice and, crucially, *direction-stable*: both directions of
#: a connection resolve to the same client, so both route identically.
_SERVICE_PORTS = frozenset({80, 443, 8080, 3128})

#: ``decode_tcp_frame``'s layout up to the TCP data offset, minus what
#: the router neither tests nor hashes.
_PEEK = struct.Struct("!12xH" "BxH2xHxB2x4s4s" "HH8xB")

#: Client addresses whose shard the router remembers; cleared when full.
_MEMO_CAP = 1 << 16


def _is_service_port(port: int) -> bool:
    return port in _SERVICE_PORTS or port < 1024


def client_ip_of(src_ip: str, src_port: int,
                 dst_ip: str, dst_port: int) -> str:
    """Pick the client endpoint of a segment, direction-stably.

    When exactly one endpoint looks like a server (well-known port),
    the other is the client.  When neither or both do, fall back to the
    canonical lower ``(ip, port)`` endpoint — arbitrary but symmetric,
    so the two directions of the connection still agree and the whole
    conversation stays on one shard.
    """
    src_serves = _is_service_port(src_port)
    dst_serves = _is_service_port(dst_port)
    if dst_serves and not src_serves:
        return src_ip
    if src_serves and not dst_serves:
        return dst_ip
    return min((src_ip, src_port), (dst_ip, dst_port))[0]


def shard_of(client: str, n_shards: int) -> int:
    """Deterministic shard index for a client key.

    ``zlib.crc32`` rather than ``hash()``: the assignment must be
    identical across processes and runs (``PYTHONHASHSEED`` randomizes
    ``str.__hash__``), because the differential tests replay the same
    workload through different worker counts.
    """
    return zlib.crc32(client.encode("utf-8", "surrogateescape")) % n_shards


class PacketRouter:
    """Assigns each pcap record to a shard by client affinity.

    :meth:`route` returns ``(shard_id, packet)`` pairs — usually one,
    zero while a fragmented datagram is still incomplete, several when
    a completing fragment releases its held siblings.  The router keeps
    *no* per-connection state: only a fragment-reassembly scratchpad,
    bounded by in-flight fragmented datagrams (pieces of a datagram
    that never completes are held indefinitely, same as the decoder's
    own fragment buffer — a real deployment would age them out) and a
    bounded client-address memo.
    """

    def __init__(self, n_shards: int, linktype: int = LINKTYPE_ETHERNET):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.linktype = linktype
        self._fragments = IpFragmentReassembler()
        self._held: dict[tuple[str, str, int, int], list[PcapPacket]] = {}
        #: What the record being routed releases (see ``_defragment``).
        self._pieces: list[PcapPacket] = []
        #: Raw client address -> shard.
        self._shards: dict[bytes, int] = {}

    def route(self, packet: PcapPacket) -> list[tuple[int, PcapPacket]]:
        """Assign ``packet`` (and any released fragments) to shards."""
        data = packet.data
        size = len(data)
        # What ``decode_tcp_frame`` takes routes on the raw endpoints;
        # under 54 bytes it takes nothing (the data offset is >= 5).
        if self.linktype == LINKTYPE_ETHERNET and size >= 54:
            (ethertype, version_ihl, total_len, flags_frag, protocol, src,
             dst, src_port, dst_port, offset) = _PEEK.unpack_from(data)
            end = 14 + total_len if 20 <= total_len <= size - 14 else size
            if (ethertype == ETHERTYPE_IPV4 and version_ihl == 0x45
                    and not flags_frag & 0x3FFF and protocol == IPPROTO_TCP
                    and offset >= 0x50 and 34 + (offset >> 4) * 4 <= end):
                src_serves = _is_service_port(src_port)
                if src_serves != _is_service_port(dst_port):
                    client = dst if src_serves else src
                elif (_ip_str(src), src_port) <= (_ip_str(dst), dst_port):
                    client = src  # ``client_ip_of``'s dotted-quad ``min``
                else:
                    client = dst
                shard = self._shards.get(client)
                if shard is None:
                    if len(self._shards) >= _MEMO_CAP:
                        self._shards.clear()
                    shard = self._shards[client] = shard_of(
                        _ip_str(client), self.n_shards)
                return [(shard, packet)]
        self._pieces = [packet]
        try:
            segment = decode_segment(data, self.linktype, self._defragment)
        except PcapError:
            segment = None
        if segment is None:
            # Traffic with no TCP endpoints: a deterministic shard.
            shard = zlib.crc32(data) % self.n_shards
        else:
            src, dst, src_port, dst_port = segment[:4]
            shard = shard_of(client_ip_of(src, src_port, dst, dst_port),
                             self.n_shards)
        return [(shard, piece) for piece in self._pieces]

    def _defragment(self, ip: Ipv4Packet) -> Ipv4Packet | None:
        """``decode_segment``'s fragment hook: hold the record being
        routed with its datagram's other pieces, and release them all
        (``_pieces``) when it completes the datagram."""
        if not ip.is_fragment:
            return ip
        key = (ip.src, ip.dst, ip.protocol, ip.ident)
        self._held.setdefault(key, []).append(self._pieces[0])
        completed = self._fragments.feed(ip)
        self._pieces = [] if completed is None else self._held.pop(key)
        return completed
