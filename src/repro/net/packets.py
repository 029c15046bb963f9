"""Ethernet / IPv4 / TCP frame codecs (pure Python).

Minimal but correct encode/decode for the protocol layers the DynaMiner
pipeline traverses between pcap records and HTTP bytes.  Checksums are
computed on encode and *verified optionally* on decode (real captures
frequently contain offloaded-checksum zeros).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.exceptions import PcapError

__all__ = [
    "ETHERTYPE_IPV4",
    "IPPROTO_TCP",
    "EthernetFrame",
    "IpFragmentReassembler",
    "Ipv4Packet",
    "TcpSegment",
    "ipv4_checksum",
    "decode_ethernet",
    "decode_ipv4",
    "decode_tcp",
    "decode_tcp_frame",
    "encode_tcp_in_ipv4_ethernet",
]

ETHERTYPE_IPV4 = 0x0800
IPPROTO_TCP = 6

_ETH_HEADER = struct.Struct("!6s6sH")
_IP_HEADER = struct.Struct("!BBHHHBBH4s4s")
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
#: The three above back to back, minus the fields no consumer reads, up
#: to the TCP window: Ethernet II | IPv4 without options | TCP.
_TCP_FRAME = struct.Struct("!12xH" "BxH2xHxB2x4s4s" "HHIIBBH")

# TCP flag bits.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


def ipv4_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True)
class EthernetFrame:
    """Decoded Ethernet II frame."""

    dst: bytes
    src: bytes
    ethertype: int
    payload: bytes


@dataclass(frozen=True)
class Ipv4Packet:
    """Decoded IPv4 packet (options stripped).

    Fragments are surfaced with ``more_fragments`` / ``frag_offset`` set
    and must go through :class:`IpFragmentReassembler` before the
    payload is a complete transport segment.
    """

    src: str
    dst: str
    protocol: int
    payload: bytes
    ttl: int = 64
    ident: int = 0
    more_fragments: bool = False
    frag_offset: int = 0  # in bytes

    @property
    def is_fragment(self) -> bool:
        """True when this packet is one piece of a fragmented datagram."""
        return self.more_fragments or self.frag_offset > 0


@dataclass(frozen=True)
class TcpSegment:
    """Decoded TCP segment."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes
    window: int = 65535


@lru_cache(maxsize=1 << 16)
def _ip_str(raw: bytes) -> str:
    # Memoised: a tap sees the same few thousand addresses on every packet.
    return ".".join(str(octet) for octet in raw)


def _ip_bytes(dotted: str) -> bytes:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise PcapError(f"bad IPv4 address: {dotted!r}")
    try:
        values = [int(part) for part in parts]
    except ValueError as exc:
        raise PcapError(f"bad IPv4 address: {dotted!r}") from exc
    if any(value < 0 or value > 255 for value in values):
        raise PcapError(f"bad IPv4 address: {dotted!r}")
    return bytes(values)


def decode_ethernet(data: bytes) -> EthernetFrame:
    """Decode an Ethernet II frame."""
    if len(data) < _ETH_HEADER.size:
        raise PcapError("truncated Ethernet frame")
    dst, src, ethertype = _ETH_HEADER.unpack_from(data)
    return EthernetFrame(dst, src, ethertype, data[_ETH_HEADER.size :])


def decode_ipv4(data: bytes) -> Ipv4Packet:
    """Decode an IPv4 packet, honouring IHL and total length."""
    if len(data) < _IP_HEADER.size:
        raise PcapError("truncated IPv4 header")
    fields = _IP_HEADER.unpack_from(data)
    version_ihl = fields[0]
    version = version_ihl >> 4
    if version != 4:
        raise PcapError(f"not IPv4 (version={version})")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        raise PcapError("bad IPv4 IHL")
    total_len = fields[2]
    if total_len < ihl or total_len > len(data):
        total_len = len(data)
    flags_frag = fields[4]
    return Ipv4Packet(
        src=_ip_str(fields[8]),
        dst=_ip_str(fields[9]),
        protocol=fields[6],
        payload=data[ihl:total_len],
        ttl=fields[5],
        ident=fields[3],
        more_fragments=bool(flags_frag & 0x2000),
        frag_offset=(flags_frag & 0x1FFF) * 8,
    )


def decode_tcp(data: bytes) -> TcpSegment:
    """Decode a TCP segment, honouring the data offset."""
    if len(data) < _TCP_HEADER.size:
        raise PcapError("truncated TCP header")
    fields = _TCP_HEADER.unpack_from(data)
    offset = (fields[4] >> 4) * 4
    if offset < 20 or len(data) < offset:
        raise PcapError("bad TCP data offset")
    return TcpSegment(
        src_port=fields[0],
        dst_port=fields[1],
        seq=fields[2],
        ack=fields[3],
        flags=fields[5],
        payload=data[offset:],
        window=fields[6],
    )


def decode_tcp_frame(data: bytes) -> tuple | None:
    """Decode the common frame shape in one unpack.

    Ethernet II / IPv4 without options, not a fragment / TCP with a
    sane data offset gives ``(src, dst, src_port, dst_port, seq, ack,
    flags, window, payload)`` as the layered codecs would; any other
    shape gives ``None``, and the layered codecs say what the frame is.
    """
    size = len(data)
    if size < _TCP_FRAME.size:
        return None  # (under 54 bytes fails the offset test below)
    (ethertype, version_ihl, total_len, flags_frag, protocol, src, dst,
     src_port, dst_port, seq, ack, offset, flags, window,
     ) = _TCP_FRAME.unpack_from(data)
    end = 14 + total_len if 20 <= total_len <= size - 14 else size
    start = 34 + (offset >> 4) * 4
    if (ethertype != ETHERTYPE_IPV4 or version_ihl != 0x45
            or flags_frag & 0x3FFF or protocol != IPPROTO_TCP
            or offset < 0x50 or start > end):
        return None
    return (_ip_str(src), _ip_str(dst), src_port, dst_port, seq, ack,
            flags, window, data[start:end])


def encode_tcp_in_ipv4_ethernet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    ident: int = 0,
) -> bytes:
    """Build a full Ethernet/IPv4/TCP frame around ``payload``.

    Used by the synthetic pcap serializer; checksums are valid so the
    output opens cleanly in standard tooling.
    """
    tcp_no_sum = _TCP_HEADER.pack(
        src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
        (5 << 4), flags, 65535, 0, 0,
    )
    pseudo = (
        _ip_bytes(src_ip)
        + _ip_bytes(dst_ip)
        + struct.pack("!BBH", 0, IPPROTO_TCP, len(tcp_no_sum) + len(payload))
    )
    tcp_sum = ipv4_checksum(pseudo + tcp_no_sum + payload)
    tcp = (
        tcp_no_sum[:16] + struct.pack("!H", tcp_sum) + tcp_no_sum[18:] + payload
    )
    total_len = 20 + len(tcp)
    ip_no_sum = _IP_HEADER.pack(
        (4 << 4) | 5, 0, total_len, ident & 0xFFFF, 0, 64, IPPROTO_TCP, 0,
        _ip_bytes(src_ip), _ip_bytes(dst_ip),
    )
    ip_sum = ipv4_checksum(ip_no_sum)
    ip = ip_no_sum[:10] + struct.pack("!H", ip_sum) + ip_no_sum[12:]
    eth = _ETH_HEADER.pack(
        b"\x02\x00\x00\x00\x00\x02", b"\x02\x00\x00\x00\x00\x01", ETHERTYPE_IPV4
    )
    return eth + ip + tcp


class IpFragmentReassembler:
    """Reassembles fragmented IPv4 datagrams.

    Fragments are keyed by ``(src, dst, protocol, ident)``; a datagram
    completes when the no-more-fragments piece has arrived and the byte
    range [0, end) is fully covered.  Incomplete datagrams are dropped
    when more than ``max_pending`` are in flight (oldest first) — the
    defence against fragment-flood memory exhaustion.
    """

    def __init__(self, max_pending: int = 256):
        self._pending: dict[tuple, dict[int, bytes]] = {}
        self._final_end: dict[tuple, int] = {}
        self.max_pending = max_pending

    def feed(self, packet: Ipv4Packet) -> Ipv4Packet | None:
        """Ingest one packet; returns a completed datagram or ``None``.

        Non-fragmented packets pass straight through.
        """
        if not packet.is_fragment:
            return packet
        key = (packet.src, packet.dst, packet.protocol, packet.ident)
        parts = self._pending.get(key)
        if parts is None:
            parts = self._pending[key] = {}
            if len(self._pending) > self.max_pending:
                # Dicts keep insertion order: the first key is the oldest.
                oldest = next(iter(self._pending))
                del self._pending[oldest]
                self._final_end.pop(oldest, None)
        parts[packet.frag_offset] = packet.payload
        if not packet.more_fragments:
            self._final_end[key] = packet.frag_offset + len(packet.payload)
        end = self._final_end.get(key)
        if end is None:
            return None
        # Check contiguous coverage of [0, end).
        covered = 0
        for offset in sorted(parts):
            if offset > covered:
                return None  # hole
            covered = max(covered, offset + len(parts[offset]))
            if covered >= end:
                break
        if covered < end:
            return None
        payload = bytearray(end)
        for offset, chunk in parts.items():
            payload[offset:offset + len(chunk)] = chunk[: end - offset]
        del self._pending[key]
        del self._final_end[key]
        return Ipv4Packet(
            src=packet.src, dst=packet.dst, protocol=packet.protocol,
            payload=bytes(payload), ttl=packet.ttl, ident=packet.ident,
        )
