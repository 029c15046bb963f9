"""Classic libpcap file format reader and writer (pure Python).

Implements the 24-byte global header + per-record headers of the classic
``.pcap`` format (magic ``0xa1b2c3d4``), including byte-order and
nanosecond-magic variants.  Only what DynaMiner needs: linktype EN10MB
(Ethernet) and RAW IP captures.

The paper's pipeline starts from PCAP traces of HTTP conversations; this
module is the entry point of our equivalent pipeline:
``pcap → ethernet/ip/tcp decode → stream reassembly → HTTP transactions``.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from repro.exceptions import PcapError
from repro.obs import get_registry

__all__ = [
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW_IP",
    "PcapPacket",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
]

#: Link-layer header types (subset) per the tcpdump LINKTYPE registry.
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

_MAGIC_USEC = 0xA1B2C3D4
_MAGIC_NSEC = 0xA1B23C4D

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapPacket(NamedTuple):
    """One captured packet: a timestamp and its link-layer bytes.

    ``timestamp`` is seconds since the epoch (float, sub-second resolution
    preserved from the capture's tick unit).  ``orig_len`` is the original
    on-the-wire length; ``data`` may be truncated to the capture snaplen.
    ``-1`` stands for ``len(data)`` (:class:`PcapWriter` resolves it).
    """

    timestamp: float
    data: bytes
    orig_len: int = -1


class PcapReader:
    """Iterates :class:`PcapPacket` records out of a classic pcap stream.

    Handles both little- and big-endian captures and both microsecond and
    nanosecond timestamp magics.
    """

    def __init__(self, stream: BinaryIO):
        header = stream.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic_le = struct.unpack("<I", header[:4])[0]
        magic_be = struct.unpack(">I", header[:4])[0]
        if magic_le in (_MAGIC_USEC, _MAGIC_NSEC):
            self._endian = "<"
            magic = magic_le
        elif magic_be in (_MAGIC_USEC, _MAGIC_NSEC):
            self._endian = ">"
            magic = magic_be
        else:
            raise PcapError(f"bad pcap magic: 0x{magic_le:08x}")
        self._tick = 1e-9 if magic == _MAGIC_NSEC else 1e-6
        fields = struct.unpack(self._endian + "IHHiIII", header)
        _, self.version_major, self.version_minor = fields[0], fields[1], fields[2]
        self.snaplen = fields[5]
        self.linktype = fields[6]
        self._stream = stream
        self._record = struct.Struct(self._endian + "IIII")
        metrics = get_registry()
        self._counted = metrics.enabled
        self._c_records = metrics.counter("pcap.records")
        self._c_bytes = metrics.counter("pcap.bytes")

    def __iter__(self) -> Iterator[PcapPacket]:
        read = self._stream.read
        unpack, header_size = self._record.unpack, self._record.size
        tick, snaplen, counted = self._tick, self.snaplen, self._counted
        new = tuple.__new__
        while True:
            header = read(header_size)
            if not header:
                return
            if len(header) < header_size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_frac, incl_len, orig_len = unpack(header)
            if incl_len > snaplen and snaplen:
                raise PcapError(
                    f"record length {incl_len} exceeds snaplen {snaplen}"
                )
            data = read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            if counted:
                self._c_records.inc()
                self._c_bytes.inc(incl_len)
            yield new(PcapPacket, (ts_sec + ts_frac * tick, data, orig_len))


class PcapWriter:
    """Writes :class:`PcapPacket` records in classic little-endian pcap."""

    def __init__(
        self,
        stream: BinaryIO,
        linktype: int = LINKTYPE_ETHERNET,
        snaplen: int = 262144,
    ):
        self._stream = stream
        self.linktype = linktype
        self.snaplen = snaplen
        stream.write(
            _GLOBAL_HEADER.pack(_MAGIC_USEC, 2, 4, 0, 0, snaplen, linktype)
        )

    def write(self, packet: PcapPacket) -> None:
        """Append one packet record."""
        data = packet.data[: self.snaplen]
        ts_sec = int(packet.timestamp)
        ts_usec = int(round((packet.timestamp - ts_sec) * 1e6))
        if ts_usec >= 1_000_000:  # rounding spill-over
            ts_sec += 1
            ts_usec -= 1_000_000
        orig_len = packet.orig_len if packet.orig_len >= 0 else len(packet.data)
        self._stream.write(
            _RECORD_HEADER.pack(ts_sec, ts_usec, len(data), orig_len)
        )
        self._stream.write(data)


def read_pcap(path: str) -> tuple[int, list[PcapPacket]]:
    """Read a pcap file; returns ``(linktype, packets)``."""
    with open(path, "rb") as handle:
        reader = PcapReader(handle)
        return reader.linktype, list(reader)


def write_pcap(
    path: str,
    packets: Iterable[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
) -> int:
    """Write packets to ``path``; returns the number written."""
    count = 0
    with open(path, "wb") as handle:
        writer = PcapWriter(handle, linktype=linktype)
        for packet in packets:
            writer.write(packet)
            count += 1
    return count
