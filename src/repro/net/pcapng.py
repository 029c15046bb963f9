"""pcapng (next-generation capture) reader.

Modern tooling (Wireshark, tcpdump on many distros) writes pcapng by
default, so a deployable DynaMiner must ingest it.  Implements the
block structures of the pcapng specification that carry packets:

* Section Header Block (0x0A0D0D0A) — byte order + section boundaries;
* Interface Description Block (0x00000001) — linktype + timestamp
  resolution (``if_tsresol`` option honoured);
* Enhanced Packet Block (0x00000006) — the packets;
* Simple Packet Block (0x00000003) — packets without timestamps;
* every other block type is skipped by length, per the spec.

Only reading is implemented: we *write* classic pcap (universally
readable), but must *read* whatever a capture box produces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from repro.exceptions import PcapError
from repro.net.pcap import PcapPacket

__all__ = ["PcapngReader", "read_pcapng", "read_capture"]

_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_SPB_TYPE = 0x00000003
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D


@dataclass
class _Interface:
    linktype: int
    snaplen: int
    ticks_per_second: float


class PcapngReader:
    """Iterates :class:`PcapPacket` records out of a pcapng stream.

    ``linktype`` reflects the first interface seen (captures mixing
    link types are rare; all packets are surfaced regardless).
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._endian = "<"
        self._interfaces: list[_Interface] = []
        self.linktype: int | None = None
        self._read_section_header()

    # -- block machinery ----------------------------------------------------

    def _read_exact(self, count: int) -> bytes:
        data = self._stream.read(count)
        if len(data) < count:
            raise PcapError("truncated pcapng stream")
        return data

    def _read_section_header(self) -> None:
        block_type = struct.unpack("<I", self._read_exact(4))[0]
        if block_type != _SHB_TYPE:
            raise PcapError(f"not a pcapng stream (first block 0x{block_type:08x})")
        length_raw = self._read_exact(4)
        magic_raw = self._read_exact(4)
        if struct.unpack("<I", magic_raw)[0] == _BYTE_ORDER_MAGIC:
            self._endian = "<"
        elif struct.unpack(">I", magic_raw)[0] == _BYTE_ORDER_MAGIC:
            self._endian = ">"
        else:
            raise PcapError("bad pcapng byte-order magic")
        block_length = struct.unpack(self._endian + "I", length_raw)[0]
        if block_length < 28 or block_length % 4:
            raise PcapError(f"bad pcapng section header length {block_length}")
        # Remaining SHB bytes: version (4) + section length (8) + options
        # + trailing length (4); we already consumed 12 of block_length.
        self._read_exact(block_length - 12 - 4)
        self._read_exact(4)  # trailing block length

    def _parse_idb(self, body: bytes) -> None:
        if len(body) < 8:
            raise PcapError("truncated interface description block")
        linktype, _, snaplen = struct.unpack_from(
            self._endian + "HHI", body
        )
        ticks = 1e6  # default: microseconds
        offset = 8
        while offset + 4 <= len(body):
            code, length = struct.unpack_from(self._endian + "HH", body,
                                              offset)
            offset += 4
            value = body[offset:offset + length]
            offset += (length + 3) & ~3  # options pad to 32 bits
            if code == 0:  # opt_endofopt
                break
            if code == 9 and length >= 1:  # if_tsresol
                resol = value[0]
                if resol & 0x80:
                    ticks = float(2 ** (resol & 0x7F))
                else:
                    ticks = float(10 ** resol)
        interface = _Interface(linktype=linktype, snaplen=snaplen,
                               ticks_per_second=ticks)
        self._interfaces.append(interface)
        if self.linktype is None:
            self.linktype = linktype

    def _packet_from_epb(self, body: bytes) -> PcapPacket:
        if len(body) < 20:
            raise PcapError("truncated enhanced packet block")
        iface_id, ts_high, ts_low, captured, original = struct.unpack_from(
            self._endian + "IIIII", body
        )
        if iface_id >= len(self._interfaces):
            raise PcapError(f"EPB references unknown interface {iface_id}")
        interface = self._interfaces[iface_id]
        ticks = (ts_high << 32) | ts_low
        data = body[20:20 + captured]
        if len(data) < captured:
            raise PcapError("truncated enhanced packet data")
        return PcapPacket(
            timestamp=ticks / interface.ticks_per_second,
            data=data,
            orig_len=original,
        )

    def __iter__(self) -> Iterator[PcapPacket]:
        while True:
            header = self._stream.read(8)
            if not header:
                return
            if len(header) < 8:
                raise PcapError("truncated pcapng block header")
            block_type, block_length = struct.unpack(
                self._endian + "II", header
            )
            if block_length < 12 or block_length % 4:
                raise PcapError(f"bad pcapng block length {block_length}")
            body = self._read_exact(block_length - 12)
            trailer = struct.unpack(self._endian + "I",
                                    self._read_exact(4))[0]
            if trailer != block_length:
                raise PcapError("pcapng block length mismatch")
            if block_type == _SHB_TYPE:
                # New section: rewind conceptually — re-parse its header
                # fields from the body (byte order may change mid-file;
                # we keep it simple and require a consistent one).
                self._interfaces.clear()
                self.linktype = None
            elif block_type == _IDB_TYPE:
                self._parse_idb(body)
            elif block_type == _EPB_TYPE:
                yield self._packet_from_epb(body)
            elif block_type == _SPB_TYPE:
                if not self._interfaces:
                    raise PcapError("SPB before any interface description")
                if len(body) < 4:
                    raise PcapError("truncated simple packet block")
                original = struct.unpack_from(self._endian + "I", body)[0]
                snaplen = self._interfaces[0].snaplen or original
                captured = min(original, snaplen)
                yield PcapPacket(timestamp=0.0,
                                 data=body[4:4 + captured],
                                 orig_len=original)
            # all other block types: skipped


def read_pcapng(path: str) -> tuple[int, list[PcapPacket]]:
    """Read a pcapng file; returns ``(linktype, packets)``."""
    with open(path, "rb") as handle:
        reader = PcapngReader(handle)
        packets = list(reader)
        if reader.linktype is None:
            raise PcapError("pcapng capture has no interface description")
        return reader.linktype, packets


def read_capture(path: str) -> tuple[int, list[PcapPacket]]:
    """Read either classic pcap or pcapng, sniffing the magic."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == b"\x0a\x0d\x0d\x0a":
        return read_pcapng(path)
    from repro.net.pcap import read_pcap

    return read_pcap(path)
