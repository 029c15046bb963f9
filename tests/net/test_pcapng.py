"""Tests for the pcapng reader (hand-built wire blocks)."""

import io
import struct

import pytest

from repro.exceptions import PcapError
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket, write_pcap
from repro.net.pcapng import PcapngReader, read_capture, read_pcapng


def _pad(data: bytes) -> bytes:
    return data + b"\x00" * ((4 - len(data) % 4) % 4)


def _block(block_type: int, body: bytes) -> bytes:
    body = _pad(body)
    length = 12 + len(body)
    return (struct.pack("<II", block_type, length) + body
            + struct.pack("<I", length))


def _shb() -> bytes:
    body = struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1)
    return _block(0x0A0D0D0A, body)


def _idb(linktype: int = LINKTYPE_ETHERNET, tsresol: int | None = None) -> bytes:
    body = struct.pack("<HHI", linktype, 0, 65535)
    if tsresol is not None:
        body += struct.pack("<HH", 9, 1) + bytes([tsresol]) + b"\x00" * 3
        body += struct.pack("<HH", 0, 0)  # end of options
    return _block(0x00000001, body)


def _epb(ticks: int, data: bytes, iface: int = 0) -> bytes:
    body = struct.pack(
        "<IIIII", iface, (ticks >> 32) & 0xFFFFFFFF, ticks & 0xFFFFFFFF,
        len(data), len(data),
    ) + data
    return _block(0x00000006, body)


def _spb(data: bytes) -> bytes:
    return _block(0x00000003, struct.pack("<I", len(data)) + data)


_SHB_IDB = bytes.fromhex(
    "0a0d0d0a1c0000004d3c2b1a01000000ffffffffffffffff1c000000"  # SHB
    "0100000014000000010000000000040014000000"                  # IDB
)

#: One minimal defect per case, each a whole capture file, with the
#: error it must raise.
MALFORMED_CAPTURES = {
    # A 12-byte SPB has no original-length field.
    "spb_without_length": (
        _SHB_IDB + bytes.fromhex("030000000c0000000c000000"),
        "truncated simple packet block"),
    # block_length 12 would read(-4), which reads the rest of the file.
    "shb_shorter_than_28": (
        bytes.fromhex("0a0d0d0a0c0000004d3c2b1a0c000000" + "00" * 64),
        "section header length 12"),
    "shb_not_aligned": (
        bytes.fromhex("0a0d0d0a1e0000004d3c2b1a01000000ffffffffffffffff"
                      "00001e000000"),
        "section header length 30"),
}


class TestPcapngReader:
    def test_basic_read(self):
        stream = io.BytesIO(_shb() + _idb() + _epb(5_000_000, b"hello"))
        reader = PcapngReader(stream)
        packets = list(reader)
        assert reader.linktype == LINKTYPE_ETHERNET
        assert len(packets) == 1
        assert packets[0].data == b"hello"
        assert packets[0].timestamp == pytest.approx(5.0)  # usec default

    def test_tsresol_nanoseconds(self):
        stream = io.BytesIO(
            _shb() + _idb(tsresol=9) + _epb(5_000_000_000, b"x")
        )
        packets = list(PcapngReader(stream))
        assert packets[0].timestamp == pytest.approx(5.0)

    def test_tsresol_power_of_two(self):
        stream = io.BytesIO(
            _shb() + _idb(tsresol=0x80 | 10) + _epb(1024, b"x")
        )
        packets = list(PcapngReader(stream))
        assert packets[0].timestamp == pytest.approx(1.0)

    def test_simple_packet_block(self):
        stream = io.BytesIO(_shb() + _idb() + _spb(b"raw"))
        packets = list(PcapngReader(stream))
        assert packets[0].data == b"raw"

    def test_unknown_blocks_skipped(self):
        name_block = _block(0x00000BAD, b"ignore me")
        stream = io.BytesIO(_shb() + _idb() + name_block
                            + _epb(1, b"ok"))
        packets = list(PcapngReader(stream))
        assert len(packets) == 1

    def test_multiple_packets(self):
        stream = io.BytesIO(
            _shb() + _idb() + _epb(1, b"a") + _epb(2, b"bb") + _epb(3, b"ccc")
        )
        packets = list(PcapngReader(stream))
        assert [p.data for p in packets] == [b"a", b"bb", b"ccc"]

    def test_not_pcapng(self):
        with pytest.raises(PcapError, match="not a pcapng"):
            PcapngReader(io.BytesIO(b"\xd4\xc3\xb2\xa1" + b"\x00" * 20))

    def test_epb_unknown_interface(self):
        stream = io.BytesIO(_shb() + _epb(1, b"x", iface=3))
        with pytest.raises(PcapError, match="unknown interface"):
            list(PcapngReader(stream))

    @pytest.mark.parametrize("defect", sorted(MALFORMED_CAPTURES))
    def test_malformed_capture_is_a_pcap_error(self, defect):
        capture, message = MALFORMED_CAPTURES[defect]
        with pytest.raises(PcapError, match=message):
            list(PcapngReader(io.BytesIO(capture)))

    def test_block_length_mismatch(self):
        good = _epb(1, b"x")
        corrupted = good[:-4] + struct.pack("<I", 999)
        stream = io.BytesIO(_shb() + _idb() + corrupted)
        with pytest.raises(PcapError, match="mismatch"):
            list(PcapngReader(stream))


class TestReadCapture:
    def test_sniffs_pcapng(self, tmp_path):
        path = str(tmp_path / "c.pcapng")
        with open(path, "wb") as handle:
            handle.write(_shb() + _idb() + _epb(7_000_000, b"data"))
        linktype, packets = read_capture(path)
        assert linktype == LINKTYPE_ETHERNET
        assert packets[0].data == b"data"

    def test_sniffs_classic_pcap(self, tmp_path):
        path = str(tmp_path / "c.pcap")
        write_pcap(path, [PcapPacket(timestamp=1.0, data=b"classic")])
        linktype, packets = read_capture(path)
        assert packets[0].data == b"classic"

    def test_read_pcapng_file_helper(self, tmp_path):
        path = str(tmp_path / "h.pcapng")
        with open(path, "wb") as handle:
            handle.write(_shb() + _idb() + _epb(1, b"z"))
        linktype, packets = read_pcapng(path)
        assert len(packets) == 1


class TestMultiSection:
    def test_new_section_resets_interfaces(self):
        stream = io.BytesIO(
            _shb() + _idb() + _epb(1_000_000, b"first")
            + _shb() + _idb(linktype=101) + _epb(2_000_000, b"second")
        )
        reader = PcapngReader(stream)
        packets = list(reader)
        assert [p.data for p in packets] == [b"first", b"second"]
        # linktype reflects the most recent section's first interface
        assert reader.linktype == 101
