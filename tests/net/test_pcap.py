"""Unit + property tests for the pcap file format codec."""

import io
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PcapError
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapPacket,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)


def _roundtrip(packets, linktype=LINKTYPE_ETHERNET):
    buffer = io.BytesIO()
    writer = PcapWriter(buffer, linktype=linktype)
    for packet in packets:
        writer.write(packet)
    buffer.seek(0)
    reader = PcapReader(buffer)
    return reader, list(reader)


class TestRoundTrip:
    def test_empty_capture(self):
        reader, packets = _roundtrip([])
        assert packets == []
        assert reader.linktype == LINKTYPE_ETHERNET

    def test_single_packet(self):
        original = PcapPacket(timestamp=1234.5678, data=b"\x01\x02\x03")
        _, packets = _roundtrip([original])
        assert len(packets) == 1
        assert packets[0].data == original.data
        assert packets[0].timestamp == pytest.approx(original.timestamp,
                                                     abs=1e-6)
        assert packets[0].orig_len == 3

    def test_linktype_preserved(self):
        reader, _ = _roundtrip([], linktype=LINKTYPE_RAW_IP)
        assert reader.linktype == LINKTYPE_RAW_IP

    def test_microsecond_rounding_spillover(self):
        # .9999995 s rounds to 1,000,000 us and must carry into seconds.
        packet = PcapPacket(timestamp=10.9999995, data=b"x")
        _, packets = _roundtrip([packet])
        assert packets[0].timestamp == pytest.approx(11.0, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=2**31,
                          allow_nan=False, allow_infinity=False),
                st.binary(min_size=0, max_size=512),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, raw):
        originals = [PcapPacket(timestamp=ts, data=data) for ts, data in raw]
        _, packets = _roundtrip(originals)
        assert len(packets) == len(originals)
        for original, decoded in zip(originals, packets):
            assert decoded.data == original.data
            assert decoded.timestamp == pytest.approx(original.timestamp,
                                                      abs=1e-5)


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(PcapError, match="bad pcap magic"):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapError, match="truncated pcap global header"):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record_header(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(b"\x01\x02")  # partial record header
        buffer.seek(0)
        reader = PcapReader(buffer)
        with pytest.raises(PcapError, match="truncated pcap record header"):
            list(reader)

    def test_truncated_record_body(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(struct.pack("<IIII", 0, 0, 100, 100))
        buffer.write(b"short")
        buffer.seek(0)
        with pytest.raises(PcapError, match="truncated pcap record body"):
            list(PcapReader(buffer))

    def test_record_exceeding_snaplen(self):
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=64)
        buffer.write(struct.pack("<IIII", 0, 0, 1000, 1000))
        buffer.write(b"\x00" * 1000)
        buffer.seek(0)
        with pytest.raises(PcapError, match="exceeds snaplen"):
            list(PcapReader(buffer))


class TestBigEndianAndNanos:
    def test_big_endian_capture(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, LINKTYPE_ETHERNET))
        buffer.write(struct.pack(">IIII", 7, 500_000, 2, 2))
        buffer.write(b"hi")
        buffer.seek(0)
        reader = PcapReader(buffer)
        packets = list(reader)
        assert packets[0].timestamp == pytest.approx(7.5)
        assert packets[0].data == b"hi"

    def test_nanosecond_magic(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0,
                                 65535, LINKTYPE_ETHERNET))
        buffer.write(struct.pack("<IIII", 7, 500_000_000, 1, 1))
        buffer.write(b"x")
        buffer.seek(0)
        packets = list(PcapReader(buffer))
        assert packets[0].timestamp == pytest.approx(7.5)


class TestFileHelpers:
    def test_write_and_read_file(self, tmp_path):
        path = str(tmp_path / "capture.pcap")
        originals = [
            PcapPacket(timestamp=1.0, data=b"aaa"),
            PcapPacket(timestamp=2.0, data=b"bbbb"),
        ]
        count = write_pcap(path, originals)
        assert count == 2
        linktype, packets = read_pcap(path)
        assert linktype == LINKTYPE_ETHERNET
        assert [p.data for p in packets] == [b"aaa", b"bbbb"]

    def test_snaplen_truncation_on_write(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=4)
        writer.write(PcapPacket(timestamp=0.0, data=b"longdata"))
        buffer.seek(0)
        packets = list(PcapReader(buffer))
        assert packets[0].data == b"long"
        assert packets[0].orig_len == 8


class TestPcapPacketContract:
    """``PcapPacket`` is a ``NamedTuple`` since the tap stopped paying a
    frozen dataclass per packet; what callers relied on still holds."""

    def test_immutable_hashable_and_unpacks(self):
        packet = PcapPacket(1.5, b"abc", 9)
        with pytest.raises(AttributeError):
            packet.data = b"other"
        assert {packet: 1}[PcapPacket(timestamp=1.5, data=b"abc",
                                      orig_len=9)] == 1
        timestamp, data, orig_len = packet
        assert (timestamp, data, orig_len) == (1.5, b"abc", 9)
        assert packet._replace(timestamp=2.0).timestamp == 2.0

    def test_orig_len_default_means_len_of_data(self):
        packet = PcapPacket(timestamp=1.0, data=b"abcde")
        assert packet.orig_len == -1
        _, (decoded,) = _roundtrip([packet])
        assert decoded.orig_len == 5
        assert decoded == PcapPacket(1.0, b"abcde", 5)

    def test_pickle_round_trip(self):
        packets = [PcapPacket(1.0, b"a"), PcapPacket(2.5, b"bc", 1500)]
        restored = pickle.loads(pickle.dumps(packets))
        assert restored == packets
        assert all(type(p) is PcapPacket for p in restored)

    def test_file_round_trip_preserves_orig_len(self, tmp_path):
        path = str(tmp_path / "capture.pcap")
        originals = [
            PcapPacket(1.0, b"aaa"),                 # default: len(data)
            PcapPacket(2.0, b"bbbb", orig_len=1514),  # cut by a snaplen
            PcapPacket(3.0, b"", orig_len=0),
        ]
        assert write_pcap(path, iter(originals)) == 3
        _, packets = read_pcap(path)
        assert [(p.data, p.orig_len) for p in packets] == [
            (b"aaa", 3), (b"bbbb", 1514), (b"", 0)]
        assert all(type(p) is PcapPacket for p in packets)
        # Read back and written again, the records do not change.
        again = str(tmp_path / "again.pcap")
        write_pcap(again, packets)
        assert read_pcap(again)[1] == packets
