"""Unit tests for the Ethernet/IPv4/TCP codecs."""

import pytest

from repro.exceptions import PcapError
from repro.net.packets import (
    ACK,
    ETHERTYPE_IPV4,
    FIN,
    IPPROTO_TCP,
    PSH,
    RST,
    SYN,
    decode_ethernet,
    decode_ipv4,
    decode_tcp,
    encode_tcp_in_ipv4_ethernet,
    ipv4_checksum,
)


class TestChecksum:
    def test_known_value(self):
        # RFC 1071 example-style check: checksum of a buffer, when the
        # checksum field holds it, verifies to zero.
        data = b"\x45\x00\x00\x3c\x1c\x46\x40\x00\x40\x06" \
               b"\x00\x00\xac\x10\x0a\x63\xac\x10\x0a\x0c"
        checksum = ipv4_checksum(data)
        patched = data[:10] + checksum.to_bytes(2, "big") + data[12:]
        assert ipv4_checksum(patched) == 0

    def test_odd_length_padding(self):
        assert isinstance(ipv4_checksum(b"\x01\x02\x03"), int)

    def test_empty(self):
        assert ipv4_checksum(b"") == 0xFFFF


class TestEncodeDecode:
    def _frame(self, payload=b"hello", flags=PSH | ACK):
        return encode_tcp_in_ipv4_ethernet(
            "10.0.0.1", "10.0.0.2", 40000, 80, 1000, 2000, flags, payload,
        )

    def test_ethernet_layer(self):
        frame = decode_ethernet(self._frame())
        assert frame.ethertype == ETHERTYPE_IPV4
        assert len(frame.payload) > 0

    def test_ipv4_layer(self):
        ip = decode_ipv4(decode_ethernet(self._frame()).payload)
        assert ip.src == "10.0.0.1"
        assert ip.dst == "10.0.0.2"
        assert ip.protocol == IPPROTO_TCP

    def test_ipv4_checksum_valid(self):
        raw = decode_ethernet(self._frame()).payload
        assert ipv4_checksum(raw[:20]) == 0

    def test_tcp_layer(self):
        ip = decode_ipv4(decode_ethernet(self._frame()).payload)
        segment = decode_tcp(ip.payload)
        assert segment.src_port == 40000
        assert segment.dst_port == 80
        assert segment.seq == 1000
        assert segment.ack == 2000
        assert segment.payload == b"hello"

    def test_flags(self):
        for flags in (SYN, FIN, RST, ACK, SYN | ACK):
            ip = decode_ipv4(
                decode_ethernet(self._frame(b"", flags)).payload
            )
            assert decode_tcp(ip.payload).flags == flags

    def test_empty_payload(self):
        ip = decode_ipv4(decode_ethernet(self._frame(b"")).payload)
        assert decode_tcp(ip.payload).payload == b""

    def test_large_payload(self):
        payload = bytes(range(256)) * 5
        ip = decode_ipv4(decode_ethernet(self._frame(payload)).payload)
        assert decode_tcp(ip.payload).payload == payload

    def test_seq_wraparound_encoding(self):
        frame = encode_tcp_in_ipv4_ethernet(
            "1.1.1.1", "2.2.2.2", 1, 2, 2**32 + 5, 7, ACK,
        )
        segment = decode_tcp(decode_ipv4(decode_ethernet(frame).payload).payload)
        assert segment.seq == 5


class TestMalformed:
    def test_truncated_ethernet(self):
        with pytest.raises(PcapError, match="truncated Ethernet"):
            decode_ethernet(b"\x00" * 5)

    def test_truncated_ipv4(self):
        with pytest.raises(PcapError, match="truncated IPv4"):
            decode_ipv4(b"\x45\x00")

    def test_wrong_ip_version(self):
        data = bytearray(20)
        data[0] = (6 << 4) | 5  # IPv6 version nibble
        with pytest.raises(PcapError, match="not IPv4"):
            decode_ipv4(bytes(data))

    def test_bad_ihl(self):
        data = bytearray(20)
        data[0] = (4 << 4) | 2  # IHL=8 bytes < 20
        with pytest.raises(PcapError, match="bad IPv4 IHL"):
            decode_ipv4(bytes(data))

    def test_fragment_surfaced_with_flags(self):
        data = bytearray(20)
        data[0] = (4 << 4) | 5
        data[6] = 0x20  # more-fragments flag
        packet = decode_ipv4(bytes(data))
        assert packet.more_fragments
        assert packet.is_fragment

    def test_truncated_tcp(self):
        with pytest.raises(PcapError, match="truncated TCP"):
            decode_tcp(b"\x00" * 10)

    def test_bad_tcp_offset(self):
        data = bytearray(20)
        data[12] = 2 << 4  # offset 8 bytes < 20
        with pytest.raises(PcapError, match="bad TCP data offset"):
            decode_tcp(bytes(data))

    def test_bad_ip_address_string(self):
        with pytest.raises(PcapError, match="bad IPv4 address"):
            encode_tcp_in_ipv4_ethernet("nope", "1.2.3.4", 1, 2, 0, 0, ACK)
        with pytest.raises(PcapError, match="bad IPv4 address"):
            encode_tcp_in_ipv4_ethernet("1.2.3.999", "1.2.3.4", 1, 2, 0, 0,
                                        ACK)
