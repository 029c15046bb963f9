"""Connection-lifecycle regressions: the tap must run forever.

Before this suite existed, two lifecycle bugs made a long-running tap
strangle itself:

* closed streams (and the pairer state hanging off them) were never
  evicted from ``TcpReassembler._streams``, so the ``max_connections``
  overload cap filled with *dead* connections — after cap-many total
  connections, every new flow was shed forever as ``decode.dropped``;
* any SYN on an *established* stream overwrote ``next_seq`` and
  reassigned ``stream.client``, so one forged packet desynchronized
  reassembly for the rest of the connection.

Each test here fails against the old behaviour.
"""

from repro.detection.live import LiveDecoder, OverloadPolicy
from repro.loadgen.episodes import (
    HostAllocator,
    RawConnection,
    _http_get,
    _http_response,
)
from repro.net.flows import transactions_from_packets
from repro.net.packets import SYN, encode_tcp_in_ipv4_ethernet
from repro.net.pcap import PcapPacket
from repro.obs import MetricsRegistry, use_registry


def _conversation(conn: RawConnection, ts: float, uri: str = "/page",
                  body: bytes = b"<html>ok</html>") -> list[PcapPacket]:
    """Handshake, one GET/200 exchange, graceful close."""
    packets = conn.open(ts)
    packets += conn.send(ts + 0.01, True,
                         _http_get(conn.server_ip, uri, "test-agent"))
    packets += conn.send(ts + 0.02, False, _http_response(200, body))
    packets += conn.close(ts + 0.03)
    return packets


def _decode_all(decoder: LiveDecoder, packets) -> list:
    transactions = []
    for packet in packets:
        transactions.extend(decoder.feed(packet))
    transactions.extend(decoder.flush())
    return transactions


class TestLongRunLifecycle:
    def test_sequential_connections_past_cap_all_decode(self):
        """Open/close far more connections than ``max_connections``:
        every one must decode, none may be shed, and per-connection
        state must stay bounded by the linger window, not by the total
        connection count."""
        cap = 32
        total = 200
        registry = MetricsRegistry()
        with use_registry(registry):
            decoder = LiveDecoder(policy=OverloadPolicy(
                max_connections=cap, closed_linger=5.0,
            ))
            hosts = HostAllocator()
            transactions = []
            for i in range(total):
                ip, port = hosts.client()
                conn = RawConnection(ip, port, hosts.server())
                for packet in _conversation(conn, ts=float(i)):
                    transactions.extend(decoder.feed(packet))
            transactions.extend(decoder.flush())
        counters = registry.snapshot()["counters"]
        assert len(transactions) == total
        assert counters["decode.dropped"] == 0
        assert counters["decode.evicted_connections"] > total - cap
        # Bounded state: only connections inside the linger window
        # (plus the final few never swept) remain tracked.
        # The connection table is the only per-connection state: the
        # pairer rides on its stream and goes with it.
        assert len(decoder._reassembler) <= cap

    def test_infinite_linger_retains_all_state(self):
        """Contrast case: with eviction disabled (infinite linger) the
        same run keeps every dead connection's state — the leak the
        linger sweep exists to stop.  Decoding still works (the cap now
        counts live connections), but memory grows with *total*
        connections instead of concurrent ones."""
        total = 64
        decoder = LiveDecoder(policy=OverloadPolicy(
            max_connections=32, closed_linger=float("inf"),
        ))
        hosts = HostAllocator()
        transactions = []
        for i in range(total):
            ip, port = hosts.client()
            conn = RawConnection(ip, port, hosts.server())
            for packet in _conversation(conn, ts=float(i)):
                transactions.extend(decoder.feed(packet))
        transactions.extend(decoder.flush())
        assert len(transactions) == total
        assert len(decoder._reassembler) == total
        assert all(stream.consumer is not None
                   for stream in decoder._reassembler.streams())

    def test_live_connections_never_evicted(self):
        """The cap sheds *new* flows (counted as ``decode.dropped``);
        established ones keep decoding."""
        registry = MetricsRegistry()
        with use_registry(registry):
            decoder = LiveDecoder(policy=OverloadPolicy(
                max_connections=1, closed_linger=1.0,
            ))
        hosts = HostAllocator()
        ip_a, port_a = hosts.client()
        ip_b, port_b = hosts.client()
        server = hosts.server()
        held = RawConnection(ip_a, port_a, server)
        shed = RawConnection(ip_b, port_b, server)
        transactions = []
        for packet in held.open(0.0):
            transactions.extend(decoder.feed(packet))
        for packet in shed.open(0.1):  # over cap: dropped
            transactions.extend(decoder.feed(packet))
        for packet in held.send(0.2, True,
                                _http_get(server, "/kept", "agent")):
            transactions.extend(decoder.feed(packet))
        for packet in held.send(0.3, False, _http_response(200, b"ok")):
            transactions.extend(decoder.feed(packet))
        for packet in held.close(0.4):
            transactions.extend(decoder.feed(packet))
        transactions.extend(decoder.flush())
        assert [t.request.uri for t in transactions] == ["/kept"]
        assert registry.snapshot()["counters"]["decode.dropped"] > 0


class TestSpoofedSyn:
    def _established(self):
        hosts = HostAllocator()
        ip, port = hosts.client()
        conn = RawConnection(ip, port, hosts.server())
        return conn

    def _forged_syn(self, conn: RawConnection, ts: float,
                    from_client: bool, isn: int) -> PcapPacket:
        if from_client:
            src_ip, src_port = conn.client_ip, conn.client_port
            dst_ip, dst_port = conn.server_ip, conn.server_port
        else:
            src_ip, src_port = conn.server_ip, conn.server_port
            dst_ip, dst_port = conn.client_ip, conn.client_port
        return PcapPacket(ts, encode_tcp_in_ipv4_ethernet(
            src_ip, dst_ip, src_port, dst_port, isn, 0, SYN,
        ))

    def test_forged_client_syn_does_not_desync(self):
        """A spoofed SYN claiming the client's endpoint mid-connection
        must not reset ``next_seq`` (which would discard the genuine
        in-flight response bytes as retransmissions)."""
        conn = self._established()
        decoder = LiveDecoder()
        packets = conn.open(0.0)
        packets += conn.send(0.01, True,
                             _http_get(conn.server_ip, "/real", "agent"))
        packets.append(self._forged_syn(conn, 0.015, from_client=True,
                                        isn=999_999_999))
        packets += conn.send(0.02, False, _http_response(200, b"payload"))
        packets += conn.close(0.03)
        transactions = _decode_all(decoder, packets)
        assert [t.request.uri for t in transactions] == ["/real"]
        assert transactions[0].response is not None
        assert transactions[0].response.body == b"payload"

    def test_forged_server_syn_keeps_client_designation(self):
        """A spoofed pure SYN from the *server* endpoint used to flip
        ``stream.client`` to the server, inverting who the detector
        blames.  The designation must stick once established."""
        conn = self._established()
        decoder = LiveDecoder()
        packets = conn.open(0.0)
        packets += conn.send(0.01, True,
                             _http_get(conn.server_ip, "/whoami", "agent"))
        packets.append(self._forged_syn(conn, 0.015, from_client=False,
                                        isn=31_337))
        packets += conn.send(0.02, False, _http_response(200, b"ok"))
        packets += conn.close(0.03)
        transactions = _decode_all(decoder, packets)
        assert len(transactions) == 1
        assert transactions[0].client == conn.client_ip

    def test_forged_syn_live_equals_batch(self):
        """Both pipelines shrug the forged SYN off identically."""
        conn = self._established()
        packets = conn.open(0.0)
        packets += conn.send(0.01, True,
                             _http_get(conn.server_ip, "/x", "agent"))
        packets.append(self._forged_syn(conn, 0.015, from_client=True,
                                        isn=123_456))
        packets += conn.send(0.02, False, _http_response(200, b"same"))
        packets += conn.close(0.03)
        live = _decode_all(LiveDecoder(), packets)
        batch = transactions_from_packets(packets)
        assert len(live) == len(batch) == 1
        assert live[0].request == batch[0].request
        assert live[0].response == batch[0].response


class TestTupleReuse:
    def test_fresh_syn_on_closed_tuple_starts_new_conversation(self):
        """TIME_WAIT-style reuse: a fresh handshake on a just-closed
        4-tuple is a *new* connection, in live and batch alike."""
        hosts = HostAllocator()
        ip, port = hosts.client()
        server = hosts.server()
        first = RawConnection(ip, port, server)
        second = RawConnection(ip, port, server)
        second.client_isn = 7_000_000
        second.server_isn = 9_000_000
        packets = _conversation(first, 0.0, uri="/first")
        packets += _conversation(second, 1.0, uri="/second")
        live = _decode_all(LiveDecoder(), packets)
        batch = transactions_from_packets(packets)
        assert sorted(t.request.uri for t in live) == ["/first", "/second"]
        assert len(batch) == len(live)
        for ours, theirs in zip(
            sorted(live, key=lambda t: t.timestamp),
            sorted(batch, key=lambda t: t.timestamp),
        ):
            assert ours.request == theirs.request
            assert ours.response == theirs.response
