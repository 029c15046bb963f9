"""End-to-end flow tests: trace -> packets -> transactions round trip."""

import numpy as np
import pytest

from repro.core.model import HttpMethod, Trace
from repro.net.flows import (
    AddressBook,
    packets_from_trace,
    transactions_from_packets,
)
from repro.synthesis.benign import BenignGenerator
from repro.synthesis.families import family_by_name
from repro.synthesis.infection import InfectionGenerator
from tests.conftest import make_txn


class TestAddressBook:
    def test_stable_mapping(self):
        book_a, book_b = AddressBook(), AddressBook()
        assert book_a.ip_of("example.com") == book_b.ip_of("example.com")

    def test_reverse_lookup(self):
        book = AddressBook()
        ip = book.ip_of("host.net")
        assert book.host_of(ip) == "host.net"

    def test_unknown_ip_passthrough(self):
        assert AddressBook().host_of("9.9.9.9") == "9.9.9.9"

    def test_distinct_hosts_distinct_ips(self):
        book = AddressBook()
        ips = {book.ip_of(f"host-{i}.com") for i in range(200)}
        assert len(ips) == 200


class TestRoundTrip:
    def test_single_transaction(self):
        trace = Trace(transactions=[
            make_txn(host="server.com", uri="/page",
                     body=b"<html>x</html>"),
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert len(recovered) == 1
        assert recovered[0].server == "server.com"
        assert recovered[0].request.uri == "/page"
        assert recovered[0].status == 200

    def test_multiple_hosts_multiple_connections(self):
        trace = Trace(transactions=[
            make_txn(host="a.com", ts=1.0),
            make_txn(host="b.com", ts=2.0),
            make_txn(host="a.com", uri="/2", ts=3.0),
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert len(recovered) == 3
        assert {t.server for t in recovered} == {"a.com", "b.com"}

    def test_persistent_connection_order(self):
        trace = Trace(transactions=[
            make_txn(host="a.com", uri=f"/{i}", ts=float(i))
            for i in range(1, 6)
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert [t.request.uri for t in recovered] == [
            "/1", "/2", "/3", "/4", "/5"
        ]

    def test_post_and_status_preserved(self):
        trace = Trace(transactions=[
            make_txn(host="cnc.xyz", uri="/gate.php", method=HttpMethod.POST,
                     status=404, body=b"nope"),
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert recovered[0].request.method is HttpMethod.POST
        assert recovered[0].status == 404

    def test_unanswered_request_survives(self):
        txn = make_txn(host="dead.ru")
        txn.response = None
        packets, book = packets_from_trace(Trace(transactions=[txn]))
        recovered = transactions_from_packets(packets, book=book)
        assert len(recovered) == 1
        assert recovered[0].response is None

    def test_headers_preserved(self):
        trace = Trace(transactions=[
            make_txn(referrer="http://google.com/q",
                     extra_req_headers={"X-Flash-Version": "11"}),
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert recovered[0].request.referrer == "http://google.com/q"
        assert recovered[0].request.headers.get("X-Flash-Version") == "11"

    def test_trace_from_packets_convenience(self):
        trace = Trace(transactions=[make_txn()])
        packets, book = packets_from_trace(trace)
        rebuilt = Trace(
            transactions=transactions_from_packets(packets, book=book))
        assert len(rebuilt) == 1

    def test_payload_type_survives_roundtrip(self):
        trace = Trace(transactions=[
            make_txn(host="ek.pw", uri="/drop.jar",
                     content_type="application/java-archive",
                     body=b"PK\x03\x04fakejar"),
        ])
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert recovered[0].payload_type.value == "jar"


class TestSyntheticEpisodeRoundTrip:
    def test_infection_episode_roundtrip(self):
        rng = np.random.default_rng(3)
        generator = InfectionGenerator(family_by_name("RIG"), rng)
        trace = generator.generate()
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert len(recovered) == len(trace.transactions)
        assert {t.server for t in recovered} == {
            t.server for t in trace.transactions
        }

    def test_benign_episode_roundtrip(self):
        generator = BenignGenerator(np.random.default_rng(4))
        trace = generator.generate()
        packets, book = packets_from_trace(trace)
        recovered = transactions_from_packets(packets, book=book)
        assert len(recovered) == len(trace.transactions)

    def test_timestamps_monotonic_per_connection(self):
        generator = BenignGenerator(np.random.default_rng(5))
        trace = generator.generate()
        packets, _ = packets_from_trace(trace)
        stamps = [p.timestamp for p in packets]
        assert stamps == sorted(stamps)


class TestOrphanResponseDraining:
    """Regression: every orphan in a batch is drained and counted —
    the pairer used to stop at the first one, silently discarding the
    rest and undercounting ``http.orphan_responses``."""

    @staticmethod
    def _orphan_capture(responses: int, with_request: bool = False):
        from repro.loadgen import RawConnection

        conn = RawConnection("172.31.0.1", 50000, "198.51.100.1")
        packets = conn.open(1.0)
        ts = 1.1
        if with_request:
            packets.extend(conn.send(
                ts, True, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
            ))
            ts += 0.1
        body = b"unsolicited"
        wire = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body))
        for _ in range(responses):
            packets.extend(conn.send(ts, False, wire))
            ts += 0.1
        packets.extend(conn.close(ts))
        return packets

    def _decode_counting(self, packets):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            recovered = transactions_from_packets(packets)
        return recovered, registry.snapshot()["counters"]

    def test_every_orphan_counted(self):
        packets = self._orphan_capture(responses=3)
        recovered, counters = self._decode_counting(packets)
        assert recovered == []
        assert counters["http.orphan_responses"] == 3

    def test_orphans_after_paired_response(self):
        packets = self._orphan_capture(responses=3, with_request=True)
        recovered, counters = self._decode_counting(packets)
        assert len(recovered) == 1  # the request pairs with response #1
        assert recovered[0].status == 200
        assert counters["http.orphan_responses"] == 2


class TestHostFolding:
    """Regression (evasion): the request host kept the ``Host:`` header's
    case while referrer hosts, redirect targets and the whitelist are
    lower-case, so ``Host: Evil.Example`` followed by ``Referer:
    http://Evil.Example/x`` left no referrer hop and split the watch."""

    @staticmethod
    def _two_hops(host: str):
        from repro.loadgen import RawConnection

        packets = []
        wires = [
            (b"GET /landing HTTP/1.1\r\nHost: %s\r\n\r\n" % host.encode()),
            (b"GET /x HTTP/1.1\r\nHost: next.example\r\n"
             b"Referer: http://%s/landing\r\n\r\n" % host.encode()),
        ]
        for index, wire in enumerate(wires):
            conn = RawConnection("172.31.0.9", 50100 + index,
                                 f"198.51.100.{20 + index}")
            start = 10.0 + index
            packets.extend(conn.open(start))
            packets.extend(conn.send(start + 0.1, True, wire))
            packets.extend(conn.send(
                start + 0.2, False,
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
            packets.extend(conn.close(start + 0.3))
        return transactions_from_packets(packets)

    @pytest.mark.parametrize("host", ["evil.example", "Evil.Example",
                                      "EVIL.EXAMPLE:8080"])
    def test_referrer_redirect_survives_host_case(self, host):
        from repro.core.redirects import RedirectInferencer, RedirectKind

        first, second = self._two_hops(host)
        assert first.server == "evil.example"
        inferencer = RedirectInferencer()
        assert inferencer.observe(first) == []
        (hop,) = inferencer.observe(second)
        assert (hop.source, hop.target, hop.kind) == (
            "evil.example", "next.example", RedirectKind.REFERRER)

    def test_watch_clusters_on_the_referrer_whatever_its_case(self):
        from repro.detection.monitor import SessionTable

        table = SessionTable()
        first, second = self._two_hops("Evil.Example")
        watch = table.route(first, first.timestamp)
        assert watch.matches(second, "", table.idle_gap)
        assert table.route(second, second.timestamp) is watch
        assert watch.hosts == {"evil.example", "next.example"}

    @pytest.mark.parametrize("header, host", [
        ("[2001:DB8::1]:8080", "[2001:db8::1]"),
        ("[::1]", "[::1]"),
        ("Example.COM:80", "example.com"),
    ])
    def test_port_is_split_off_a_bracketed_ipv6_literal(self, header, host):
        first, second = self._two_hops(header)
        assert first.server == host
        assert second.request.referrer_host == host
