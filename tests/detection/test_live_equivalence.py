"""Differential tests: incremental live decoding == batch decoding.

The incremental :class:`LiveDecoder` (per-stream pairing state machines
over resumable HTTP parsers) must produce *identical* transactions to
the batch :func:`transactions_from_packets` pipeline on the same
capture — otherwise on-the-wire detection and offline analytics would
disagree about the same traffic.  Likewise :class:`LiveDetector` must
raise the same alerts as replaying the batch-decoded stream through the
same detector.
"""

import pytest

from repro.core.model import Headers, Trace
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDecoder, LiveDetector
from repro.net.flows import (
    AddressBook,
    _ConnectionEncoder,
    packets_from_trace,
    transactions_from_packets,
)
from repro.net.http1 import (
    RawHttpRequest,
    RawHttpResponse,
    serialize_request,
    serialize_response,
)
from repro.net.pcap import PcapPacket
from tests.conftest import make_txn


def _ordered(transactions):
    return sorted(
        transactions,
        key=lambda t: (t.timestamp, t.server, t.request.uri),
    )


def _assert_identical(live, batch):
    """Field-level identity, not just matching URI sets."""
    assert len(live) == len(batch)
    for ours, theirs in zip(_ordered(live), _ordered(batch)):
        assert ours.request == theirs.request
        assert ours.response == theirs.response


def _live_decode(packets, book):
    decoder = LiveDecoder(book=book)
    transactions = []
    for packet in packets:
        transactions.extend(decoder.feed(packet))
    transactions.extend(decoder.flush())
    return transactions


def _roundtrip(trace):
    packets, book = packets_from_trace(trace)
    packets.sort(key=lambda p: p.timestamp)
    return packets, book


class TestDecoderEquivalence:
    def test_every_corpus_trace(self, small_corpus):
        """Infection and benign captures decode identically, packet by
        packet, to the batch pipeline."""
        traces = small_corpus.infections[:8] + small_corpus.benign[:8]
        assert traces
        for trace in traces:
            packets, book = _roundtrip(trace)
            _assert_identical(
                _live_decode(packets, book),
                transactions_from_packets(packets, book=book),
            )

    def test_interleaved_infection_and_benign(self, small_corpus):
        """One merged capture with connections interleaving on the wire."""
        merged = Trace(transactions=sorted(
            small_corpus.infections[0].transactions
            + small_corpus.benign[0].transactions,
            key=lambda t: t.timestamp,
        ))
        packets, book = _roundtrip(merged)
        _assert_identical(
            _live_decode(packets, book),
            transactions_from_packets(packets, book=book),
        )

    def test_pipelined_requests(self):
        """Both requests on the wire before either response."""
        book = AddressBook()
        encoder = _ConnectionEncoder(
            book.ip_of("client"), book.ip_of("pipelined.example"), 40001
        )
        requests = [
            serialize_request(RawHttpRequest(
                "GET", f"/{n}", "HTTP/1.1",
                Headers({"Host": "pipelined.example"}), b"",
            ))
            for n in range(2)
        ]
        responses = [
            serialize_response(RawHttpResponse(
                "HTTP/1.1", 200, "OK", Headers(), f"body{n}".encode(),
            ))
            for n in range(2)
        ]
        packets = encoder.open(1.0)
        packets += encoder.send(1.1, True, requests[0] + requests[1])
        packets += encoder.send(1.2, False, responses[0] + responses[1])
        packets += encoder.close(1.3)
        live = _live_decode(packets, book)
        batch = transactions_from_packets(packets, book=book)
        _assert_identical(live, batch)
        assert [t.response.body for t in _ordered(live)] == [b"body0", b"body1"]

    def test_connection_never_closes_until_flush(self):
        """No FIN/RST ever: completed pairs still stream out, and the
        trailing unanswered request only surfaces at flush()."""
        book = AddressBook()
        encoder = _ConnectionEncoder(
            book.ip_of("client"), book.ip_of("open.example"), 40002
        )
        request = serialize_request(RawHttpRequest(
            "GET", "/answered", "HTTP/1.1",
            Headers({"Host": "open.example"}), b"",
        ))
        response = serialize_response(RawHttpResponse(
            "HTTP/1.1", 200, "OK", Headers(), b"done",
        ))
        unanswered = serialize_request(RawHttpRequest(
            "GET", "/unanswered", "HTTP/1.1",
            Headers({"Host": "open.example"}), b"",
        ))
        packets = encoder.open(1.0)
        packets += encoder.send(1.1, True, request)
        packets += encoder.send(1.2, False, response)
        packets += encoder.send(1.3, True, unanswered)

        decoder = LiveDecoder(book=book)
        streamed = []
        for packet in packets:
            streamed.extend(decoder.feed(packet))
        # The answered pair is out already; the unanswered one is held.
        assert [t.request.uri for t in streamed] == ["/answered"]
        flushed = decoder.flush()
        assert [t.request.uri for t in flushed] == ["/unanswered"]
        assert flushed[0].response is None
        _assert_identical(
            streamed + flushed,
            transactions_from_packets(packets, book=book),
        )

    def test_read_until_close_body_waits_for_teardown(self):
        """A response without Content-Length is only delimitable at
        close; the live path must emit the full body, not a prefix."""
        book = AddressBook()
        encoder = _ConnectionEncoder(
            book.ip_of("client"), book.ip_of("legacy.example"), 40003
        )
        request = serialize_request(RawHttpRequest(
            "GET", "/stream", "HTTP/1.1",
            Headers({"Host": "legacy.example"}), b"",
        ))
        packets = encoder.open(1.0)
        packets += encoder.send(1.1, True, request)
        packets += encoder.send(
            1.2, False, b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
        )
        packets += encoder.send(1.3, False, b"first half ")
        packets += encoder.send(1.4, False, b"second half")
        packets += encoder.close(1.5)
        live = _live_decode(packets, book)
        _assert_identical(live, transactions_from_packets(packets, book=book))
        assert live[0].response.body == b"first half second half"

    def test_non_http_connection_skipped_by_both(self, small_corpus):
        trace = small_corpus.benign[1]
        packets, book = _roundtrip(trace)
        noise = _ConnectionEncoder(
            book.ip_of("client"), book.ip_of("tls.example"), 40004
        )
        packets += noise.open(0.5)
        packets += noise.send(0.6, True, b"\x16\x03\x01\x02\x00" * 40)
        packets += noise.close(0.7)
        packets.sort(key=lambda p: p.timestamp)
        _assert_identical(
            _live_decode(packets, book),
            transactions_from_packets(packets, book=book),
        )


class TestDetectorEquivalence:
    def test_alert_parity_on_mixed_capture(self, trained_model, small_corpus):
        """Feeding packets one at a time alerts exactly like replaying
        the batch-decoded transaction stream."""
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        benign = small_corpus.benign[0]
        merged = Trace(transactions=sorted(
            infection.transactions + benign.transactions,
            key=lambda t: t.timestamp,
        ))
        packets, book = _roundtrip(merged)
        config = DetectorConfig(alert_threshold=0.5)

        live = LiveDetector(
            OnTheWireDetector(trained_model, config=config), book=book
        )
        live_alerts = []
        for packet in packets:
            live_alerts.extend(live.feed(packet))
        live_alerts.extend(live.finish())

        batch_detector = OnTheWireDetector(trained_model, config=config)
        batch_detector.process_batch(
            transactions_from_packets(packets, book=book)
        )
        batch_detector.finalize()
        batch_alerts = batch_detector.alerts

        assert live_alerts  # the infection fires on the wire
        assert [(a.client, a.clue, a.wcg_order) for a in live_alerts] == [
            (a.client, a.clue, a.wcg_order) for a in batch_alerts
        ]
