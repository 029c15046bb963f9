"""Tests for the live packet-level deployment path."""

import pytest

from repro.core.model import Trace
from repro.detection.alerts import AlertSink
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDecoder, LiveDetector
from repro.net.flows import packets_from_trace, transactions_from_packets
from tests.conftest import make_txn


def _capture(trace):
    return packets_from_trace(trace)


class TestLiveDecoder:
    def test_matches_batch_decode(self, small_corpus):
        trace = small_corpus.infections[0]
        packets, book = _capture(trace)
        batch = transactions_from_packets(packets, book=book)

        decoder = LiveDecoder(book=book)
        live = []
        for packet in packets:
            live.extend(decoder.feed(packet))
        live.extend(decoder.flush())

        assert len(live) == len(batch)
        assert {t.request.uri for t in live} == {
            t.request.uri for t in batch
        }

    def test_transaction_emitted_on_response_completion(self):
        trace = Trace(transactions=[make_txn(host="a.com", body=b"x" * 10)])
        packets, book = _capture(trace)
        decoder = LiveDecoder(book=book)
        seen = []
        emitted_at = None
        for index, packet in enumerate(packets):
            got = decoder.feed(packet)
            seen.extend(got)
            if got and emitted_at is None:
                emitted_at = index
        assert len(seen) == 1
        # Emission happens before the capture's final teardown packet.
        assert emitted_at < len(packets) - 1

    def test_unanswered_request_flushes_on_close(self):
        # The server never answers; the connection teardown (or, absent
        # one, the end-of-capture flush) must still surface the request.
        txn = make_txn(host="dead.ru")
        txn.response = None
        packets, book = _capture(Trace(transactions=[txn]))
        decoder = LiveDecoder(book=book)
        emitted = []
        for packet in packets:
            emitted.extend(decoder.feed(packet))
        emitted.extend(decoder.flush())
        assert len(emitted) == 1
        assert emitted[0].response is None

    def test_no_duplicate_emission(self, small_corpus):
        trace = small_corpus.benign[0]
        packets, book = _capture(trace)
        decoder = LiveDecoder(book=book)
        live = []
        for packet in packets:
            live.extend(decoder.feed(packet))
        live.extend(decoder.flush())
        uris = [(t.request.uri, t.timestamp) for t in live]
        assert len(uris) == len(set(uris))

    def test_interleaved_connections(self):
        trace = Trace(transactions=[
            make_txn(host="a.com", uri="/1", ts=1.0),
            make_txn(host="b.com", uri="/2", ts=1.5),
            make_txn(host="a.com", uri="/3", ts=2.0),
        ])
        packets, book = _capture(trace)
        packets.sort(key=lambda p: p.timestamp)
        decoder = LiveDecoder(book=book)
        live = []
        for packet in packets:
            live.extend(decoder.feed(packet))
        live.extend(decoder.flush())
        assert {t.request.uri for t in live} == {"/1", "/2", "/3"}


class TestLiveDetector:
    def test_alerts_on_infection_capture(self, trained_model, small_corpus):
        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        packets, book = _capture(infection)
        live = LiveDetector(
            OnTheWireDetector(trained_model,
                              config=DetectorConfig(alert_threshold=0.5)),
            book=book,
        )
        alerts = []
        for packet in packets:
            alerts.extend(live.feed(packet))
        alerts.extend(live.finish())
        assert alerts
        assert live.transactions_emitted == len(infection.transactions)

    def test_custom_sink_survives_end_of_capture(self, trained_model,
                                                 small_corpus):
        # finish() used to read ``detector.alerts`` — ListSink only — so
        # a tap wired to a real pager raised DetectionError at the end
        # of the capture.
        class PagerSink(AlertSink):
            def __init__(self):
                self.paged = []

            def emit(self, alert):
                self.paged.append(alert)

        infection = next(
            t for t in small_corpus.infections if not t.meta.get("stealth")
        )
        packets, book = _capture(infection)
        sink = PagerSink()
        live = LiveDetector(
            OnTheWireDetector(trained_model, sink=sink,
                              config=DetectorConfig(alert_threshold=0.5)),
            book=book,
        )
        returned = [alert for packet in packets
                    for alert in live.feed(packet)]
        returned += live.finish()
        assert returned and returned == sink.paged

    def test_clean_on_benign_capture(self, trained_model, small_corpus):
        benign = next(
            t for t in small_corpus.benign
            if t.meta.get("scenario") in ("search", "alexa")
        )
        packets, book = _capture(benign)
        live = LiveDetector(OnTheWireDetector(trained_model), book=book)
        alerts = []
        for packet in packets:
            alerts.extend(live.feed(packet))
        alerts.extend(live.finish())
        assert alerts == []
