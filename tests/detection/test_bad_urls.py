"""Regression: a URL ``urlsplit`` rejects is a counter, not a crash.

``http://[::1/x`` (an IPv6 bracket left open) raised ``ValueError``
out of ``process_batch`` from four edges — ``Referer:``, ``Location:``,
a content-redirect URL and the request URI itself — so one header from
the monitored network aborted the packet's whole batch, for every
client in it.  Each now reads as "no host, all path" and is counted
once in ``http.bad_urls`` (DESIGN §12).
"""

import pytest

from repro.core.model import Trace
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDetector
from repro.net.flows import packets_from_trace
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import make_txn
from tests.detection.test_bounded_state import _infection_burst

_BAD_URL = "http://[::1/x"

#: The four minimised inputs, by the edge that used to raise.
_CASES = {
    "referer": dict(referrer=_BAD_URL),
    "location": dict(status=302, content_type="",
                     extra_res_headers={"Location": _BAD_URL}),
    "content": dict(body=b'<meta http-equiv="refresh" content="0; url='
                         + _BAD_URL.encode() + b'">'),
    "request-uri": dict(uri="//[::1/x"),
}


@pytest.fixture(params=sorted(_CASES))
def hostile(request):
    return make_txn(host="edge.example", ts=5.0, client="attacker",
                    **_CASES[request.param])


def _bad_urls(registry):
    return registry.snapshot()["counters"].get("http.bad_urls", 0)


def test_the_rest_of_the_batch_is_still_routed_and_scored(trained_model,
                                                          hostile):
    registry = MetricsRegistry()
    with use_registry(registry):
        detector = OnTheWireDetector(
            trained_model, config=DetectorConfig(alert_threshold=0.2))
        batch = [hostile] + _infection_burst("one", 10.0, "bystander")
        alerts = detector.process_batch(batch)
        alerts += detector.finalize()
    assert [alert.client for alert in alerts] == ["bystander"]
    assert detector.transactions_seen == len(batch)
    assert _bad_urls(registry) == 1


def test_as_bytes_through_the_live_tap(trained_model, hostile):
    bystander = make_txn(host="ok.example", ts=6.0, client="bystander")
    packets, book = packets_from_trace(
        Trace(transactions=[hostile, bystander]))
    registry = MetricsRegistry()
    with use_registry(registry):
        live = LiveDetector(OnTheWireDetector(trained_model), book=book)
        for packet in packets:
            live.feed(packet)
        live.finish()
    assert live.transactions_emitted == 2
    assert live.detector.watch_count() == 2
    assert _bad_urls(registry) == 1


def test_a_host_that_cannot_base_a_url_does_not_raise(trained_model):
    # ``urljoin`` parses its base too: ``Host: [`` under a 302.
    txn = make_txn(host="[", status=302, content_type="",
                   extra_res_headers={"Location": "/next"})
    assert OnTheWireDetector(trained_model).process_batch([txn]) == []
