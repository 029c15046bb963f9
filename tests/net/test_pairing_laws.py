"""Pairing conservation laws, live and batch, on clean and hostile wires.

After ``finish`` / ``flush`` the ``http.*`` counters balance: every
request became a transaction, answered or flushed unanswered, and every
response was paired or counted an orphan.  A stream that turns out not
to be HTTP balances too: what was framed before its rejected bytes
pairs as usual, and the requests still queued flush unanswered.  The
sharded fleet's merged counters are checked in
``tests/service/test_fleet_counters.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.live import LiveDecoder
from repro.loadgen import HOSTILE, MIXED, LoadGenerator, RawConnection
from repro.net.flows import transactions_from_packets
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import pairing_violations

#: A TLS-ish record that holds a header-block terminator, so the
#: response parser rejects its "status line".
TLS = b"\x16\x03\x01\x02\x00" + bytes(range(1, 200)) + b"\r\n\r\n" + b"\x17" * 100

#: The conversation, in wire order: an answered ``GET /ok``, then a
#: second request the server answers with :data:`TLS`.
CONVERSATION = (
    (True, b"GET /ok HTTP/1.1\r\nHost: a.example\r\n\r\n"),
    (False, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
    (True, b"GET /second HTTP/1.1\r\nHost: a.example\r\n\r\n"),
    (False, TLS),
)


def _turning_non_http(cuts: list[list[int]]) -> list:
    """:data:`CONVERSATION` with each message split at its ``cuts``."""
    conn = RawConnection("172.31.0.9", 50009, "198.51.100.9")
    packets = conn.open(1.0)
    offsets = {True: 0, False: 0}
    ts = 1.1
    for (from_client, wire), message_cuts in zip(CONVERSATION, cuts):
        edges = sorted({cut % len(wire) for cut in message_cuts} - {0})
        for start, end in zip([0] + edges, edges + [len(wire)]):
            packets.append(conn.segment(ts, from_client, wire[start:end],
                                        offsets[from_client] + start))
            ts += 0.01
        offsets[from_client] += len(wire)
    return packets + conn.close(ts)


def _live(packets) -> tuple[list, dict]:
    registry = MetricsRegistry()
    with use_registry(registry):
        decoder = LiveDecoder()
        transactions = [t for p in packets for t in decoder.feed(p)]
        transactions += decoder.flush()
    return transactions, registry.snapshot()["counters"]


def _batch(packets) -> tuple[list, dict]:
    registry = MetricsRegistry()
    with use_registry(registry):
        transactions = transactions_from_packets(packets)
    return transactions, registry.snapshot()["counters"]


def _view(transactions) -> list[tuple]:
    return [(t.request.uri, t.response.status if t.response else None)
            for t in transactions]


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.lists(st.integers(0, 10**4), max_size=4),
                     min_size=4, max_size=4))
def test_a_stream_turning_non_http_keeps_its_prefix_live_and_batch(cuts):
    packets = _turning_non_http(cuts)
    live, live_counters = _live(packets)
    batch, batch_counters = _batch(packets)
    assert _view(live) == _view(batch) == [("/ok", 200), ("/second", None)]
    assert [(t.request, t.response) for t in live] == [
        (t.request, t.response) for t in batch]
    assert live_counters["decode.non_http_streams"] == 1
    assert live_counters["http.unanswered_flushed"] == 1
    assert pairing_violations(live_counters) == []
    assert pairing_violations(batch_counters) == []


#: Client-side rejections: a response delimited before the client's
#: non-HTTP bytes pairs, and so does a 2xx answer to ``CONNECT``, which
#: has no body and ends HTTP on the stream.
CLIENT_TURNS = {
    "answered-then-tls": ([
        (True, b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"),
        (False, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
        (True, TLS)], [("/a", 200)]),
    "connect-tunnel": ([
        (True, b"CONNECT x:443 HTTP/1.1\r\nHost: x\r\n\r\n"),
        (False, b"HTTP/1.1 200 Connection established\r\n\r\n"),
        (True, TLS),
        (False, b"\x16\x03\x03" * 50)], [("x:443", 200)]),
}


@pytest.mark.parametrize("name", sorted(CLIENT_TURNS))
def test_a_client_turning_non_http_decodes_alike(name):
    conversation, expected = CLIENT_TURNS[name]
    conn = RawConnection("172.31.0.9", 50009, "198.51.100.9")
    packets = conn.open(1.0)
    for at, (from_client, wire) in enumerate(conversation):
        packets += conn.send(1.1 + at / 10, from_client, wire)
    packets += conn.close(2.0)
    live, live_counters = _live(packets)
    batch, batch_counters = _batch(packets)
    assert _view(live) == _view(batch) == expected
    assert pairing_violations(live_counters) == []
    assert pairing_violations(batch_counters) == []


def test_a_tunnel_keeps_at_most_one_segment_live_and_batch():
    """A 2xx answer to ``CONNECT`` has no body (RFC 9110 §9.3.6): it
    pairs, and the 2 000 tunnelled 1 400 B segments after it are not
    HTTP, so no message carries them and the live tap keeps none."""
    conn = RawConnection("172.31.0.9", 50009, "198.51.100.9")
    packets = conn.open(1.0)
    packets += conn.send(1.1, True,
                         b"CONNECT x:443 HTTP/1.1\r\nHost: x\r\n\r\n")
    packets += conn.send(1.2, False,
                         b"HTTP/1.1 200 Connection established\r\n\r\n")
    packets += conn.send(1.3, False, b"\x17" * 1400 * 2000)
    packets += conn.close(2.0)
    held = marks = 0
    with use_registry(MetricsRegistry()) as registry:
        decoder = LiveDecoder()
        live = []
        for packet in packets:
            live += decoder.feed(packet)
            for stream in decoder._reassembler.streams():
                held = max(held, sum(
                    len(d.data) for d in stream.directions.values()))
                marks = max(marks, *(len(d.marks)
                                     for d in stream.directions.values()))
        live += decoder.flush()
    live_counters = registry.snapshot()["counters"]
    batch, batch_counters = _batch(packets)
    assert _view(live) == _view(batch) == [("x:443", 200)]
    assert [(t.request, t.response) for t in live] == [
        (t.request, t.response) for t in batch]
    assert batch[0].response.body == b""
    assert held <= 1400 and marks <= 2
    assert live_counters["decode.non_http_streams"] == 1
    assert pairing_violations(live_counters) == []
    assert pairing_violations(batch_counters) == []


@pytest.mark.parametrize("mix, seed, count", [(MIXED, 61, 6000),
                                              (HOSTILE, 67, 5000)],
                         ids=["mixed", "hostile"])
def test_the_laws_hold_live_and_batch(mix, seed, count):
    generator = LoadGenerator(seed=seed, mix=mix, concurrency=6)
    packets = generator.capture(count)
    _, live = _live(packets)
    _, batch = _batch(packets)
    assert live["http.transactions"] > 0
    assert pairing_violations(live) == []
    assert pairing_violations(batch) == []


def test_a_broken_counter_is_named():
    counters = {"http.requests": 3, "http.transactions": 3,
                "http.responses": 3, "http.unanswered_flushed": 1,
                "http.orphan_responses": 0}
    assert pairing_violations(counters) == [
        "responses == transactions - unanswered_flushed + orphan_responses"]
