"""Shared fixtures: small corpora and a trained classifier.

Expensive artifacts are session-scoped so the suite builds them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import (
    Headers,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    Trace,
    TraceLabel,
)
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.monitor import SessionTable, SessionWatch
from repro.features.extractor import extract_matrix
from repro.learning.forest import EnsembleRandomForest
from repro.service.sharding import PacketRouter
from repro.synthesis.corpus import ground_truth_corpus


def make_txn(
    host: str = "example.com",
    uri: str = "/index.html",
    ts: float = 100.0,
    client: str = "victim",
    method: HttpMethod = HttpMethod.GET,
    status: int = 200,
    content_type: str = "text/html",
    body: bytes = b"",
    referrer: str = "",
    size: int | None = None,
    res_delay: float = 0.1,
    extra_req_headers: dict[str, str] | None = None,
    extra_res_headers: dict[str, str] | None = None,
) -> HttpTransaction:
    """Construct one HTTP transaction with sensible defaults."""
    req_headers = Headers({"Host": host, "User-Agent": "test-agent"})
    if referrer:
        req_headers.set("Referer", referrer)
    for name, value in (extra_req_headers or {}).items():
        req_headers.set(name, value)
    request = HttpRequest(
        method=method, uri=uri, host=host, client=client,
        timestamp=ts, headers=req_headers,
    )
    res_headers = Headers()
    if content_type:
        res_headers.set("Content-Type", content_type)
    res_headers.set("Content-Length", str(size if size is not None else len(body)))
    for name, value in (extra_res_headers or {}).items():
        res_headers.set(name, value)
    response = HttpResponse(
        status=status, timestamp=ts + res_delay, headers=res_headers,
        body=body,
    )
    return HttpTransaction(request=request, response=response)


def chain_to_b(**headers):
    """a.com@1, c.com@2, d.com@3, then b.com@5/6/7 referred by each."""
    extra = {"extra_req_headers": headers} if headers else {}
    txns = [make_txn(host=host, uri="/", ts=ts, **extra)
            for host, ts in (("a.com", 1.0), ("c.com", 2.0), ("d.com", 3.0))]
    txns += [make_txn(host="b.com", uri=f"/{ts:g}", ts=ts,
                      referrer=f"http://{ref}/", **extra)
             for ref, ts in (("a.com", 5.0), ("c.com", 6.0), ("d.com", 7.0))]
    return txns


def late_redirect_to_b(ts, **headers):
    """a.com's ``/`` again, now a 302 to b.com."""
    extra = {"extra_req_headers": headers} if headers else {}
    return make_txn(host="a.com", uri="/", ts=ts, status=302,
                    content_type="",
                    extra_res_headers={"Location": "http://b.com/"}, **extra)


def route_in_order(table: SessionTable, transactions) -> list[SessionWatch]:
    """Route ``transactions`` in arrival order, each on the watermark the
    detector would hand the table: the running-max timestamp."""
    now = float("-inf")
    watches = []
    for txn in transactions:
        now = max(now, txn.timestamp)
        watches.append(table.route(txn, now))
    return watches


def shard_records(packets, n_shards: int) -> list[list]:
    """Per shard, the ``(packet, fleet clock)`` pairs the sharded
    service ships it: routed by client, each paired with the largest
    timestamp fed so far (``run_shard``'s input)."""
    router = PacketRouter(n_shards)
    per_shard: list[list] = [[] for _ in range(n_shards)]
    clock = float("-inf")
    for packet in packets:
        clock = max(clock, packet.timestamp)
        for shard, routed in router.route(packet):
            per_shard[shard].append((routed, clock))
    return per_shard


def pairing_violations(counters: dict) -> list[str]:
    """The pairing laws a finished decode's ``http.*`` counters break:
    every request became a transaction (answered or flushed unanswered),
    and every response was paired or counted an orphan."""
    count = lambda name: counters.get(f"http.{name}", 0)  # noqa: E731
    laws = {
        "requests == transactions":
            count("requests") == count("transactions"),
        "responses == transactions - unanswered_flushed + orphan_responses":
            count("responses") == count("transactions")
            - count("unanswered_flushed") + count("orphan_responses"),
    }
    return [law for law, holds in laws.items() if not holds]


def cluster_sessions(transactions, idle_gap: float = 60.0
                     ) -> list[SessionWatch]:
    """The watches ``SessionTable`` clusters a stream into (fed in
    timestamp order), in the order they opened."""
    ordered = sorted(transactions, key=lambda t: t.timestamp)
    routed = route_in_order(SessionTable(idle_gap=idle_gap), ordered)
    return list({id(watch): watch for watch in routed}.values())


def first_alert(classifier, trace, threshold: float = 0.5):
    """``(seconds, progress)`` of an episode's first alert — stream time
    since the episode began, share of its transactions already seen —
    or ``None`` when it was missed; read off the timestamps of the
    alerts ``replay()`` returns."""
    stamps = sorted(t.timestamp for t in trace.transactions)
    detector = OnTheWireDetector(
        classifier, config=DetectorConfig(alert_threshold=threshold))
    alerts = detector.replay(trace.transactions)
    if not alerts:
        return None
    first = min(alert.timestamp for alert in alerts)
    return (first - stamps[0],
            sum(ts <= first for ts in stamps) / len(stamps))


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small but class-complete ground-truth corpus."""
    return ground_truth_corpus(seed=31, scale=0.05)


@pytest.fixture(scope="session")
def small_corpus():
    """A mid-size corpus for learning tests."""
    return ground_truth_corpus(seed=17, scale=0.15)


@pytest.fixture(scope="session")
def small_dataset(small_corpus):
    """(X, y) extracted from the mid-size corpus."""
    return extract_matrix(small_corpus.traces)


@pytest.fixture(scope="session")
def trained_model(small_dataset):
    """A paper-configured ERF trained on the mid-size corpus."""
    X, y = small_dataset
    model = EnsembleRandomForest(n_trees=20, random_state=5)
    model.fit(X, y)
    return model


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def simple_trace():
    """A 4-transaction benign-looking trace with a redirect."""
    txns = [
        make_txn(host="start.com", uri="/", ts=10.0,
                 referrer="http://google.com/search?q=x"),
        make_txn(host="start.com", uri="/jump", ts=11.0, status=302,
                 content_type="", referrer="http://start.com/",
                 extra_res_headers={"Location": "http://mid.com/land"}),
        make_txn(host="mid.com", uri="/land", ts=12.0,
                 referrer="http://start.com/jump"),
        make_txn(host="mid.com", uri="/logo.png", ts=13.0,
                 content_type="image/png", referrer="http://mid.com/land"),
    ]
    return Trace(transactions=txns, label=TraceLabel.BENIGN,
                 origin="google.com")
