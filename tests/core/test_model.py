"""Unit tests for the HTTP domain model."""

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
from repro.core.payloads import PayloadType
from tests.conftest import make_txn


class TestHttpMethod:
    def test_known_verbs(self):
        assert HttpMethod.of("GET") is HttpMethod.GET
        assert HttpMethod.of("post") is HttpMethod.POST
        assert HttpMethod.of("Delete") is HttpMethod.DELETE

    def test_unknown_verb_maps_to_other(self):
        assert HttpMethod.of("BREW") is HttpMethod.OTHER
        assert HttpMethod.of("other") is HttpMethod.OTHER
        assert HttpMethod.of("") is HttpMethod.OTHER


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers({"Content-Type": "text/html"})
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_get_default(self):
        assert Headers().get("X-Nope", "fallback") == "fallback"

    def test_first_match_wins_over_a_later_exact_case_one(self):
        # get() tries the exact spelling before folding, in one loop:
        # the earlier header in another case must still be the answer.
        headers = Headers([("host", "first"), ("Host", "second"),
                           ("HOST", "third")])
        assert headers.get("Host") == "first"
        assert headers.get("HOST") == "first"
        assert headers.get_all("Host") == ["first", "second", "third"]

    def test_set_replaces_all(self):
        headers = Headers([("X-A", "1"), ("x-a", "2")])
        headers.set("X-A", "3")
        assert headers.get_all("x-a") == ["3"]

    def test_add_preserves_duplicates(self):
        headers = Headers()
        headers.add("Set-Cookie", "a=1")
        headers.add("Set-Cookie", "b=2")
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]

    def test_remove(self):
        headers = Headers({"A": "1", "B": "2"})
        headers.remove("a")
        assert "A" not in headers
        assert "B" in headers

    def test_contains(self):
        headers = Headers({"Referer": "x"})
        assert "referer" in headers
        assert 42 not in headers

    def test_copy_is_independent(self):
        original = Headers({"A": "1"})
        clone = original.copy()
        clone.set("A", "2")
        assert original.get("A") == "1"

    def test_len_and_iter(self):
        headers = Headers([("A", "1"), ("B", "2")])
        assert len(headers) == 2
        assert list(headers) == [("A", "1"), ("B", "2")]

    def test_equality(self):
        assert Headers({"A": "1"}) == Headers([("A", "1")])
        assert Headers({"A": "1"}) != Headers({"A": "2"})


class TestHttpRequest:
    def test_referrer_host_extraction(self):
        txn = make_txn(referrer="http://google.com:8080/search?q=x")
        assert txn.request.referrer_host == "google.com"

    def test_referrer_empty(self):
        txn = make_txn()
        assert txn.request.referrer == ""
        assert txn.request.referrer_host == ""

    def test_referrer_facts_refresh_when_headers_change(self):
        # The referrer pair is derived once per message, so every way
        # of changing the header after a first read must re-derive it.
        request = make_txn(referrer="http://first.com/a").request
        assert request.referrer_host == "first.com"
        request.headers.set("Referer", "http://Second.com:81/b")
        assert request.referrer == "http://Second.com:81/b"
        assert request.referrer_host == "second.com"
        request.headers.remove("Referer")
        assert (request.referrer, request.referrer_host) == ("", "")
        request.headers.add("referer", "http://third.com/")
        assert request.referrer_host == "third.com"
        request.headers = Headers({"Referer": "http://fourth.com/"})
        assert request.referrer_host == "fourth.com"
        # A same-version map swapped in is still a different map.
        request.headers = Headers({"Referer": "http://fifth.com/"})
        assert request.referrer_host == "fifth.com"

    def test_referrer_facts_do_not_leak_into_equality_or_repr(self):
        a = make_txn(referrer="http://first.com/a").request
        b = make_txn(referrer="http://first.com/a").request
        assert a.referrer_host == "first.com"  # a derived, b not yet
        assert a == b
        assert "_referrer_facts" not in repr(a)

    def test_messages_carry_no_instance_dict(self):
        # The derived facts are paid for with ``slots=True``: 22k live
        # transactions must not each grow a ``__dict__``.
        txn = make_txn()
        for message in (txn, txn.request, txn.response):
            assert not hasattr(message, "__dict__")

    def test_uri_length(self):
        txn = make_txn(uri="/abcde")
        assert txn.request.uri_length == 6

    def test_full_url_relative(self):
        txn = make_txn(host="h.com", uri="/p")
        assert txn.request.full_url == "http://h.com/p"

    def test_full_url_absolute(self):
        txn = make_txn(host="h.com", uri="http://other.com/p")
        assert txn.request.full_url == "http://other.com/p"

    def test_dnt(self):
        txn = make_txn(extra_req_headers={"DNT": "1"})
        assert txn.request.dnt
        assert not make_txn().request.dnt


class TestHttpResponse:
    def test_body_size_prefers_actual_body(self):
        txn = make_txn(body=b"12345")
        assert txn.response.body_size == 5

    def test_body_size_falls_back_to_content_length(self):
        txn = make_txn(size=1024)
        assert txn.response.body_size == 1024

    def test_is_redirect(self):
        txn = make_txn(status=302,
                       extra_res_headers={"Location": "http://x.com/"})
        assert txn.response.is_redirect

    def test_30x_without_location_is_not_redirect(self):
        txn = make_txn(status=304)
        assert not txn.response.is_redirect


class TestHttpTransaction:
    def test_payload_type_classification(self):
        txn = make_txn(uri="/x.exe", content_type="application/x-msdownload")
        assert txn.payload_type is PayloadType.EXE

    def test_payload_type_cached_and_settable(self):
        txn = make_txn()
        assert txn.payload_type is PayloadType.HTML
        txn.payload_type = PayloadType.JAR
        assert txn.payload_type is PayloadType.JAR

    def test_unanswered_transaction(self):
        txn = make_txn()
        txn.response = None
        txn.payload_type = None  # reset cache
        txn._payload_type = None
        assert txn.status == 0
        assert txn.payload_size == 0
        assert txn.duration == 0.0
        assert txn.payload_type is PayloadType.EMPTY

    def test_duration(self):
        txn = make_txn(ts=10.0, res_delay=0.5)
        assert txn.duration == pytest.approx(0.5)

    def test_server_and_client(self):
        txn = make_txn(host="srv.com", client="me")
        assert txn.server == "srv.com"
        assert txn.client == "me"


class TestTrace:
    def test_sorts_transactions_on_init(self):
        txns = [make_txn(ts=30.0), make_txn(ts=10.0), make_txn(ts=20.0)]
        trace = Trace(transactions=txns)
        stamps = [t.timestamp for t in trace]
        assert stamps == sorted(stamps)

    def test_hosts(self):
        trace = Trace(transactions=[
            make_txn(host="a.com"), make_txn(host="b.com"),
        ])
        assert trace.hosts == {"victim", "a.com", "b.com"}

    def test_duration_spans_responses(self):
        trace = Trace(transactions=[
            make_txn(ts=10.0, res_delay=0.1),
            make_txn(ts=20.0, res_delay=2.0),
        ])
        assert trace.duration == pytest.approx(12.0)

    def test_empty_trace_duration(self):
        assert Trace(transactions=[]).duration == 0.0

    def test_labels(self):
        infection = Trace(transactions=[], label=TraceLabel.INFECTION)
        benign = Trace(transactions=[], label=TraceLabel.BENIGN)
        assert infection.is_infection
        assert not benign.is_infection
        assert not Trace(transactions=[]).is_infection

    def test_len_and_iter(self):
        trace = Trace(transactions=[make_txn(), make_txn(ts=101.0)])
        assert len(trace) == 2
        assert len(list(trace)) == 2
