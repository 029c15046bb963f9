"""Unit + property tests for the HTTP/1.x wire parser/serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Headers, HttpMethod, HttpRequest, HttpResponse
from repro.exceptions import HttpParseError
from repro.net.http1 import (
    RequestParser,
    ResponseParser,
    serialize_request,
    serialize_response,
)
from tests.oracles.http_batch import parse_requests, parse_responses


class TestParseRequests:
    def test_simple_get(self):
        data = b"GET /x HTTP/1.1\r\nHost: a.com\r\n\r\n"
        requests = parse_requests(data)
        assert len(requests) == 1
        assert requests[0].method is HttpMethod.GET
        assert requests[0].uri == "/x"
        assert requests[0].headers.get("Host") == "a.com"
        assert requests[0].body == b""

    def test_post_with_body(self):
        data = (b"POST /p HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\n"
                b"hello")
        requests = parse_requests(data)
        assert requests[0].body == b"hello"

    def test_pipelined_requests(self):
        data = (b"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n"
                b"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n")
        requests = parse_requests(data)
        assert [r.uri for r in requests] == ["/1", "/2"]

    def test_chunked_request_body(self):
        data = (b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n3\r\n!!!\r\n0\r\n\r\n")
        requests = parse_requests(data)
        assert requests[0].body == b"hello!!!"

    def test_truncated_trailing_request_dropped(self):
        data = (b"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n"
                b"GET /2 HTTP/1.1\r\nHost:")
        requests = parse_requests(data)
        assert len(requests) == 1

    def test_truncated_trailing_body_dropped(self):
        data = (b"POST /p HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")
        assert parse_requests(data) == []

    def test_bad_request_line(self):
        with pytest.raises(HttpParseError, match="bad request line"):
            parse_requests(b"NOT_A_REQUEST\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(HttpParseError, match="malformed header"):
            parse_requests(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")

    def test_header_folding(self):
        data = (b"GET / HTTP/1.1\r\nX-Long: part1\r\n  part2\r\n\r\n")
        requests = parse_requests(data)
        assert requests[0].headers.get("X-Long") == "part1 part2"

    def test_negative_content_length(self):
        data = b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        with pytest.raises(HttpParseError, match="negative Content-Length"):
            parse_requests(data)

    def test_non_numeric_content_length(self):
        data = b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        with pytest.raises(HttpParseError, match="bad Content-Length"):
            parse_requests(data)


class TestParseResponses:
    def test_simple_response(self):
        data = (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")
        responses = parse_responses(data)
        assert responses[0].status == 200
        assert responses[0].body == b"hi"

    def test_redirect_response(self):
        data = (b"HTTP/1.1 302 Found\r\nLocation: http://x.com/\r\n"
                b"Content-Length: 0\r\n\r\n")
        responses = parse_responses(data)
        assert responses[0].status == 302
        assert responses[0].headers.get("Location") == "http://x.com/"

    def test_chunked_response(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n")
        responses = parse_responses(data)
        assert responses[0].body == b"wikipedia"

    def test_chunk_extension_ignored(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4;name=value\r\nwiki\r\n0\r\n\r\n")
        assert parse_responses(data)[0].body == b"wiki"

    def test_read_until_close(self):
        data = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                b"no length header, read to EOF")
        responses = parse_responses(data, closed=True)
        assert responses[0].body == b"no length header, read to EOF"

    def test_unclosed_without_length_defers(self):
        data = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\npartial")
        assert parse_responses(data, closed=False) == []

    def test_204_has_no_body(self):
        data = (b"HTTP/1.1 204 No Content\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        responses = parse_responses(data)
        assert len(responses) == 2
        assert responses[0].body == b""
        assert responses[1].body == b"ok"

    def test_pipelined_responses(self):
        data = (b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"
                b"HTTP/1.1 404 Not Found\r\nContent-Length: 1\r\n\r\nb")
        responses = parse_responses(data)
        assert [r.status for r in responses] == [200, 404]

    def test_bad_status_line(self):
        with pytest.raises(HttpParseError, match="bad status line"):
            parse_responses(b"200 OK\r\n\r\n")

    def test_bad_status_code(self):
        with pytest.raises(HttpParseError, match="bad status code"):
            parse_responses(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_bad_chunk_size(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"zz\r\n")
        with pytest.raises(HttpParseError, match="bad chunk size"):
            parse_responses(data)

    def test_truncated_chunk(self):
        data = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"ff\r\nshort")
        with pytest.raises(HttpParseError, match="truncated chunk body"):
            parse_responses(data)


class TestSerializeRoundTrip:
    def test_request_roundtrip(self):
        original = HttpRequest(
            method=HttpMethod.POST, uri="/submit?x=1", host="", client="",
            timestamp=0.0, headers=Headers({"Host": "a.com", "X-Custom": "v"}),
            body=b"payload",
        )
        parsed = parse_requests(serialize_request(original))[0]
        assert parsed.method == original.method
        assert parsed.uri == original.uri
        assert parsed.body == original.body
        assert parsed.headers.get("X-Custom") == "v"

    def test_response_roundtrip(self):
        original = HttpResponse(
            status=404, timestamp=0.0,
            headers=Headers({"Content-Type": "text/html"}),
            body=b"<h1>404</h1>",
        )
        parsed = parse_responses(serialize_response(original))[0]
        assert parsed.status == 404
        assert parsed.body == original.body

    def test_serializer_strips_chunked(self):
        original = HttpResponse(
            status=200, timestamp=0.0,
            headers=Headers({"Transfer-Encoding": "chunked"}),
            body=b"abc",
        )
        wire = serialize_response(original)
        assert b"Transfer-Encoding" not in wire
        assert b"Content-Length: 3" in wire

    @settings(max_examples=50, deadline=None)
    @given(
        uri=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                   exclude_characters=" "),
            min_size=1, max_size=40,
        ).map(lambda s: "/" + s),
        body=st.binary(max_size=256),
        status=st.integers(200, 599),
    )
    def test_roundtrip_property(self, uri, body, status):
        """Property: serialize-then-parse is the identity."""
        request = HttpRequest(HttpMethod.GET, uri, "", "", 0.0,
                              Headers({"Host": "h"}), body)
        parsed_request = parse_requests(serialize_request(request))[0]
        assert parsed_request.uri == uri
        assert parsed_request.body == body

        response = HttpResponse(status, 0.0, Headers(), body)
        parsed_response = parse_responses(serialize_response(response))[0]
        assert parsed_response.status == status
        assert parsed_response.body == body


def _chop(data: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``data`` at the given (sorted, de-duplicated) positions."""
    positions = sorted({min(c % (len(data) + 1), len(data)) for c in cuts})
    pieces, previous = [], 0
    for position in positions + [len(data)]:
        pieces.append(data[previous:position])
        previous = position
    return pieces


_REQUEST_WIRE = (
    b"GET /one HTTP/1.1\r\nHost: a.com\r\n\r\n"
    b"POST /two HTTP/1.1\r\nHost: a.com\r\nContent-Length: 11\r\n\r\n"
    b"hello world"
    b"POST /three HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"5\r\nhello\r\n7;ext=1\r\n world!\r\n0\r\nX-Trailer: v\r\n\r\n"
    b"GET /four HTTP/1.1\r\nHost: a.com\r\n\r\n"
)

_RESPONSE_WIRE = (
    b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"          # HEAD
    b"HTTP/1.1 302 Found\r\nLocation: http://x/\r\n"
    b"Content-Length: 0\r\n\r\n"
    b"HTTP/1.1 204 No Content\r\n\r\n"
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n"
    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
    b"read until close"
)
_RESPONSE_METHODS = ["HEAD", "GET", "GET", "GET", "GET"]


class TestIncrementalParsers:
    """The resumable parsers match the batch functions byte for byte,
    however the stream is sliced into deliveries."""

    def test_byte_at_a_time_requests(self):
        batch = parse_requests(_REQUEST_WIRE)
        parser = RequestParser()
        incremental = []
        for index in range(len(_REQUEST_WIRE)):
            incremental.extend(parser.feed(_REQUEST_WIRE[index:index + 1]))
        incremental.extend(parser.finish())
        assert incremental == batch
        assert [r.uri for r in incremental] == ["/one", "/two", "/three",
                                                "/four"]
        assert incremental[2].body == b"hello world!"

    def test_byte_at_a_time_responses(self):
        batch = parse_responses(_RESPONSE_WIRE, closed=True,
                                request_methods=_RESPONSE_METHODS)
        parser = ResponseParser(request_methods=_RESPONSE_METHODS)
        incremental = []
        for index in range(len(_RESPONSE_WIRE)):
            incremental.extend(parser.feed(_RESPONSE_WIRE[index:index + 1]))
        incremental.extend(parser.finish(closed=True))
        assert incremental == batch
        assert [r.status for r in incremental] == [200, 302, 204, 200, 200]
        assert incremental[0].body == b""          # HEAD: no body bytes
        assert incremental[3].body == b"wikipedia"
        assert incremental[4].body == b"read until close"

    def test_partial_state_survives_between_feeds(self):
        parser = RequestParser()
        assert parser.feed(b"POST /p HTTP/1.1\r\nContent-Le") == []
        assert parser.feed(b"ngth: 5\r\n\r\nhel") == []
        done = parser.feed(b"lo")
        assert len(done) == 1
        assert done[0].body == b"hello"
        assert parser.starts == [0]

    def test_offsets_are_stream_absolute(self):
        wire = (b"GET /1 HTTP/1.1\r\nHost: a\r\n\r\n"
                b"GET /2 HTTP/1.1\r\nHost: a\r\n\r\n")
        parser = RequestParser()
        parser.feed(wire[:30])
        parser.feed(wire[30:])
        parser.finish()
        whole = RequestParser()
        whole.feed(wire)
        assert parser.starts == whole.starts == [0, len(wire) // 2]

    def test_read_until_close_deferred_without_close(self):
        parser = ResponseParser()
        pending = parser.feed(b"HTTP/1.1 200 OK\r\n\r\npartial body")
        assert pending == []
        assert parser.finish(closed=False) == []

    def test_await_methods_pauses_until_request_known(self):
        methods: list[str] = []
        parser = ResponseParser(request_methods=methods, await_methods=True)
        wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        assert parser.feed(wire) == []  # no request parsed yet: hold
        methods.extend(["HEAD", "GET"])
        done = parser.feed(b"")
        assert [r.body for r in done] == [b"", b"ok"]

    def test_feed_after_finish_rejects_data(self):
        parser = RequestParser()
        parser.finish()
        assert parser.feed(b"") == []
        assert parser.finish() == []  # idempotent
        with pytest.raises(HttpParseError, match="stream end"):
            parser.feed(b"GET / HTTP/1.1\r\n\r\n")

    def test_truncated_chunk_raises_only_at_finish(self):
        parser = ResponseParser()
        assert parser.feed(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nsho"
        ) == []
        with pytest.raises(HttpParseError, match="truncated chunk body"):
            parser.finish()

    def test_a_rejection_keeps_the_messages_framed_before_it(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError, match="bad request line") as caught:
            parser.feed(b"GET /a HTTP/1.1\r\n\r\n\x16\x03\x01\r\n\r\n")
        assert [r.uri for r in caught.value.completed] == ["/a"]
        # At finish too: the held response frames, then the cut-off
        # chunked one raises.
        parser = ResponseParser(request_methods=[], await_methods=True)
        assert parser.feed(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\n"
        ) == []
        with pytest.raises(HttpParseError, match="truncated") as caught:
            parser.finish()
        assert [r.body for r in caught.value.completed] == [b"ok"]

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(0, 10**6), max_size=12))
    def test_any_request_slicing_matches_batch(self, cuts):
        parser = RequestParser()
        incremental = []
        for piece in _chop(_REQUEST_WIRE, cuts):
            incremental.extend(parser.feed(piece))
        incremental.extend(parser.finish())
        assert incremental == parse_requests(_REQUEST_WIRE)

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(0, 10**6), max_size=12))
    def test_any_response_slicing_matches_batch(self, cuts):
        parser = ResponseParser(request_methods=_RESPONSE_METHODS)
        incremental = []
        for piece in _chop(_RESPONSE_WIRE, cuts):
            incremental.extend(parser.feed(piece))
        incremental.extend(parser.finish(closed=True))
        assert incremental == parse_responses(
            _RESPONSE_WIRE, closed=True, request_methods=_RESPONSE_METHODS
        )


class TestHeadResponses:
    def test_head_response_consumes_no_body(self):
        # HEAD response advertises an entity length but sends no body;
        # the next response must frame correctly.
        data = (b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        responses = parse_responses(data, request_methods=["HEAD", "GET"])
        assert len(responses) == 2
        assert responses[0].body == b""
        assert responses[1].body == b"ok"

    def test_without_method_hint_head_misframes(self):
        # Documents why the hint matters: blind parsing would swallow
        # the next response as body bytes.
        data = (b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        responses = parse_responses(data)
        assert len(responses) < 2

    def test_methods_shorter_than_responses(self):
        data = (b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"
                b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb")
        responses = parse_responses(data, request_methods=["GET"])
        assert len(responses) == 2
