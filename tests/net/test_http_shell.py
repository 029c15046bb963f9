"""The tap's HTTP shell against the bodies it replaced.

``repro.net.http1`` decodes a header block once and reads the framing
headers in one scan; the per-piece decode and the two ``Headers.get``
scans it used to do live on in ``tests/oracles/header_split.py``.  These
differentials fail if a rewritten body drifts: same ``(start, Headers)``
or same error text on any latin-1 block, same framing or same error on
any mix of duplicated, mixed-case ``Content-Length`` /
``Transfer-Encoding``, streams that reach every state of the step table
the scanner replaced, whole and one byte at a time.  Plus the two
contracts the rewrite added: a header block over the limit is refused
however it arrives, and interned header names do not outlive their
messages.
"""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import Headers
from repro.detection.live import LiveDecoder
from repro.exceptions import HttpParseError
from repro.loadgen import RawConnection
from repro.net import http1
from repro.net.flows import transactions_from_packets
from repro.net.http1 import RequestParser, ResponseParser
from repro.obs import MetricsRegistry, use_registry
from tests.oracles import http_steps
from tests.oracles.header_split import (
    body_length_reference,
    is_chunked_reference,
    split_headers_reference,
)
from tests.oracles.http_batch import parse_requests, parse_responses


def _outcome(call, *args):
    try:
        return call(*args)
    except HttpParseError as exc:
        return ("HttpParseError", str(exc))


# What str.strip() eats and bytes.strip() does not, and the reverse
# direction's usual suspects, around every piece of a header line.
_AWKWARD = "\xa0\x85\x1c\x1d\x1e\x1f \t\x0b\x0c\n\r:"
_piece = st.text(
    alphabet=st.one_of(st.sampled_from(_AWKWARD),
                       st.characters(max_codepoint=255)),
    max_size=12,
)
_line = st.one_of(
    st.builds(lambda n, v: f"{n}:{v}", _piece, _piece),       # a header
    st.builds(lambda lead, v: lead + v, st.sampled_from(" \t"), _piece),
    _piece,                                                   # no colon?
    st.just(""),
)
_block = st.builds(
    lambda lines, sep: sep.join(lines).encode("latin-1"),
    st.lists(_line, max_size=8),
    st.sampled_from(["\r\n", "\r\n", "\n"]),
)


class TestSplitHeadersDifferential:
    @settings(max_examples=400, deadline=None)
    @given(block=st.one_of(_block, st.binary(max_size=80)))
    @example(block=b"GET / HTTP/1.1\r\n folded first\r\nA: b")
    @example(block=b"S\r\nA: b\r\n \xa0\x85 folded \x1c\xa0\r\n\t\x0b\x0c\r\n")
    @example(block=b"S\r\n\xa0Name\x85:\x1f value \xa0\r\n")
    @example(block=b"S\r\nno colon here")
    @example(block=b"S\r\nA:b:c::d\r\n:empty name\r\n:\r\n")
    @example(block=b"S\r\nA: b\nB: bare newline\r\nC: d")
    @example(block=b"S\r\nA: 1\r\n folded\r\n\tagain\r\nA: 2\r\na:  \r\n more")
    @example(block=b"")
    @example(block=b"S\r\n" + b"x" * 70 + b"\xff no colon")
    def test_same_result_or_same_error(self, block):
        ours = _outcome(http1._split_headers, block)
        reference = _outcome(split_headers_reference, block)
        assert ours == reference
        if isinstance(ours[1], Headers):  # equal through iteration too
            assert list(ours[1]) == list(reference[1])
            assert len(ours[1]) == len(reference[1])

    def test_accepts_the_parser_s_bytearray_slice(self):
        block = b"GET / HTTP/1.1\r\nHost: a\r\n folded"
        assert http1._split_headers(bytearray(block)) == (
            split_headers_reference(block))

    def test_error_text_shows_the_bytes(self):
        with pytest.raises(HttpParseError) as caught:
            http1._split_headers(b"S\r\nbad \xff line")
        assert str(caught.value) == (
            "malformed header line: b'bad \\xff line'")

    def test_names_are_interned(self):
        _, first = http1._split_headers(b"S\r\nX-Shell-Test: 1")
        _, second = http1._split_headers(b"S\r\n X-Shell-Test\t: 2")
        assert first.items()[0][0] is second.items()[0][0]


def _framing_reference(headers):
    """The old call order: chunked outranks (and hides) Content-Length."""
    if is_chunked_reference(headers):
        return http1._CHUNKED
    return body_length_reference(headers)


_framing_name = st.sampled_from([
    "Content-Length", "content-length", "CONTENT-LENGTH", "Content-length",
    "Transfer-Encoding", "transfer-encoding", "TRANSFER-ENCODING",
    "Content-Lengths", "Xransfer-Encoding", "Host", "Content-Type",
])
_framing_value = st.sampled_from([
    "0", "5", " 7 ", "+3", "-1", "1_0", "ten", "", "chunked", "Chunked",
    "gzip, CHUNKED", "identity", "\u0665",
])


class TestFramingDifferential:
    @settings(max_examples=400, deadline=None)
    @given(items=st.lists(st.tuples(_framing_name, _framing_value),
                          max_size=6))
    def test_one_scan_matches_the_two_gets(self, items):
        headers = Headers(items)
        assert _outcome(http1._framing, headers) == _outcome(
            _framing_reference, headers)

    @pytest.mark.parametrize("items, expected", [
        ([("Content-Length", "5"), ("content-length", "9")], 5),
        ([("content-length", ""), ("Content-Length", "9")], None),
        ([("TRANSFER-ENCODING", "gzip"), ("Transfer-Encoding", "chunked"),
          ("Content-Length", "4")], 4),
        ([("Content-Length", "bogus"), ("transfer-encoding", "Chunked")],
         http1._CHUNKED),
        ([], None),
    ])
    def test_first_occurrence_wins(self, items, expected):
        assert http1._framing(Headers(items)) == expected

    @pytest.mark.parametrize("value, message", [
        ("ten", "bad Content-Length: 'ten'"),
        ("-4", "negative Content-Length: -4"),
    ])
    def test_same_error_text(self, value, message):
        for parse, wire in (
            (parse_requests, b"POST / HTTP/1.1\r\ncontent-LENGTH: %s\r\n\r\n"),
            (parse_responses, b"HTTP/1.1 200 OK\r\ncontent-LENGTH: %s\r\n\r\n"),
        ):
            with pytest.raises(HttpParseError) as caught:
                parse(wire % value.encode())
            assert str(caught.value) == message


_REQUESTS = (
    b"GET /one HTTP/1.1\r\nHost: a.com\r\n\r\n"
    b"POST /two HTTP/1.1\r\ncontent-length: 11\r\n\r\nhello world"
    b"POST /three HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n"
    b"5\r\nhello\r\n7;ext=1\r\n world!\r\n0\r\nX-Trailer: v\r\nY: w\r\n\r\n"
    b"HEAD /four HTTP/1.1\r\nHost: a.com\r\n\r\n"
    b"GET /five HTTP/1.1\r\nHost: a.com\r\n\r\n"
)
_RESPONSES = (
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    b"HTTP/1.1 204 No Content\r\n\r\n"
    b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n"
    b"4\r\nwiki\r\n5\r\npedia\r\n0\r\nX-Trailer: v\r\n\r\n"
    b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"          # to HEAD
    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\nread until close"
)


def _recording(parser_class, seen):
    """``parser_class`` whose step table notes each state it serves."""
    def noting(state, step):
        def noted(self, out):
            seen.add(state)
            return step(self, out)
        return noted

    return type(parser_class.__name__, (parser_class,), {
        "_steps": {state: noting(state, step)
                   for state, step in parser_class._steps.items()},
    })


def _verbs(wire: bytes) -> list[str]:
    """The request verbs of ``wire`` as sent, as response framing reads
    them."""
    parser = RequestParser()
    parser.feed(wire)
    parser.finish()
    return parser.methods


def _parse(parser, wire, size, *finish):
    step = size or len(wire)
    messages = []
    for at in range(0, len(wire), step):
        messages.extend(parser.feed(wire[at:at + step]))
    return messages + parser.finish(*finish)


class TestStepTable:
    """The streams visit every state of the step table the scanner
    replaced (``tests/oracles/http_steps.py``), and the scanner parses
    them the same whole, a byte at a time, or awaiting its methods."""

    @pytest.mark.parametrize("size", [None, 1])
    def test_requests_visit_every_state(self, size):
        seen = set()
        reference = _parse(_recording(http_steps.RequestParser, seen)(),
                           _REQUESTS, size)
        parser = RequestParser()
        messages = _parse(parser, _REQUESTS, size)
        assert messages == reference == parse_requests(_REQUESTS)
        assert parser.methods == ["GET", "POST", "POST", "HEAD", "GET"]
        assert messages[2].body == b"hello world!"
        assert seen == set(http_steps.RequestParser._steps)

    @pytest.mark.parametrize("size", [None, 1])
    def test_responses_visit_every_state(self, size):
        methods = _verbs(_REQUESTS)
        seen = set()
        reference = _parse(
            _recording(http_steps.ResponseParser, seen)(
                request_methods=methods), _RESPONSES, size, True)
        messages = _parse(ResponseParser(request_methods=methods),
                          _RESPONSES, size, True)
        assert messages == reference == parse_responses(
            _RESPONSES, closed=True, request_methods=methods)
        assert [m.body for m in messages] == [
            b"ok", b"", b"wikipedia", b"", b"read until close"]
        assert seen == set(http_steps.ResponseParser._steps)

    @pytest.mark.parametrize("size", [None, 1])
    def test_awaited_methods_frame_the_same(self, size):
        """Responses arrive first; each waits for its request's method,
        as on a live connection."""
        methods: list[str] = []
        parser = ResponseParser(request_methods=methods, await_methods=True)
        step = size or len(_RESPONSES)
        messages = []
        for at in range(0, len(_RESPONSES), step):
            messages.extend(parser.feed(_RESPONSES[at:at + step]))
        assert messages == []
        for verb in _verbs(_REQUESTS):
            methods.append(verb)
            messages.extend(parser.feed(b""))
        messages.extend(parser.finish(closed=True))
        assert messages == parse_responses(
            _RESPONSES, closed=True,
            request_methods=["GET", "POST", "POST", "HEAD", "GET"])


class TestOneSlicePerMessage:
    def test_a_body_stays_in_the_buffer_until_its_end_is_there(self):
        """No body accumulator: until the message leaves in one slice,
        every byte fed is still in ``buffer``, after ``pending_offset``."""
        body = bytes(range(256)) * 400  # 102 400 B
        wire = (b"POST /up HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)) + body
        parser = RequestParser()
        messages = []
        for at in range(0, len(wire), 1400):
            messages += parser.feed(wire[at:at + 1400])
            fed = min(at + 1400, len(wire))
            assert parser.pending_offset + len(parser.buffer) == fed
        assert [m.body for m in messages] == [body]
        assert parser.starts == [0] and parser.buffer == b""


def _feed(parser, wire, size):
    for at in range(0, len(wire), size or len(wire)):
        parser.feed(wire[at:at + (size or len(wire))])


class TestHeaderBlockLimit:
    """``_MAX_HEADER_BYTES`` holds whether or not the terminator came in
    the same delivery — a 10 MB block that arrived whole used to be
    split into Python strings."""

    LIMIT = http1._MAX_HEADER_BYTES

    @staticmethod
    def _wire(start: bytes, block_len: int) -> bytes:
        """A message whose header block (terminator excluded) is
        ``block_len`` bytes."""
        filler = block_len - len(start) - len(b"\r\nX: ")
        return start + b"\r\nX: " + b"a" * filler + b"\r\n\r\n"

    @pytest.mark.parametrize("size", [None, 1, 1000])
    @pytest.mark.parametrize("make, start", [
        (RequestParser, b"GET / HTTP/1.1"),
        (ResponseParser, b"HTTP/1.1 204 No Content"),
    ])
    def test_oversized_block_is_refused_however_it_arrives(self, make,
                                                           start, size):
        with pytest.raises(HttpParseError, match="header block"):
            _feed(make(), self._wire(start, self.LIMIT + 1000), size)

    @pytest.mark.parametrize("size", [None, 1])
    @pytest.mark.parametrize("make, start", [
        (RequestParser, b"GET / HTTP/1.1"),
        (ResponseParser, b"HTTP/1.1 204 No Content"),
    ])
    def test_boundary_is_the_same_whole_and_bytewise(self, make, start,
                                                     size):
        # The largest block a byte-at-a-time feed lets through: its
        # buffer peaks at block + 3 just before the terminator lands.
        parser = make()
        _feed(parser, self._wire(start, self.LIMIT - 3), size)
        assert parser.pending_offset == self.LIMIT + 1  # framed, no raise
        with pytest.raises(HttpParseError, match="header block"):
            _feed(make(), self._wire(start, self.LIMIT - 2), size)

    def test_ten_megabytes_whole(self):
        wire = self._wire(b"GET / HTTP/1.1", 10 * 1024 * 1024)
        with pytest.raises(HttpParseError, match="oversized request"):
            parse_requests(wire)

    @pytest.mark.parametrize("first_segment_last", [False, True])
    def test_live_and_batch_refuse_the_stream_alike(self,
                                                    first_segment_last):
        """In order, the live tap used to refuse the block (terminator
        not in yet) and the batch decoder, fed it whole, accept it; with
        the first segment delayed the live tap gets it whole too."""
        wire = self._wire(b"GET /big HTTP/1.1", 100_000)
        conn = RawConnection("172.31.0.7", 50007, "198.51.100.7")
        packets = conn.open(1.0)
        segments = [conn.segment(1.1 + at * 1e-7, True, wire[at:at + 1400], at)
                    for at in range(0, len(wire), 1400)]
        if first_segment_last:
            segments.append(segments.pop(0))
        packets.extend(segments)
        packets.extend(conn.close(1.4))
        registry = MetricsRegistry()
        with use_registry(registry):
            decoder = LiveDecoder()
            live = [t for p in packets for t in decoder.feed(p)]
            live.extend(decoder.flush())
        assert live == []
        counters = registry.snapshot()["counters"]
        assert counters["decode.non_http_streams"] == 1
        assert transactions_from_packets(packets) == []


class TestInternedNamesDoNotLeak:
    def test_unique_names_die_with_their_messages(self):
        def churn(count, tag):
            parser = RequestParser()
            for index in range(count):
                done = parser.feed(
                    b"GET / HTTP/1.1\r\nX-%s-%d: v\r\n\r\n"
                    % (tag, index))
                assert len(done) == 1

        # The intern table is a dict: churn fills it with tombstones
        # and it is reallocated (same size) now and then.  Tracing from
        # before an equally long warm-up makes that a swap of two
        # traced blocks, not growth.
        tracemalloc.start()
        try:
            churn(50_000, b"warm")
            gc.collect()
            baseline, _ = tracemalloc.get_traced_memory()
            churn(50_000, b"hostile")
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 50 000 retained names would be > 3 MB.
        assert after - baseline < 256 * 1024
