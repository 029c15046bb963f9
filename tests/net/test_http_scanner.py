"""The per-direction HTTP scanner against the step table it replaced.

``repro.net.http1`` keeps a message in its direction buffer until its
end is there and slices it off whole; ``tests/oracles/http_steps.py`` is
the step-table parser it replaced, unchanged.  Both parse the same
generated pipelined streams, cut at random points: ``Content-Length``,
chunked bodies with extensions and trailers, HEAD, ``CONNECT`` 2xx,
1xx / 204 / 304, read-until-close, obsolete folding and mixed-case
framing names, with malformed chunk sizes, missing chunk terminators,
bad ``Content-Length`` values, hostile bytes and header blocks at the
64 KiB limit mixed in.  After every ``feed`` and ``finish`` the two must
have returned the same messages (or raised the same error with the same
``completed``) and agree on ``starts``, ``methods`` and
``pending_offset``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import HttpParseError
from repro.net import http1
from tests.oracles import http_steps

_LIMIT = http1._MAX_HEADER_BYTES

_token = st.sampled_from(["a", "v 1", "\x00", "[", "%zz", "http://[::1/x",
                          "\xe9t\xe9", "", "HTTP/1.1 200 OK"])
_header = st.builds(lambda name, value: f"{name}: {value}",
                    st.sampled_from(["Host", "Accept", "X-Token",
                                     "content-type"]), _token)
_fold = st.builds(lambda lead, value: lead + value,
                  st.sampled_from([" ", "\t"]), _token)
_body_bytes = st.binary(max_size=40) | st.sampled_from(
    [b"\r\n", b"\r\n\r\n", b"0\r\n\r\n", b"GET / HTTP/1.1\r\n\r\n"])
_length_name = st.sampled_from(["Content-Length", "content-length",
                                "CONTENT-LENGTH"])
_chunked_name = st.sampled_from(["Transfer-Encoding", "transfer-encoding",
                                 "TRANSFER-ENCODING"])
_chunked_value = st.sampled_from(["chunked", "Chunked", "gzip, CHUNKED"])
# Malformed sizes the reference refuses too; a negative one it takes as
# a size (its known defect), so ``test_a_negative_chunk_size_is_bad``
# pins the scanner's answer instead.
_bad_size = st.sampled_from([b"zz", b"", b"5x", b"0x", b" ; ext"])


@st.composite
def _chunked_body(draw) -> bytes:
    out = []
    for data in draw(st.lists(st.binary(min_size=1, max_size=20),
                              max_size=3)):
        size = b"%x" % len(data)
        if draw(st.booleans()):
            size = size.upper()
        ext = draw(st.sampled_from([b"", b";ext=1", b" ; a=b;c"]))
        mutation = draw(st.sampled_from(["size", "term", *[""] * 10]))
        if mutation == "size":
            size, ext = draw(_bad_size), b""
        term = b"XY" if mutation == "term" else b"\r\n"
        out.append(size + ext + b"\r\n" + data + term)
    trailers = draw(st.lists(_header, max_size=2))
    out.append(b"0" + draw(st.sampled_from([b"", b";last"])) + b"\r\n")
    out.append("".join(line + "\r\n" for line in trailers).encode("latin-1"))
    out.append(b"\r\n")
    return b"".join(out)


@st.composite
def _message(draw, start: str) -> bytes:
    """One message after ``start``: headers, maybe folded, framed by
    ``Content-Length`` (good or bad), chunking or nothing."""
    lines = [start]
    for header in draw(st.lists(_header, max_size=3)):
        lines.append(header)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_fold))
    framing = draw(st.sampled_from(["none", "length", "length", "length",
                                    "chunked", "chunked", "chunked",
                                    "bad-length"]))
    body = b""
    if framing == "length":
        body = draw(_body_bytes)
        lines.append(f"{draw(_length_name)}: {len(body)}")
    elif framing == "bad-length":
        value = draw(st.sampled_from(["-3", "abc", " 4 ", "+2", "1_0", ""]))
        lines.append(f"{draw(_length_name)}: {value}")
        body = draw(_body_bytes)
    elif framing == "chunked":
        lines.append(f"{draw(_chunked_name)}: {draw(_chunked_value)}")
        body = draw(_chunked_body())
    if draw(st.integers(0, 39)) == 0:
        # A header block at the limit: ``_LIMIT - 3`` is the largest the
        # parsers take however it arrives.
        target = _LIMIT + draw(st.integers(-4, 1))
        filler = target - len("\r\n".join(lines)) - len("\r\nX-Pad: ")
        lines.append("X-Pad: " + "p" * max(filler, 0))
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def _mostly(common, rare):
    """``common``, or ``rare`` one time in ten."""
    return st.integers(0, 9).flatmap(lambda roll: rare if roll == 0
                                     else common)


_request_line = _mostly(st.builds(
    lambda verb, uri, version: f"{verb} {uri} {version}",
    st.sampled_from(["GET", "POST", "HEAD", "CONNECT", "PUT", "head"]),
    st.sampled_from(["/", "/a?b=%zz", "/[x]", "x:443", "/\x00"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
), st.sampled_from(["GET /", "garbage", ""]))
_status_line = _mostly(st.builds(
    lambda status: f"HTTP/1.1 {status} Reason",
    st.sampled_from([100, 101, 199, 200, 200, 204, 206, 304, 404]),
), st.sampled_from(["HTTP/1.1 abc", "HTTP/1.1", "SPDY 200 OK"]))


@st.composite
def _stream(draw, start_line) -> bytes:
    messages = draw(st.lists(start_line.flatmap(_message), min_size=1,
                             max_size=4))
    wire = b"".join(messages)
    ending = draw(st.sampled_from(["whole", "cut", "cut", "junk"]))
    if ending == "cut":  # the capture ends inside a message
        wire = wire[:draw(st.integers(0, len(wire)))]
    elif ending == "junk":
        wire += draw(st.sampled_from([b"\x16\x03\x01\x02", b"GET /tail",
                                      b"HTTP/1.1 200 OK\r\n"]))
    return wire


@st.composite
def _cuts(draw, wire: bytes) -> list[bytes]:
    """``wire`` as a random list of deliveries, or a byte at a time."""
    if len(wire) < 300 and draw(st.integers(0, 5)) == 0:
        return [wire[at:at + 1] for at in range(len(wire))]
    points = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=8)))
    edges = [0, *points, len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:])]


def _state(parser):
    return (list(parser.starts), parser.pending_offset,
            list(getattr(parser, "methods", ())))


def _same(scanner, reference, call) -> bool:
    """Apply ``call`` to both; assert equal outcomes and state.  True
    when they raised (the caller abandons a parser that raised)."""
    outcomes = []
    for parser in (scanner, reference):
        try:
            outcomes.append(("ok", call(parser)))
        except HttpParseError as exc:
            outcomes.append(("error", str(exc), exc.completed))
    assert outcomes[0] == outcomes[1]
    assert _state(scanner) == _state(reference)
    if outcomes[0][0] == "ok":
        assert all(type(m.body) is bytes for m in outcomes[0][1])
    return outcomes[0][0] == "error"


_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


class TestScannerMatchesTheStepTable:
    @_SETTINGS
    @given(data=st.data())
    def test_requests(self, data):
        wire = data.draw(_stream(_request_line))
        scanner, reference = http1.RequestParser(), http_steps.RequestParser()
        for piece in data.draw(_cuts(wire)):
            if _same(scanner, reference, lambda p: p.feed(piece)):
                return
        _same(scanner, reference, lambda p: p.finish())

    @_SETTINGS
    @given(data=st.data())
    def test_responses(self, data):
        wire = data.draw(_stream(_status_line))
        verbs = data.draw(st.lists(
            st.sampled_from(["GET", "GET", "HEAD", "CONNECT", "POST", "head"]),
            max_size=5))
        mode = data.draw(st.sampled_from(["given", "none", "await"]))
        closed = data.draw(st.booleans())
        methods = ([], [])
        if mode == "given":
            methods[0].extend(verbs)
            methods[1].extend(verbs)
        parsers = [module.ResponseParser(
            request_methods=None if mode == "none" else known,
            await_methods=mode == "await")
            for module, known in zip((http1, http_steps), methods)]
        for piece in data.draw(_cuts(wire)):
            if mode == "await" and verbs:
                # Requests parse between the deliveries, a few at a time.
                for _ in range(data.draw(st.integers(0, len(verbs)))):
                    verb = verbs.pop(0)
                    methods[0].append(verb)
                    methods[1].append(verb)
            if _same(*parsers, lambda p: p.feed(piece)):
                return
        _same(*parsers, lambda p: p.finish(closed=closed))


@pytest.mark.parametrize("cut", [None, 1])
def test_a_negative_chunk_size_is_bad(cut):
    wire = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"-5\r\nhello\r\n0\r\n\r\n")
    parser = http1.RequestParser()
    with pytest.raises(HttpParseError, match=r"bad chunk size: b'-5'"):
        for at in range(0, len(wire), cut or len(wire)):
            parser.feed(wire[at:at + (cut or len(wire))])
    assert parser.pending_offset == 0


_CHUNKED_POST = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
_LENGTH_POST = b"POST / HTTP/1.1\r\nContent-Length: %s\r\n\r\n0123456789"


@pytest.mark.parametrize("cut", [None, 1])
@pytest.mark.parametrize("wire, error", [
    (_LENGTH_POST % b"+10", "bad Content-Length: '+10'"),
    (_LENGTH_POST % b"1_0", "bad Content-Length: '1_0'"),
    (_CHUNKED_POST + b"0x5\r\nhello\r\n0\r\n\r\n", "bad chunk size: b'0x5'"),
    (_CHUNKED_POST + b"+5\r\nhello\r\n0\r\n\r\n", "bad chunk size: b'+5'"),
    (_CHUNKED_POST + b"0_5\r\nhello\r\n0\r\n\r\n", "bad chunk size: b'0_5'"),
], ids=["length+10", "length1_0", "chunk0x5", "chunk+5", "chunk0_5"])
def test_a_number_int_takes_but_rfc_9112_refuses_is_bad(wire, error, cut):
    # RFC 9112 frames by 1*DIGIT / 1*HEXDIG; each of these is one
    # int() would read as 10 or 5.  The message before it stands.
    wire = b"GET /ok HTTP/1.1\r\nHost: h\r\n\r\n" + wire
    parser = http1.RequestParser()
    framed = []
    with pytest.raises(HttpParseError) as caught:
        for at in range(0, len(wire), cut or len(wire)):
            framed += parser.feed(wire[at:at + (cut or len(wire))])
    assert str(caught.value) == error
    assert [m.uri for m in framed + caught.value.completed] == ["/ok"]


@pytest.mark.parametrize("tail, cut", [
    (b"5\r\nhel", "chunk body"),
    (b"5\r\nhello\r", "chunk body"),
    (b"5\r\nhello\r\n1", "chunk size line"),
    (b"0\r\nX-T: 1\r\n", "chunk trailers"),
])
def test_a_cut_chunked_body_names_where_it_stopped(tail, cut):
    wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + tail
    for module in (http1, http_steps):
        parser = module.ResponseParser()
        assert parser.feed(wire) == []
        with pytest.raises(HttpParseError, match=f"truncated {cut}"):
            parser.finish()


def _deliveries(wire: bytes, shape: str) -> list[bytes]:
    if shape == "whole":
        return [wire]
    if shape == "segments":
        return [wire[at:at + 1400] for at in range(0, len(wire), 1400)]
    return [wire[:-8], *(wire[at:at + 1] for at in range(len(wire) - 8,
                                                        len(wire)))]


@pytest.mark.parametrize("shape", ["whole", "segments", "bytewise-tail"])
@pytest.mark.parametrize("excess", range(-4, 2))
@pytest.mark.parametrize("module_kind, start", [
    ("RequestParser", "GET / HTTP/1.1"),
    ("ResponseParser", "HTTP/1.1 204 No Content"),
])
def test_header_blocks_at_the_limit(module_kind, start, excess, shape):
    """Blocks of ``_LIMIT - 4`` to ``_LIMIT + 1`` bytes, then one more
    message: taken or refused alike, however the block arrives."""
    filler = _LIMIT + excess - len(start) - len("\r\nX-Pad: ")
    wire = (f"{start}\r\nX-Pad: {'p' * filler}\r\n\r\n{start}\r\n\r\n"
            .encode("latin-1"))
    scanner = getattr(http1, module_kind)()
    reference = getattr(http_steps, module_kind)()
    for piece in _deliveries(wire, shape):
        if _same(scanner, reference, lambda p: p.feed(piece)):
            return
    _same(scanner, reference, lambda p: p.finish())
