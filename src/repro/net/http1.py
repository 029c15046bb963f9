"""HTTP/1.x wire-format parser and serializer.

Parses reassembled TCP byte streams into the model's
:class:`~repro.core.model.HttpRequest` / :class:`~repro.core.model.
HttpResponse` sequences (persistent connections supported), handling
``Content-Length`` bodies, ``Transfer-Encoding: chunked``, and
read-until-close responses.  A parser fills in what the bytes say; the
host, client and timestamps are the caller's (:class:`~repro.net.flows.
StreamPairer` knows the connection and the arrival marks).  The
serializer is the inverse, used when materializing synthetic traces
into real pcap files.

Parsing is *resumable*, one scanner per direction: a message stays in
a parser's ``buffer`` until its end is there, then leaves it in one
slice, its body copied once.  Scans restart where the previous delivery
stopped and skip chunk data, so a live tap pays O(total bytes) per
connection however the bytes are sliced.  The tap points ``buffer`` at
the reassembler's direction buffer, so a direction's in-order bytes
exist once.  Offline and on-the-wire decoding make the same ``feed`` /
``finish`` calls, so the two agree by construction.
"""

from __future__ import annotations

from sys import intern

from repro.core.model import Headers, HttpMethod, HttpRequest, HttpResponse
from repro.exceptions import HttpParseError

__all__ = [
    "RequestParser",
    "ResponseParser",
    "serialize_request",
    "serialize_response",
]

_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"
_MAX_HEADER_BYTES = 64 * 1024
#: What ``bytes.strip()`` strips: ``str.strip()`` also eats \x1c-\x1f, \x85, \xa0.
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"
#: :func:`_framing`'s answer for ``Transfer-Encoding: chunked``.
_CHUNKED = -1
#: The framing of a response read until the connection closes.
_CLOSE = -2
_HEXDIG = b"0123456789abcdefABCDEF"


def _split_headers(block: bytes | bytearray) -> tuple[str, Headers]:
    """Split a header block into (start line, Headers): one decode, no
    pair per line, names interned — a watch retains every message."""
    lines = block.decode("latin-1").split("\r\n")
    start = lines.pop(0)
    names: list[str] = []
    values: list[str] = []
    for line in lines:
        if not line:
            continue
        if line[0] in " \t" and names:
            # Obsolete header folding: append to the previous value.
            values[-1] += " " + line.strip(_ASCII_WHITESPACE)
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpParseError(
                f"malformed header line: {line[:60].encode('latin-1')!r}"
            )
        names.append(intern(name.strip()))
        values.append(value.strip())
    return start, Headers._of(tuple(names), tuple(values))


def _framing(headers: Headers) -> int | None:
    """Body framing the headers declare, read in one scan of the names:
    :data:`_CHUNKED` (which outranks any ``Content-Length``, malformed
    ones included), else the declared length, else ``None``.  Of a
    repeated header the first occurrence counts; a name is case-folded
    only when its length says it could match."""
    declared = encoding = None
    for name in headers._names:  # a first match, so index() finds it
        size = len(name)
        if size == 14 and declared is None and name.lower() == "content-length":
            declared = headers._values[headers._names.index(name)]
        elif size == 17 and encoding is None and name.lower() == "transfer-encoding":
            encoding = headers._values[headers._names.index(name)]
    if encoding and "chunked" in encoding.lower():
        return _CHUNKED
    if not declared:
        return None
    try:
        length = int(declared)
    except ValueError as exc:
        raise HttpParseError(f"bad Content-Length: {declared!r}") from exc
    if length < 0:
        raise HttpParseError(f"negative Content-Length: {length}")
    if not (declared.isascii() and declared.isdigit()):
        # RFC 9112 takes 1*DIGIT; int() also takes a sign, ``_`` and
        # non-ASCII digits.
        raise HttpParseError(f"bad Content-Length: {declared!r}")
    return length


class _Scanner:
    """Resumable framing shared by both message directions.

    ``buffer`` starts at the pending message.  Bytes reach it through
    :meth:`feed`, or its owner appends them (the reassembler's direction
    buffer) before a ``feed(b"")``; a message leaves it in one slice once
    its end is there.  Malformed content (bad start line, bad chunk size,
    ...) raises :class:`HttpParseError` as soon as it arrives, carrying
    the messages framed before it; a cut-off message waits for more bytes
    or for :meth:`finish`.
    """

    _kind = "message"

    def __init__(self) -> None:
        self.buffer = bytearray()
        #: Absolute stream offset of ``buffer[0]``, where the pending
        #: message starts: everything before it is framed, so a caller may
        #: drop earlier per-offset bookkeeping (e.g. timestamp marks).
        self.pending_offset = 0
        #: Stream offsets where the emitted messages start, in emission
        #: order; the caller clears the list once it has read them.
        self.starts: list[int] = []
        #: Restart hint for the delimiter scan in progress.
        self._scan = 0
        #: The pending message's start-line fields and headers once its
        #: header block is in, and how many messages came before it.
        self._line: list[str] | tuple[str, int] | None = None
        self._headers: Headers | None = None
        self._count = 0
        #: Its framing once picked (:func:`_framing`'s answer or
        #: :data:`_CLOSE`); where its body starts, or how far the chunk
        #: walk got; and the chunk data spans walked so far.
        self._length: int | None = None
        self._at = 0
        self._spans: list[tuple[int, int]] = []
        self._finishing = False
        self._done = False

    def feed(self, data: bytes) -> list:
        """Ingest ``data``; returns the messages it completed."""
        if self._done:
            if data or self.buffer:
                raise HttpParseError(f"data after {self._kind} stream end")
            return []
        if data:
            self.buffer += data
        return self._run([])

    def _run(self, out: list) -> list:
        try:
            while self._next(out):
                pass
        except HttpParseError as exc:
            exc.completed = out
            raise
        return out

    def finish(self) -> list:
        """Declare end-of-stream; idempotent.  Returns the messages
        completable at EOF.

        A stream cut off inside a chunked body raises the batch-identical
        truncation error; any other cut-off tail is silently dropped (a
        response whose method never resolved is framed with none).
        """
        if self._done:
            return []
        self._finishing = True
        out = self._run([])
        self._done = True
        del self.buffer[:]  # what is left is the cut-off tail
        if self._length == _CHUNKED:
            spans = self._spans
            if spans and spans[-1][0] == spans[-1][1]:
                cut = "chunk trailers"
            elif spans and spans[-1][1] == self._at:
                cut = "chunk body"
            else:
                cut = "chunk size line"
            error = HttpParseError(f"truncated {cut}")
            error.completed = out
            raise error
        return out

    def _next(self, out: list) -> bool:
        """Emit the pending message if its end is in ``buffer``."""
        buf = self.buffer
        if self._line is None:
            if not buf:
                return False
            end = buf.find(_HEADER_END, self._scan)
            # One limit however the block arrives: fed a byte at a time, the
            # buffer is 3 bytes past ``end`` just before the terminator lands.
            if (len(buf) if end < 0 else end + 3) > _MAX_HEADER_BYTES:
                raise HttpParseError(f"oversized {self._kind} header block")
            if end < 0:
                self._scan = max(0, len(buf) - 3)
                return False
            start, self._headers = _split_headers(buf[:end])
            self._line = self._start_line(start)
            self._at = end + 4
        length = self._length
        if length is None:
            length = self._length = self._frame(out)
            if length is None:
                return False  # the eliciting request has not parsed yet
        at = self._at
        if length >= 0:
            end = at + length
            if len(buf) < end:
                return False
            spans = ((at, end),)
        elif length == _CHUNKED:
            end = self._chunked_end()
            if end < 0:
                return False
            spans = self._spans
        elif self._finishing and self._closed:  # read until close
            end = len(buf)
            spans = ((at, end),)
        else:
            return False  # cannot delimit until the connection closes
        self._emit(end, spans, out)
        return True

    def _chunked_end(self) -> int:
        """Resume the walk over the chunk-size lines at ``_at``; returns
        where the message ends once its trailers are in, else -1."""
        buf, spans = self.buffer, self._spans
        while not spans or spans[-1][0] != spans[-1][1]:  # no last chunk
            at = self._at
            if spans and spans[-1][1] == at:  # a chunk's data, then CRLF
                if len(buf) < at + 2:
                    return -1
                if buf[at:at + 2] != _CRLF:
                    raise HttpParseError("missing chunk terminator")
                at = self._at = at + 2
            line_end = buf.find(_CRLF, max(at, self._scan))
            if line_end < 0:
                self._scan = len(buf) - 1
                return -1
            token = bytes(buf[at:line_end]).split(b";", 1)[0].strip()
            if not token or token.strip(_HEXDIG):
                # RFC 9112 takes 1*HEXDIG; int() also takes a sign,
                # ``0x`` and ``_``.
                raise HttpParseError(f"bad chunk size: {token!r}")
            size = int(token, 16)
            # The last chunk's span is empty and keeps its size line's
            # CRLF, where the trailer scan starts: a blank line right
            # after it ends the message.
            data = line_end + 2 if size else line_end
            spans.append((data, data + size))
            self._at = data + size
        end = buf.find(_HEADER_END, max(self._at, self._scan))
        if end < 0:
            self._scan = len(buf) - 3
            return -1
        return end + 4

    def _emit(self, end: int, spans, out: list) -> None:
        """Slice the pending message, ``end`` bytes, off ``buffer``; its
        body, the bytes of ``spans``, is copied once."""
        buf = self.buffer
        with memoryview(buf) as view:
            body = b"".join([view[a:b] for a, b in spans])
        del buf[:end]
        out.append(self._message(body))
        self.starts.append(self.pending_offset)
        self.pending_offset += end
        self._count += 1
        self._line = self._length = None
        self._scan = 0
        self._spans = []


class RequestParser(_Scanner):
    """Incremental client-direction parser: feed bytes, get requests.

    ``feed()`` returns the :class:`HttpRequest` messages completed by the
    delivered bytes, with no host, client or timestamp yet;
    :meth:`finish` declares end-of-stream.  ``methods`` lists each
    emitted request's verb as sent: response framing compares it with
    ``HEAD`` case-sensitively (RFC 9110 §9), which the model's
    :class:`HttpMethod` cannot.
    """

    _kind = "request"

    def __init__(self) -> None:
        super().__init__()
        self.methods: list[str] = []

    def _start_line(self, start: str) -> list[str]:
        parts = start.split(" ", 2)
        if len(parts) < 3 or not parts[2].startswith("HTTP/"):
            raise HttpParseError(f"bad request line: {start!r}")
        return parts

    def _frame(self, out: list) -> int:
        return _framing(self._headers) or 0

    def _message(self, body: bytes) -> HttpRequest:
        verb, uri, version = self._line
        self.methods.append(verb)
        return HttpRequest(HttpMethod.of(verb), uri, "", "", 0.0,
                           self._headers, body, intern(version))


class ResponseParser(_Scanner):
    """Incremental server-direction parser: feed bytes, get responses.

    ``request_methods`` is consulted positionally to frame each response
    (a ``HEAD`` response carries no body bytes whatever its
    ``Content-Length`` says, RFC 9110 §9.3.2, and a 2xx answer to
    ``CONNECT`` has none and ends HTTP on the stream: the parser emits
    it, then rejects the tunnel's bytes).  The list may be a
    request parser's ``methods`` and grow between deliveries; with
    ``await_methods=True`` the parser pauses rather than guess when a
    response outruns the requests seen so far.  A response with neither
    ``Content-Length`` nor chunking is held until :meth:`finish`
    resolves whether the connection closed (read-until-close) or the
    capture was merely truncated.  Responses come without a timestamp.
    """

    _kind = "response"

    def __init__(self, request_methods: list[str] | None = None,
                 await_methods: bool = False) -> None:
        super().__init__()
        self._methods = request_methods
        self._await = await_methods
        self._closed = False

    def _start_line(self, start: str) -> tuple[str, int]:
        parts = start.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpParseError(f"bad status line: {start!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpParseError(f"bad status code: {parts[1]!r}") from exc
        return parts[0], status

    def _frame(self, out: list) -> int | None:
        """Pick the body framing, which may need the request's method:
        ``None`` while it has not parsed yet."""
        if self._methods and self._count < len(self._methods):
            method = self._methods[self._count]
        elif self._await and not self._finishing:
            return None
        else:
            method = ""
        status = self._line[1]
        if method == "HEAD":
            return 0
        if method == "CONNECT" and 200 <= status < 300:
            # The tunnel's bytes follow, not HTTP (RFC 9110 §9.3.6).
            self._emit(self._at, (), out)
            raise HttpParseError("CONNECT tunnel")
        length = _framing(self._headers)
        if length is None and status >= 200 and status not in (204, 304):
            return _CLOSE
        return length or 0

    def _message(self, body: bytes) -> HttpResponse:
        return HttpResponse(self._line[1], 0.0, self._headers, body,
                            intern(self._line[0]))

    def finish(self, closed: bool = True) -> list[HttpResponse]:
        """End of the server stream; idempotent.

        ``closed`` marks a real connection teardown: a pending
        read-until-close body is then emitted; otherwise (capture
        truncation) it is dropped, matching the batch parser.
        """
        self._closed = closed
        return super().finish()


def serialize_request(req: HttpRequest) -> bytes:
    """Serialize a request back to wire format (Content-Length framing).

    An ``OTHER`` method goes out as ``TRACE``; the request's own headers
    are written, ``Host`` included, so ``req.host`` is not consulted.
    """
    method = req.method
    verb = "TRACE" if method is HttpMethod.OTHER else method.value
    headers = req.headers.copy()
    headers.remove("Transfer-Encoding")
    if req.body or method in (HttpMethod.POST, HttpMethod.PUT):
        headers.set("Content-Length", str(len(req.body)))
    return _serialize(f"{verb} {req.uri} {req.version}", headers, req.body)


def serialize_response(res: HttpResponse) -> bytes:
    """Serialize a response back to wire format (Content-Length framing);
    the model keeps no reason phrase, so every status line reads ``OK``."""
    headers = res.headers.copy()
    headers.remove("Transfer-Encoding")
    headers.set("Content-Length", str(len(res.body)))
    return _serialize(f"{res.version} {res.status} OK", headers, res.body)


def _serialize(start: str, headers: Headers, body: bytes) -> bytes:
    lines = [start] + [f"{name}: {value}" for name, value in headers]
    return "\r\n".join(lines).encode("latin-1") + _HEADER_END + body
