"""HTTP/1.x wire-format parser and serializer.

Parses reassembled TCP byte streams into request and response message
sequences (persistent connections supported), handling ``Content-Length``
bodies, ``Transfer-Encoding: chunked``, and read-until-close responses.
The serializer is the inverse, used when materializing synthetic traces
into real pcap files.

Parsing is *resumable*: :class:`RequestParser` and :class:`ResponseParser`
retain partial-message state between :meth:`~RequestParser.feed` calls and
examine each byte exactly once, so a live tap pays O(total bytes) per
connection no matter how the bytes are sliced into deliveries.  The batch
:func:`parse_requests` / :func:`parse_responses` entry points are thin
wrappers over the same machinery (one ``feed`` of the whole buffer plus a
``finish``), which keeps offline and on-the-wire decoding identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern

from repro.core.model import Headers
from repro.exceptions import HttpParseError

__all__ = [
    "RawHttpRequest",
    "RawHttpResponse",
    "RequestParser",
    "ResponseParser",
    "parse_requests",
    "parse_responses",
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
#: Parser state at end of stream -> what :meth:`finish` reports cut off.
_TRUNCATED = {"chunk-size": "chunk size line", "chunk-data": "chunk body",
              "chunk-term": "chunk body", "chunk-trailers": "chunk trailers"}


@dataclass
class RawHttpRequest:
    """A parsed request line + headers + body, before domain mapping."""

    method: str
    uri: str
    version: str
    headers: Headers
    body: bytes
    #: Byte offset of the message start within its direction's stream.
    offset: int = 0


@dataclass
class RawHttpResponse:
    """A parsed status line + headers + body, before domain mapping."""

    version: str
    status: int
    reason: str
    headers: Headers
    body: bytes
    #: Byte offset of the message start within its direction's stream.
    offset: int = 0


def _split_headers(block: bytes | bytearray) -> tuple[str, Headers]:
    """Split a header block into (start line, Headers): one decode, and
    names interned — a tap sees few, and a watch retains every message."""
    lines = block.decode("latin-1").split("\r\n")
    start = lines.pop(0)
    items: list[tuple[str, str]] = []
    for line in lines:
        if not line:
            continue
        if line[0] in " \t" and items:
            # Obsolete header folding: append to the previous value.
            name, value = items[-1]
            items[-1] = (name, value + " " + line.strip(_ASCII_WHITESPACE))
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpParseError(
                f"malformed header line: {line[:60].encode('latin-1')!r}"
            )
        items.append((intern(name.strip()), value.strip()))
    return start, Headers(items)


def _framing(headers: Headers) -> int | None:
    """Body framing the headers declare, read in one scan:
    :data:`_CHUNKED` (which outranks any ``Content-Length``, malformed
    ones included), else the declared length, else ``None``.  Of a
    repeated header the first occurrence counts; a name is case-folded
    only when its length says it could match."""
    declared = encoding = None
    for name, value in headers:
        size = len(name)
        if size == 14 and declared is None and name.lower() == "content-length":
            declared = value
        elif size == 17 and encoding is None and name.lower() == "transfer-encoding":
            encoding = value
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
    return length


class _IncrementalParser:
    """Resumable framing machinery shared by both message directions.

    The parser buffers only the not-yet-framed tail of the stream (at
    most the current partial message): framed bytes are deleted as the
    cursor advances, and repeated ``find`` scans restart from where the
    previous delivery stopped.  Malformed-content errors (bad start
    line, bad chunk size, ...) raise :class:`HttpParseError` as soon as
    the offending bytes arrive; truncation conditions merely pause the
    parser until more bytes are fed or :meth:`finish` declares the end
    of the stream.
    """

    _kind = "message"

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Absolute stream offset of ``_buf[0]``.
        self._base = 0
        #: Buffer-relative restart hint for delimiter scans.
        self._scan = 0
        self._state = "headers"
        #: Absolute stream offset where the current message starts.
        self._msg_offset = 0
        #: The message whose body is being framed, and how many came before.
        self._pending: RawHttpRequest | RawHttpResponse | None = None
        self._count = 0
        self._body = bytearray()
        self._need = 0
        self._finishing = False
        self._done = False

    @property
    def pending_offset(self) -> int:
        """Absolute stream offset of the current (partial) message.

        Everything before this offset has been fully framed; callers may
        discard earlier per-offset bookkeeping (e.g. timestamp marks).
        """
        return self._msg_offset

    # -- byte plumbing ------------------------------------------------------

    def _consume(self, count: int) -> None:
        del self._buf[:count]
        self._base += count
        self._scan = 0

    def feed(self, data: bytes) -> list:
        """Ingest ``data``; returns the messages it completed."""
        if self._done:
            if data:
                raise HttpParseError(f"data after {self._kind} stream end")
            return []
        if data:
            self._buf += data
        out: list = []
        steps = self._steps  # per class, filled in below the steps
        while steps[self._state](self, out):
            pass
        return out

    def _terminate(self) -> None:
        """Raise the batch-identical truncation error for a cut-off tail."""
        cut = _TRUNCATED.get(self._state)
        if cut:
            raise HttpParseError(f"truncated {cut}")
        # Any other state: a trailing message cut off by capture
        # truncation is silently dropped ("frame" included: the method
        # never resolved, _step_frame framed it with none under
        # _finishing, and the framed body was then cut off).

    def _finish(self) -> list:
        """Declare end-of-stream; returns messages completable at EOF."""
        if self._done:
            return []
        self._finishing = True
        out: list = []
        steps = self._steps
        while steps[self._state](self, out):
            pass
        self._done = True
        self._terminate()
        return out

    # -- state machine ------------------------------------------------------

    def _step_headers(self, out: list) -> bool:
        if not self._buf:
            return False
        self._msg_offset = self._base
        end = self._buf.find(_HEADER_END, self._scan)
        # One limit however the block arrives: fed a byte at a time, the
        # buffer is 3 bytes past ``end`` just before the terminator lands.
        if (len(self._buf) if end < 0 else end + 3) > _MAX_HEADER_BYTES:
            raise HttpParseError(f"oversized {self._kind} header block")
        if end < 0:
            self._scan = max(0, len(self._buf) - 3)
            return False
        block = self._buf[:end]
        self._consume(end + 4)
        start, headers = _split_headers(block)
        return self._begin_message(start, headers, out)

    def _begin_message(self, start: str, headers: Headers, out: list) -> bool:
        raise NotImplementedError

    def _start_body(self, length: int | None, out: list) -> bool:
        """Enter the state that frames a body of :func:`_framing` ``length``."""
        if length == _CHUNKED:
            self._state = "chunk-size"
        elif length:
            self._state = "body"
            self._need = length
        else:
            self._emit(b"", out)
        return True

    def _step_body(self, out: list) -> bool:
        take = min(len(self._buf), self._need)
        if take:
            self._body += self._buf[:take]
            self._consume(take)
            self._need -= take
        if self._need:
            return False
        self._emit(bytes(self._body), out)
        return True

    def _step_chunk_size(self, out: list) -> bool:
        line_end = self._buf.find(_CRLF, self._scan)
        if line_end < 0:
            self._scan = max(0, len(self._buf) - 1)
            return False
        size_token = bytes(self._buf[:line_end]).split(b";", 1)[0].strip()
        try:
            size = int(size_token, 16)
        except ValueError as exc:
            raise HttpParseError(f"bad chunk size: {size_token!r}") from exc
        if size == 0:
            # Keep the size line's CRLF: the trailer scan below starts at
            # it so an immediately-following blank line is recognized.
            self._consume(line_end)
            self._state = "chunk-trailers"
            return True
        self._consume(line_end + 2)
        self._need = size
        self._state = "chunk-data"
        return True

    def _step_chunk_data(self, out: list) -> bool:
        take = min(len(self._buf), self._need)
        if take:
            self._body += self._buf[:take]
            self._consume(take)
            self._need -= take
        if self._need:
            return False
        self._state = "chunk-term"
        return True

    def _step_chunk_term(self, out: list) -> bool:
        if len(self._buf) < 2:
            return False
        if self._buf[:2] != _CRLF:
            raise HttpParseError("missing chunk terminator")
        self._consume(2)
        self._state = "chunk-size"
        return True

    def _step_chunk_trailers(self, out: list) -> bool:
        # _buf[0:2] is the CRLF that closed the zero-size line, so with
        # no trailers the terminator is found at 0.
        end = self._buf.find(_HEADER_END, self._scan)
        if end >= 0:
            self._consume(end + 4)
            self._emit(bytes(self._body), out)
            return True
        self._scan = max(0, len(self._buf) - 3)
        return False

    def _emit(self, body: bytes, out: list) -> None:
        message = self._pending
        message.body = body
        out.append(message)
        self._pending = None
        self._count += 1
        self._state = "headers"
        self._msg_offset = self._base

    _steps = {
        "headers": _step_headers,
        "body": _step_body,
        "chunk-size": _step_chunk_size,
        "chunk-data": _step_chunk_data,
        "chunk-term": _step_chunk_term,
        "chunk-trailers": _step_chunk_trailers,
    }


class RequestParser(_IncrementalParser):
    """Incremental client-direction parser: feed bytes, get requests.

    ``feed()`` returns the :class:`RawHttpRequest` messages completed by
    the delivered bytes; :meth:`finish` declares end-of-stream, raising
    for a stream cut off inside a chunked body (as the batch parser
    does) and silently dropping a truncated trailing message.
    """

    _kind = "request"

    def _begin_message(self, start: str, headers: Headers, out: list) -> bool:
        parts = start.split(" ", 2)
        if len(parts) < 3 or not parts[2].startswith("HTTP/"):
            raise HttpParseError(f"bad request line: {start!r}")
        self._pending = RawHttpRequest(parts[0], parts[1], intern(parts[2]),
                                       headers, b"", offset=self._msg_offset)
        self._body = bytearray()
        return self._start_body(_framing(headers), out)

    def finish(self) -> list[RawHttpRequest]:
        """End of the client stream; idempotent."""
        return self._finish()


class ResponseParser(_IncrementalParser):
    """Incremental server-direction parser: feed bytes, get responses.

    ``request_methods`` is consulted positionally to frame each response
    (a ``HEAD`` response carries no body bytes whatever its
    ``Content-Length`` says, RFC 9110 §9.3.2).  The list may be shared
    with a request parser and grow between deliveries; with
    ``await_methods=True`` the parser pauses rather than guess when a
    response outruns the requests seen so far.  A response with neither
    ``Content-Length`` nor chunking is held until :meth:`finish`
    resolves whether the connection closed (read-until-close) or the
    capture was merely truncated.
    """

    _kind = "response"

    def __init__(self, request_methods: list[str] | None = None,
                 await_methods: bool = False) -> None:
        super().__init__()
        self._methods = request_methods
        self._await = await_methods
        self._closed = False

    def _begin_message(self, start: str, headers: Headers, out: list) -> bool:
        parts = start.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpParseError(f"bad status line: {start!r}")
        version = intern(parts[0])
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpParseError(f"bad status code: {parts[1]!r}") from exc
        reason = parts[2] if len(parts) > 2 else ""
        self._pending = RawHttpResponse(version, status, reason, headers, b"",
                                        offset=self._msg_offset)
        self._body = bytearray()
        self._state = "frame"
        return True

    def _step_frame(self, out: list) -> bool:
        """Pick the body framing, which may need the request's method."""
        if self._methods and self._count < len(self._methods):
            method = self._methods[self._count]
        else:
            if self._await and not self._finishing:
                return False  # the eliciting request has not parsed yet
            method = ""
        if method == "HEAD":
            self._emit(b"", out)
            return True
        length = _framing(self._pending.headers)
        status = self._pending.status
        if length is None and status >= 200 and status not in (204, 304):
            self._state = "body-close"
            return True
        return self._start_body(length, out)

    def _step_body_close(self, out: list) -> bool:
        if self._buf:
            self._body += self._buf
            self._consume(len(self._buf))
        if self._finishing and self._closed:
            self._emit(bytes(self._body), out)
            return True
        return False  # cannot delimit until the connection closes

    def finish(self, closed: bool = True) -> list[RawHttpResponse]:
        """End of the server stream; idempotent.

        ``closed`` marks a real connection teardown: a pending
        read-until-close body is then emitted; otherwise (capture
        truncation) it is dropped, matching the batch parser.
        """
        self._closed = closed
        return self._finish()

    _steps = {**_IncrementalParser._steps, "frame": _step_frame,
              "body-close": _step_body_close}


def parse_requests(data: bytes) -> list[RawHttpRequest]:
    """Parse a client-direction byte stream into pipelined requests.

    A trailing incomplete message (cut off by capture truncation) is
    silently dropped; a malformed *leading* message raises
    :class:`HttpParseError`.
    """
    parser = RequestParser()
    requests = parser.feed(data)
    requests.extend(parser.finish())
    return requests


def parse_responses(
    data: bytes,
    closed: bool = True,
    request_methods: list[str] | None = None,
) -> list[RawHttpResponse]:
    """Parse a server-direction byte stream into pipelined responses.

    ``closed`` indicates the connection terminated; a final response with
    neither ``Content-Length`` nor chunking is then read-until-close.

    ``request_methods`` (when known) positions-matches responses to the
    requests that elicited them: a response to ``HEAD`` carries headers
    describing the entity but **no body bytes**, whatever its
    ``Content-Length`` says (RFC 9110 §9.3.2) — without this the framing
    of every later response on the connection would shift.
    """
    parser = ResponseParser(request_methods=request_methods)
    responses = parser.feed(data)
    responses.extend(parser.finish(closed=closed))
    return responses


def serialize_request(req: RawHttpRequest) -> bytes:
    """Serialize a request back to wire format (Content-Length framing)."""
    headers = req.headers.copy()
    headers.remove("Transfer-Encoding")
    if req.body or req.method in ("POST", "PUT"):
        headers.set("Content-Length", str(len(req.body)))
    lines = [f"{req.method} {req.uri} {req.version}".encode("latin-1")]
    lines.extend(
        f"{name}: {value}".encode("latin-1") for name, value in headers
    )
    return _CRLF.join(lines) + _HEADER_END + req.body


def serialize_response(res: RawHttpResponse) -> bytes:
    """Serialize a response back to wire format (Content-Length framing)."""
    headers = res.headers.copy()
    headers.remove("Transfer-Encoding")
    headers.set("Content-Length", str(len(res.body)))
    reason = res.reason or "OK"
    lines = [f"{res.version} {res.status} {reason}".encode("latin-1")]
    lines.extend(
        f"{name}: {value}".encode("latin-1") for name, value in headers
    )
    return _CRLF.join(lines) + _HEADER_END + res.body
