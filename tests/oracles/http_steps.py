"""The step-table HTTP parsers the per-direction scanner replaced.

``repro.net.http1`` keeps each message in its direction buffer until
its end is there and then slices it off whole.  These are the parsers
it replaced, unchanged: a per-class ``_steps`` table of states
(``headers``, ``body``, ``chunk-size``, ``chunk-data``, ``chunk-term``,
``chunk-trailers``, and for responses ``frame`` and ``body-close``)
that consume the buffer as they go and accumulate each body in
``_body``.  ``tests/net/test_http_scanner.py`` runs both over the same
generated streams, cut at random points, and requires the same
messages, ``starts``, ``methods``, ``pending_offset`` and errors.

One known defect stays here, as it was: a negative chunk size
(``int(b"-5", 16)``) is taken as a size, so the data step slices the
buffer from its wrong end and moves the stream offset back.  The
scanner refuses it as a bad chunk size.
"""

from __future__ import annotations

from sys import intern

from repro.core.model import Headers, HttpMethod, HttpRequest, HttpResponse
from repro.exceptions import HttpParseError
from repro.net.http1 import (
    _CHUNKED,
    _CRLF,
    _HEADER_END,
    _MAX_HEADER_BYTES,
    _framing,
    _split_headers,
)

#: Parser state at end of stream -> what :meth:`finish` reports cut off.
_TRUNCATED = {"chunk-size": "chunk size line", "chunk-data": "chunk body",
              "chunk-term": "chunk body", "chunk-trailers": "chunk trailers"}


class _IncrementalParser:
    """Resumable framing machinery shared by both message directions.

    ``buffer`` holds only the not-yet-framed tail of the stream: framed
    bytes are deleted as the cursor advances, and repeated ``find`` scans
    restart from where the previous delivery stopped.  Bytes reach it
    through :meth:`feed`, or its owner appends them (the reassembler's
    direction buffer) before a ``feed(b"")``.  Malformed content (bad
    start line, bad chunk size, ...) raises :class:`HttpParseError` as
    soon as it arrives, carrying the messages framed before it;
    truncation merely pauses the parser until more bytes are fed or
    :meth:`finish` declares the end of the stream.
    """

    _kind = "message"

    def __init__(self) -> None:
        self.buffer = bytearray()
        #: Absolute stream offset of ``buffer[0]``.
        self._base = 0
        #: Buffer-relative restart hint for delimiter scans.
        self._scan = 0
        self._state = "headers"
        #: Absolute stream offset where the current (partial) message
        #: starts: everything before it is framed, so a caller may drop
        #: earlier per-offset bookkeeping (e.g. timestamp marks).
        self.pending_offset = 0
        #: Stream offsets where the emitted messages start, in emission
        #: order; the caller clears the list once it has read them.
        self.starts: list[int] = []
        #: The framed message's start-line fields and headers, and how
        #: many messages came before it.
        self._line: list[str] | tuple[str, int] = []
        self._headers: Headers | None = None
        self._count = 0
        self._body = bytearray()
        self._need = 0
        self._finishing = False
        self._done = False

    # -- byte plumbing ------------------------------------------------------

    def _consume(self, count: int) -> None:
        del self.buffer[:count]
        self._base += count
        self._scan = 0

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
        steps = self._steps  # per class, filled in below the steps
        try:
            while steps[self._state](self, out):
                pass
        except HttpParseError as exc:
            exc.completed = out
            raise
        return out

    def finish(self) -> list:
        """Declare end-of-stream; idempotent.  Returns the messages
        completable at EOF.

        A stream cut off inside a chunked body raises the batch-identical
        truncation error; any other cut-off tail is silently dropped
        ("frame" included: the method never resolved, ``_step_frame``
        framed it with none under ``_finishing``, and the framed body was
        then cut off).
        """
        if self._done:
            return []
        self._finishing = True
        out = self._run([])
        self._done = True
        del self.buffer[:]  # what is left is the cut-off tail
        cut = _TRUNCATED.get(self._state)
        if cut:
            error = HttpParseError(f"truncated {cut}")
            error.completed = out
            raise error
        return out

    # -- state machine ------------------------------------------------------

    def _step_headers(self, out: list) -> bool:
        buf = self.buffer
        if not buf:
            return False
        self.pending_offset = self._base
        end = buf.find(_HEADER_END, self._scan)
        # One limit however the block arrives: fed a byte at a time, the
        # buffer is 3 bytes past ``end`` just before the terminator lands.
        if (len(buf) if end < 0 else end + 3) > _MAX_HEADER_BYTES:
            raise HttpParseError(f"oversized {self._kind} header block")
        if end < 0:
            self._scan = max(0, len(buf) - 3)
            return False
        block = buf[:end]
        self._consume(end + 4)
        start, self._headers = _split_headers(block)
        return self._begin_message(start, out)

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

    def _step_data(self, out: list) -> bool:
        """Frame a ``body`` or a chunk's data: ``_need`` more bytes."""
        take = min(len(self.buffer), self._need)
        if take:
            self._body += self.buffer[:take]
            self._consume(take)
            self._need -= take
        if self._need:
            return False
        if self._state == "body":
            self._emit(bytes(self._body), out)
        else:
            self._state = "chunk-term"
        return True

    def _step_chunk_size(self, out: list) -> bool:
        line_end = self.buffer.find(_CRLF, self._scan)
        if line_end < 0:
            self._scan = max(0, len(self.buffer) - 1)
            return False
        size_token = bytes(self.buffer[:line_end]).split(b";", 1)[0].strip()
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

    def _step_chunk_term(self, out: list) -> bool:
        if len(self.buffer) < 2:
            return False
        if self.buffer[:2] != _CRLF:
            raise HttpParseError("missing chunk terminator")
        self._consume(2)
        self._state = "chunk-size"
        return True

    def _step_chunk_trailers(self, out: list) -> bool:
        # buffer[0:2] is the CRLF that closed the zero-size line, so with
        # no trailers the terminator is found at 0.
        end = self.buffer.find(_HEADER_END, self._scan)
        if end >= 0:
            self._consume(end + 4)
            self._emit(bytes(self._body), out)
            return True
        self._scan = max(0, len(self.buffer) - 3)
        return False

    def _emit(self, body: bytes, out: list) -> None:
        out.append(self._message(body))
        self.starts.append(self.pending_offset)
        self._count += 1
        self._state = "headers"
        self.pending_offset = self._base

    _steps = {
        "headers": _step_headers,
        "body": _step_data,
        "chunk-size": _step_chunk_size,
        "chunk-data": _step_data,
        "chunk-term": _step_chunk_term,
        "chunk-trailers": _step_chunk_trailers,
    }


class RequestParser(_IncrementalParser):
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

    def _begin_message(self, start: str, out: list) -> bool:
        parts = start.split(" ", 2)
        if len(parts) < 3 or not parts[2].startswith("HTTP/"):
            raise HttpParseError(f"bad request line: {start!r}")
        self._line = parts
        self._body = bytearray()
        return self._start_body(_framing(self._headers), out)

    def _message(self, body: bytes) -> HttpRequest:
        verb, uri, version = self._line
        self.methods.append(verb)
        return HttpRequest(HttpMethod.of(verb), uri, "", "", 0.0,
                           self._headers, body, intern(version))


class ResponseParser(_IncrementalParser):
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

    def _begin_message(self, start: str, out: list) -> bool:
        parts = start.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpParseError(f"bad status line: {start!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpParseError(f"bad status code: {parts[1]!r}") from exc
        self._line = (parts[0], status)
        self._body = bytearray()
        self._state = "frame"
        return True

    def _message(self, body: bytes) -> HttpResponse:
        return HttpResponse(self._line[1], 0.0, self._headers, body,
                            intern(self._line[0]))

    def _step_frame(self, out: list) -> bool:
        """Pick the body framing, which may need the request's method."""
        if self._methods and self._count < len(self._methods):
            method = self._methods[self._count]
        else:
            if self._await and not self._finishing:
                return False  # the eliciting request has not parsed yet
            method = ""
        status = self._line[1]
        if method == "HEAD":
            self._emit(b"", out)
            return True
        if method == "CONNECT" and 200 <= status < 300:
            # The tunnel's bytes follow, not HTTP (RFC 9110 §9.3.6).
            self._emit(b"", out)
            raise HttpParseError("CONNECT tunnel")
        length = _framing(self._headers)
        if length is None and status >= 200 and status not in (204, 304):
            self._state = "body-close"
            return True
        return self._start_body(length, out)

    def _step_body_close(self, out: list) -> bool:
        if self.buffer:
            self._body += self.buffer
            self._consume(len(self.buffer))
        if self._finishing and self._closed:
            self._emit(bytes(self._body), out)
            return True
        return False  # cannot delimit until the connection closes

    def finish(self, closed: bool = True) -> list[HttpResponse]:
        """End of the server stream; idempotent.

        ``closed`` marks a real connection teardown: a pending
        read-until-close body is then emitted; otherwise (capture
        truncation) it is dropped, matching the batch parser.
        """
        self._closed = closed
        return super().finish()

    _steps = {**_IncrementalParser._steps, "frame": _step_frame,
              "body-close": _step_body_close}
