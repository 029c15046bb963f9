"""Reference header-block handling: split the block as ``bytes``, decode
every piece on its own, and find ``Transfer-Encoding`` and
``Content-Length`` with one ``Headers.get`` each — what
``repro.net.http1`` did before ``_split_headers`` decoded the block once
and ``_framing`` read both headers in one scan."""

import re

from repro.core.model import Headers
from repro.exceptions import HttpParseError

_CRLF = b"\r\n"


def split_headers_reference(block: bytes) -> tuple[str, Headers]:
    """Split a header block into (start line, Headers)."""
    lines = block.split(_CRLF)
    start = lines[0].decode("latin-1")
    items: list[tuple[str, str]] = []
    for line in lines[1:]:
        if not line:
            continue
        if line[:1] in (b" ", b"\t") and items:
            # Obsolete header folding: append to the previous value.
            name, value = items[-1]
            items[-1] = (name, value + " " + line.strip().decode("latin-1"))
            continue
        if b":" not in line:
            raise HttpParseError(f"malformed header line: {line[:60]!r}")
        name, _, value = line.partition(b":")
        items.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
    return start, Headers(items)


def body_length_reference(headers: Headers) -> int | None:
    """Declared body length, or None when unspecified."""
    declared = headers.get("Content-Length")
    if declared:
        try:
            length = int(declared)
        except ValueError as exc:
            raise HttpParseError(f"bad Content-Length: {declared!r}") from exc
        if length < 0:
            raise HttpParseError(f"negative Content-Length: {length}")
        if not re.fullmatch("[0-9]+", declared):  # RFC 9112: 1*DIGIT
            raise HttpParseError(f"bad Content-Length: {declared!r}")
        return length
    return None


def is_chunked_reference(headers: Headers) -> bool:
    return "chunked" in headers.get("Transfer-Encoding", "").lower()
