"""Reference batch HTTP parsing: one ``feed`` of a whole direction's
bytes plus a ``finish`` — what the incremental parsers must equal
however the same bytes are sliced into deliveries."""

from repro.core.model import HttpRequest, HttpResponse
from repro.net.http1 import RequestParser, ResponseParser


def parse_requests(data: bytes) -> list[HttpRequest]:
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
) -> list[HttpResponse]:
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
