"""Domain model: HTTP transactions and the hosts that exchange them.

These dataclasses are the lingua franca of the library.  The network
substrate (``repro.net``) produces them from raw packets, the synthetic
trace generators (``repro.synthesis``) produce them directly, and the WCG
builder (``repro.core.builder``) consumes them.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field

from repro.core.payloads import (
    PayloadType,
    authority_host,
    classify,
    url_parts,
)

__all__ = [
    "HttpMethod",
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "HttpTransaction",
    "Trace",
    "TraceLabel",
]


class HttpMethod(enum.Enum):
    """HTTP request methods; ``OTHER`` covers the long tail (f28)."""

    GET = "GET"
    POST = "POST"
    HEAD = "HEAD"
    PUT = "PUT"
    DELETE = "DELETE"
    OPTIONS = "OPTIONS"
    CONNECT = "CONNECT"
    OTHER = "OTHER"

    @classmethod
    def of(cls, verb: str) -> "HttpMethod":
        """Parse a request verb, mapping unknown verbs to ``OTHER``."""
        return _METHODS.get(verb) or _METHODS.get(verb.upper(), cls.OTHER)


_METHODS = {method.value: method for method in HttpMethod}


class Headers:
    """Case-insensitive, order-preserving HTTP header multimap.

    ``version`` counts mutations, so a reader that derived something
    from the headers (:attr:`HttpRequest.referrer_host`) can tell when
    to derive it again without the map carrying an index.
    """

    __slots__ = ("_items", "version")

    def __init__(self, items: list[tuple[str, str]] | dict[str, str] | None = None):
        if isinstance(items, dict):
            self._items: list[tuple[str, str]] = list(items.items())
        else:
            self._items = list(items or [])
        self.version = 0

    def get(self, name: str, default: str = "") -> str:
        """First value for ``name`` (case-insensitive), else ``default``."""
        lowered = name.lower()
        for key, value in self._items:
            # Identity settles interned names; first match either way wins.
            if key == name or key.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        """All values for ``name`` in original order."""
        lowered = name.lower()
        return [value for key, value in self._items if key.lower() == lowered]

    def set(self, name: str, value: str) -> None:
        """Replace all occurrences of ``name`` with a single value."""
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self._items.append((name, value))
        self.version += 1

    def add(self, name: str, value: str) -> None:
        """Append a header without removing existing occurrences."""
        self._items.append((name, value))
        self.version += 1

    def remove(self, name: str) -> None:
        """Delete all occurrences of ``name``."""
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self.version += 1

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and any(
            key.lower() == name.lower() for key, _ in self._items
        )

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        """Shallow copy of this header map."""
        return Headers(list(self._items))

    def items(self) -> list[tuple[str, str]]:
        """All ``(name, value)`` pairs in original order."""
        return list(self._items)


@dataclass(slots=True)
class HttpRequest:
    """A single HTTP request as observed on the wire.

    ``host`` is the logical server name (from the ``Host`` header or the
    request URI); ``client`` is the requesting host.  ``timestamp`` is a
    simulated epoch time in seconds.
    """

    method: HttpMethod
    uri: str
    host: str
    client: str
    timestamp: float
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"
    #: ``(headers, headers.version, referrer, referrer_host)`` as last
    #: derived: routing, clue and redirect inference and the WCG builder
    #: each ask for the referrer host of every transaction.  The host is
    #: interned: a watch retains every message, and they name few hosts.
    _referrer_facts: tuple[Headers, int, str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _referrer(self) -> tuple[Headers, int, str, str]:
        facts = self._referrer_facts
        headers = self.headers
        if (facts is None or facts[0] is not headers
                or facts[1] != headers.version):
            ref = headers.get("Referer")
            host = authority_host(url_parts(ref).netloc) if ref else ""
            facts = self._referrer_facts = (headers, headers.version, ref,
                                            sys.intern(host))
        return facts

    @property
    def referrer(self) -> str:
        """Value of the ``Referer`` header (empty when absent/redacted)."""
        return self._referrer()[2]

    @property
    def referrer_host(self) -> str:
        """Hostname component of the referrer, or empty string."""
        return self._referrer()[3]

    @property
    def user_agent(self) -> str:
        """Value of the ``User-Agent`` header."""
        return self.headers.get("User-Agent")

    @property
    def uri_length(self) -> int:
        """Length of the request URI (edge attribute, Section III-C)."""
        return len(self.uri)

    @property
    def full_url(self) -> str:
        """Absolute URL of the request."""
        if self.uri.startswith("http://") or self.uri.startswith("https://"):
            return self.uri
        return f"http://{self.host}{self.uri}"

    @property
    def dnt(self) -> bool:
        """True when the Do-Not-Track header is enabled (graph-level attr)."""
        return self.headers.get("DNT") == "1"


@dataclass(slots=True)
class HttpResponse:
    """A single HTTP response paired with a request."""

    status: int
    timestamp: float
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def content_type(self) -> str:
        """Declared ``Content-Type`` header value."""
        return self.headers.get("Content-Type")

    @property
    def location(self) -> str:
        """``Location`` header value (redirect target), if any."""
        return self.headers.get("Location")

    @property
    def body_size(self) -> int:
        """Payload size in bytes.

        Uses ``Content-Length`` when the body was elided (synthetic traces
        carry sizes without materializing bodies), else actual body length.
        """
        if not self.body:
            declared = self.headers.get("Content-Length")
            if declared.isdigit():
                return int(declared)
        return len(self.body)

    @property
    def is_redirect(self) -> bool:
        """True for 30x responses carrying a ``Location`` header."""
        return 300 <= self.status < 400 and bool(self.location)


@dataclass(slots=True)
class HttpTransaction:
    """A request/response pair — the unit the detector consumes.

    Attributes:
        request: the client request.
        response: the matching server response (``None`` when the server
            never answered, e.g. a timed-out C&C probe).
        payload_type: classified payload type of the response body.
    """

    request: HttpRequest
    response: HttpResponse | None = None
    _payload_type: PayloadType | None = field(default=None, repr=False)

    @property
    def payload_type(self) -> PayloadType:
        """Classified payload type for this transaction's response."""
        if self._payload_type is None:
            if self.response is None:
                self._payload_type = PayloadType.EMPTY
            else:
                self._payload_type = classify(
                    uri=self.request.uri,
                    content_type=self.response.content_type,
                    body=self.response.body,
                )
        return self._payload_type

    @payload_type.setter
    def payload_type(self, value: PayloadType) -> None:
        self._payload_type = value

    @property
    def timestamp(self) -> float:
        """Request timestamp — the transaction's position on the timeline."""
        return self.request.timestamp

    @property
    def duration(self) -> float:
        """Seconds between request and response (0 when unanswered)."""
        if self.response is None:
            return 0.0
        return max(0.0, self.response.timestamp - self.request.timestamp)

    @property
    def server(self) -> str:
        """The contacted server host name."""
        return self.request.host

    @property
    def client(self) -> str:
        """The requesting client host name."""
        return self.request.client

    @property
    def status(self) -> int:
        """Response status code, or 0 when unanswered."""
        return self.response.status if self.response is not None else 0

    @property
    def payload_size(self) -> int:
        """Response payload size in bytes, or 0 when unanswered."""
        return self.response.body_size if self.response is not None else 0


class TraceLabel(enum.Enum):
    """Ground-truth label attached to a trace."""

    BENIGN = "benign"
    INFECTION = "infection"


@dataclass
class Trace:
    """An ordered HTTP transaction capture — our analogue of one PCAP.

    Attributes:
        transactions: transactions ordered by request timestamp.
        label: ground-truth label, if known.
        family: exploit-kit family name for infections (``""`` otherwise).
        origin: the enticement origin (referrer of the first transaction,
            e.g. ``"google.com"``), or ``""`` when unknown/concealed.
        meta: free-form provenance metadata (scenario name, seed, ...).
    """

    transactions: list[HttpTransaction]
    label: TraceLabel | None = None
    family: str = ""
    origin: str = ""
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.transactions = sorted(self.transactions, key=lambda t: t.timestamp)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    @property
    def hosts(self) -> set[str]:
        """All distinct hosts (clients and servers) in the trace."""
        names: set[str] = set()
        for txn in self.transactions:
            names.add(txn.client)
            names.add(txn.server)
        return names

    @property
    def duration(self) -> float:
        """Wall-clock span of the trace in seconds."""
        if not self.transactions:
            return 0.0
        first = self.transactions[0].timestamp
        last = max(
            (
                txn.response.timestamp if txn.response else txn.timestamp
                for txn in self.transactions
            ),
            default=first,
        )
        return max(0.0, last - first)

    @property
    def is_infection(self) -> bool:
        """True when the trace is labelled as an infection."""
        return self.label is TraceLabel.INFECTION
