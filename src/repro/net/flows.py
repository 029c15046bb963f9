"""End-to-end flow assembly: pcap packets <-> HTTP transactions.

:class:`LiveDecoder` is the one decode pipeline (Ethernet -> IPv4 ->
TCP -> reassembly -> HTTP/1.x -> domain model), with one connection
lifecycle and one :class:`OverloadPolicy`.  The live tap feeds it a
record at a time and polls as it goes; ``transactions_from_packets``,
the path the paper's offline analytics takes over its PCAP corpus,
ingests a whole capture and polls each connection once.  Its HTTP stage
is :class:`StreamPairer`: the parsers build the model's messages
straight from the reassembly buffers, and the pairer adds the host,
client and timestamps and pairs them.

``packets_from_trace`` is the inverse: it materializes a synthetic
:class:`~repro.core.model.Trace` as real Ethernet/IPv4/TCP packets, so the
whole substrate is exercised round-trip in tests and examples.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from dataclasses import dataclass, field, replace

from repro.core.model import HttpRequest, HttpTransaction, Trace
from repro.core.payloads import authority_host
from repro.exceptions import HttpParseError, PcapError
from repro.net.http1 import (
    RequestParser,
    ResponseParser,
    serialize_request,
    serialize_response,
)
from repro.net.packets import (
    ACK,
    FIN,
    IPPROTO_TCP,
    IpFragmentReassembler,
    PSH,
    SYN,
    decode_ethernet,
    decode_ipv4,
    decode_tcp,
    decode_tcp_frame,
    encode_tcp_in_ipv4_ethernet,
    ETHERTYPE_IPV4,
)
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, PcapPacket
from repro.net.reassembly import (
    DEFAULT_MAX_BUFFERED,
    FlowKey,
    StreamDirection,
    TcpReassembler,
    TcpStream,
)
from repro.obs import get_registry

__all__ = [
    "AddressBook",
    "LiveDecoder",
    "OverloadPolicy",
    "StreamPairer",
    "decode_segment",
    "transactions_from_packets",
    "packets_from_trace",
]


@dataclass
class AddressBook:
    """Deterministic bidirectional host-name <-> IPv4 mapping.

    Synthetic traces speak in host names; the packet layer speaks in IP
    addresses.  Addresses are derived from a stable hash of the host name
    so the same name maps to the same address across runs, with collision
    fallback to sequential assignment.
    """

    _by_name: dict[str, str] = field(default_factory=dict)
    _by_ip: dict[str, str] = field(default_factory=dict)
    _serial: int = 0

    def ip_of(self, host: str) -> str:
        """Return (allocating if needed) the IPv4 address for ``host``."""
        known = self._by_name.get(host)
        if known is not None:
            return known
        digest = hashlib.sha256(host.encode("utf-8")).digest()
        candidate = f"10.{digest[0]}.{digest[1]}.{max(1, digest[2])}"
        while candidate in self._by_ip:
            self._serial += 1
            hi, lo = divmod(self._serial, 250)
            candidate = f"172.16.{hi % 250}.{lo + 1}"
        self._by_name[host] = candidate
        self._by_ip[candidate] = host
        return candidate

    def host_of(self, ip: str) -> str:
        """Host name previously mapped to ``ip``, or the ip itself."""
        return self._by_ip.get(ip, ip)


def decode_segment(data: bytes, linktype: int, defragment) -> tuple | None:
    """Decode one link-layer record down to a flat TCP segment.

    Returns ``(src, dst, src_port, dst_port, seq, ack, flags, window,
    payload)``; ``None`` when there is no complete TCP segment (not
    IPv4, not TCP, or a fragment of a datagram that ``defragment``, an
    :meth:`IpFragmentReassembler.feed`, is still assembling); raises
    :class:`PcapError` for a mangled frame.
    """
    if linktype == LINKTYPE_ETHERNET:
        segment = decode_tcp_frame(data)
        if segment is not None:
            return segment
        frame = decode_ethernet(data)
        if frame.ethertype != ETHERTYPE_IPV4:
            return None
        data = frame.payload
    elif linktype != LINKTYPE_RAW_IP:
        return None
    ip = defragment(decode_ipv4(data))
    if ip is None or ip.protocol != IPPROTO_TCP:
        return None
    tcp = decode_tcp(ip.payload)
    return (ip.src, ip.dst, tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack,
            tcp.flags, tcp.window, tcp.payload)


class StreamPairer:
    """Incremental request/response pairing for one reassembled stream.

    The pairer is the stream's ``consumer`` and is handed the stream on
    each :meth:`poll` (it keeps no reference back, so the two form no
    cycle and go with the connection table's entry).  Each poll steps
    the resumable HTTP parsers over the bytes newly contiguous on either
    direction (a parser's ``buffer`` *is* the direction's ``data``),
    stamps each completed message with what only the connection knows
    (host, client, timestamps from the arrival marks), and pairs every
    response with the oldest unanswered request.
    Unanswered requests stay queued until their response lands or a
    ``final`` poll (connection close / end of capture) flushes them.
    How often a stream is polled is :class:`LiveDecoder`'s schedule:
    once per touching record on the tap, once in all for a capture.

    A stream that is not HTTP (TLS, P2P, corruption), or stops being
    HTTP at a 2xx answer to ``CONNECT``, sets :attr:`rejected`: that
    poll still pairs what was framed before the rejected bytes and
    flushes the queued requests unanswered; callers stop polling the
    stream then.
    """

    def __init__(self, book: AddressBook | None = None):
        self.book = book
        self._requests = RequestParser()
        self._responses = ResponseParser(
            request_methods=self._requests.methods, await_methods=True)
        #: Each direction's ``end`` when its parser last stepped.
        self._request_end = self._response_end = 0
        self._unanswered: deque[HttpRequest] = deque()
        self.rejected = False
        metrics = get_registry()
        self._counted = metrics.enabled
        self._c_feeds = metrics.counter("http.parser_feeds")
        self._c_requests = metrics.counter("http.requests")
        self._c_responses = metrics.counter("http.responses")
        self._c_transactions = metrics.counter("http.transactions")
        self._c_orphans = metrics.counter("http.orphan_responses")
        self._c_unanswered = metrics.counter("http.unanswered_flushed")

    def poll(self, stream: TcpStream,
             final: bool = False) -> list[HttpTransaction]:
        """Advance parsing of ``stream``; returns the transactions
        completed since the last poll."""
        if stream.client is None:
            return []
        out: list[HttpTransaction] = []
        counted = self._counted  # a disabled registry costs no calls
        client_state = server_state = None
        for src, state in stream.directions.items():  # one entry or two
            if src == stream.client:
                client_state = state
            else:
                server_state = state
        # A parser is stepped only when its input changed — new bytes,
        # end of stream or, for responses, new request methods to frame
        # by: a stalled parser re-stepped over the same input moves
        # nothing, nor does re-trimming an untouched direction's marks.
        new_methods = False
        fresh = client_state is not None and (
            client_state.end != self._request_end)
        if fresh or (final and client_state is not None):
            self._request_end = client_state.end
            if fresh and counted:
                self._c_feeds.inc()
            parser = self._requests
            requests = self._frame(parser, client_state, final)
            if requests:
                if counted:
                    self._c_requests.inc(len(requests))
                book = self.book
                client, server = stream.client[0], stream.server[0]
                if book is not None:
                    client, server = book.host_of(client), book.host_of(server)
                for request, start in zip(requests, parser.starts):
                    # Lower-case, like every host it is compared with (evasion).
                    request.host = authority_host(
                        request.headers.get("Host") or server)
                    request.client = client
                    request.timestamp = client_state.timestamp_at(start)
                    self._unanswered.append(request)
                parser.starts.clear()
                new_methods = True
            client_state.trim_marks(parser.pending_offset)
        fresh = server_state is not None and (
            server_state.end != self._response_end)
        if fresh or ((new_methods or final) and server_state is not None):
            self._response_end = server_state.end
            if fresh and counted:
                self._c_feeds.inc()
            parser = self._responses
            # After a request-side rejection no end of stream frames a
            # response (read-until-close): only what its bytes delimit.
            responses = self._frame(parser, server_state,
                                    final and not self.rejected)
            if counted:
                self._c_responses.inc(len(responses))
            for response, start in zip(responses, parser.starts):
                if not self._unanswered:
                    # Responses outrunning requests are dropped: a
                    # pairing mismatch worth watching on a live tap.
                    # Every orphan in the batch is drained and counted
                    # individually — bailing out on the first would
                    # silently discard (and undercount) the rest.
                    self._c_orphans.inc()
                    continue
                request = self._unanswered.popleft()
                response.timestamp = max(server_state.timestamp_at(start),
                                         request.timestamp)
                out.append(HttpTransaction(request, response))
            parser.starts.clear()
            server_state.trim_marks(parser.pending_offset)
        if final or self.rejected:
            while self._unanswered:
                self._c_unanswered.inc()
                out.append(HttpTransaction(self._unanswered.popleft()))
        if out and counted:
            self._c_transactions.inc(len(out))
        return out

    def _frame(self, parser: RequestParser | ResponseParser,
               state: StreamDirection, final: bool) -> list:
        """Step ``parser`` over ``state``'s buffer (and its end when
        ``final``); a rejection keeps the messages framed before it."""
        parser.buffer = state.data
        messages = []
        try:
            messages = parser.feed(b"")
            if final:
                messages += parser.finish()
        except HttpParseError as exc:
            self.rejected = True
            messages += exc.completed
        return messages


@dataclass(frozen=True)
class OverloadPolicy:
    """Explicit load-shedding rules for a saturated tap.

    A live tap cannot apply backpressure to the wire, so overload has to
    shed *something*; this policy makes the shedding deliberate and
    observable rather than an exception or an unbounded buffer.  A
    capture decoded with the same policy degrades the same connections:

    * ``max_connections`` — cap on concurrently tracked *live*
      connections (closed connections awaiting eviction do not count).
      Segments that would *open* a connection past the cap are dropped
      and counted (``decode.dropped``); established connections keep
      flowing, so a SYN/connection flood degrades new-flow visibility
      first and never evicts live sessions.
    * ``max_buffered_per_direction`` — cap on out-of-order bytes held
      per stream direction.  A direction exceeding it stops being
      reassembled (its decoded prefix stands) and is counted
      (``reassembly.overflows``); the rest of the tap is unaffected.
    * ``closed_linger`` — stream-seconds a closed connection is retained
      before its state is evicted.  The linger absorbs post-close
      chatter (trailing ACKs, late retransmissions) exactly like TCP's
      TIME_WAIT; a fresh SYN reusing the 4-tuple inside the window
      evicts immediately and starts a new conversation.
    """

    max_connections: int = 100_000
    max_buffered_per_direction: int = DEFAULT_MAX_BUFFERED
    closed_linger: float = 60.0


class LiveDecoder:
    """Incremental pcap-record -> HTTP-transaction decoder.

    Every record takes one ingest step: decode (a mangled frame is
    counted as ``decode.errors`` and skipped), linger and tuple-reuse
    eviction, the ``max_connections`` shed and reassembly.  When a
    connection is polled is the caller's schedule:

    * :meth:`feed` (the tap) polls the connection a record touched, so a
      transaction surfaces as soon as its response is complete;
    * :func:`transactions_from_packets` (a capture) ingests every record
      first and polls each connection once, ``final``: when it is
      evicted, or at :meth:`flush`.

    A closed connection lingers for ``OverloadPolicy.closed_linger``
    stream-seconds and is then evicted whole (its pairer hangs off its
    reassembler entry), so a long-running tap holds state for the
    connections of one linger window, not for every one it has seen.
    """

    def __init__(self, linktype: int = LINKTYPE_ETHERNET,
                 book: AddressBook | None = None,
                 policy: OverloadPolicy | None = None):
        self.linktype = linktype
        self.book = book
        self.policy = policy if policy is not None else OverloadPolicy()
        #: The connection table; a connection's pairer rides on its
        #: stream, in ``stream.consumer``.
        self._reassembler = TcpReassembler(
            max_buffered=self.policy.max_buffered_per_direction
        )
        #: Its key -> stream dict, for a membership test per record
        #: without a method call.
        self._streams = self._reassembler._streams
        self._defragment = IpFragmentReassembler().feed
        #: Closed connections awaiting eviction, keyed to the stream
        #: time of their last activity.  Insertion order is
        #: last-activity order (entries are re-appended on post-close
        #: chatter), so the linger sweep pops from the front.
        self._closed: dict[FlowKey, float] = {}
        #: Transactions of evicted connections that had never been
        #: polled (the capture schedule); :meth:`flush` emits them.
        self._evicted: list[HttpTransaction] = []
        self._metrics = get_registry()
        self._counted = self._metrics.enabled
        self._c_packets = self._metrics.counter("decode.packets")
        self._c_bytes = self._metrics.counter("decode.bytes")
        self._c_errors = self._metrics.counter("decode.errors")
        self._c_dropped = self._metrics.counter("decode.dropped")
        self._c_not_http = self._metrics.counter("decode.non_http_streams")
        self._c_evicted = self._metrics.counter("decode.evicted_connections")
        self._g_live = self._metrics.gauge("decode.live_connections")

    @property
    def live_connections(self) -> int:
        """Connections currently tracked and not yet closed."""
        return len(self._reassembler) - len(self._closed)

    def feed(self, packet: PcapPacket) -> list[HttpTransaction]:
        """Ingest one pcap record; returns newly completed transactions."""
        if not self._counted:
            stream = self._ingest(packet)
            return self._drain(stream, stream.closed) if stream else []
        with self._metrics.span("decode.feed"):
            stream = self._ingest(packet)
            emitted = self._drain(stream, stream.closed) if stream else []
        self._g_live.set(self.live_connections)
        return emitted

    def _ingest(self, packet: PcapPacket) -> TcpStream | None:
        """One record's ingest step; returns its connection when that has
        something to poll (new payload, or it is closed)."""
        if self._counted:
            self._c_packets.inc()
            self._c_bytes.inc(len(packet.data))
        try:
            segment = decode_segment(packet.data, self.linktype,
                                     self._defragment)
        except PcapError:
            self._c_errors.inc()
            return None
        if segment is None:
            return None
        ts = packet.timestamp
        src, dst, src_port, dst_port, _, _, flags, _, payload = segment
        key = FlowKey.of(src, src_port, dst, dst_port)
        closed, streams = self._closed, self._streams
        if closed:
            # Evict connections past their linger; the first key is the oldest.
            linger = self.policy.closed_linger
            while closed:
                for oldest in closed:
                    break
                if ts - closed[oldest] < linger:
                    break
                self._evict(oldest)
            if flags & (SYN | ACK) == SYN and key in closed:
                # TIME_WAIT-style tuple reuse: a fresh SYN means a
                # new conversation — release the finished one's
                # state now rather than at linger expiry.
                self._evict(key)
        if (
            key not in streams
            and len(streams) - len(closed) >= self.policy.max_connections
        ):
            # Overload shed (OverloadPolicy): refuse to open
            # connections past the cap, visibly.
            self._c_dropped.inc()
            return None
        stream = self._reassembler.feed(ts, segment, key)
        if stream.closed:
            # Mark (or refresh) the linger slot; re-append keeps
            # the dict ordered by last activity.
            closed.pop(key, None)
            closed[key] = ts
            return stream
        # Only payload can make new bytes contiguous: a bare
        # ACK/SYN/FIN on an open stream has nothing to parse.
        return stream if payload else None

    def flush(self) -> list[HttpTransaction]:
        """End-of-capture: emit whatever is still pending everywhere."""
        emitted, self._evicted = self._evicted, []
        for stream in self._reassembler.streams():
            emitted += self._drain(stream, final=True)
        return emitted

    def _evict(self, key: FlowKey) -> None:
        """Drop every bit of per-connection state for ``key``."""
        self._closed.pop(key, None)
        stream = self._reassembler.evict(key)
        if stream.consumer is None:
            # Never polled (the capture schedule): its one poll is now.
            self._evicted += self._drain(stream, final=True)
        self._c_evicted.inc()

    def _drain(self, stream: TcpStream, final: bool) -> list[HttpTransaction]:
        pairer = stream.consumer
        if pairer is None and stream.client is not None:
            pairer = stream.consumer = StreamPairer(self.book)
        emitted = pairer.poll(stream, final) if pairer else []
        if pairer and pairer.rejected:
            stream.consumer = pairer = False
            self._c_not_http.inc()
        if pairer is False:
            # Not HTTP: the transactions framed before the rejected bytes
            # stand, and no payload is kept (a direction first seen
            # since included).
            for state in stream.directions.values():
                state.abandon()
        return emitted


def transactions_from_packets(
    packets: list[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
    book: AddressBook | None = None,
    policy: OverloadPolicy | None = None,
) -> list[HttpTransaction]:
    """Full pipeline: pcap records -> HTTP transactions by timestamp.

    A :class:`LiveDecoder` on the capture schedule: the tap's connection
    lifecycle, ``policy`` and error path, each connection polled once.
    """
    decoder = LiveDecoder(linktype, book, policy)
    ingest = decoder._ingest
    for packet in packets:
        ingest(packet)
    transactions = decoder.flush()
    transactions.sort(key=lambda t: t.timestamp)
    return transactions


class _ConnectionEncoder:
    """Emits a well-formed TCP conversation for one client/server pair."""

    def __init__(self, client_ip: str, server_ip: str, client_port: int):
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.client_port = client_port
        self.server_port = 80
        seed = zlib.crc32(f"{client_ip}:{client_port}".encode()) & 0xFFFFFF
        self.client_seq = 1000 + seed
        self.server_seq = 2000 + seed

    def _frame(
        self, ts: float, from_client: bool, flags: int, payload: bytes = b""
    ) -> PcapPacket:
        if from_client:
            data = encode_tcp_in_ipv4_ethernet(
                self.client_ip, self.server_ip, self.client_port,
                self.server_port, self.client_seq, self.server_seq,
                flags, payload,
            )
            self.client_seq += len(payload) + (1 if flags & (SYN | FIN) else 0)
        else:
            data = encode_tcp_in_ipv4_ethernet(
                self.server_ip, self.client_ip, self.server_port,
                self.client_port, self.server_seq, self.client_seq,
                flags, payload,
            )
            self.server_seq += len(payload) + (1 if flags & (SYN | FIN) else 0)
        return PcapPacket(timestamp=ts, data=data)

    def open(self, ts: float) -> list[PcapPacket]:
        """Three-way handshake."""
        return [
            self._frame(ts, True, SYN),
            self._frame(ts + 1e-4, False, SYN | ACK),
            self._frame(ts + 2e-4, True, ACK),
        ]

    def send(self, ts: float, from_client: bool, payload: bytes) -> list[PcapPacket]:
        """One data push, split into <=1400-byte segments."""
        frames = []
        for offset in range(0, len(payload), 1400):
            chunk = payload[offset : offset + 1400]
            flags = PSH | ACK if offset + 1400 >= len(payload) else ACK
            frames.append(self._frame(ts + offset * 1e-9, from_client, flags, chunk))
        return frames

    def close(self, ts: float) -> list[PcapPacket]:
        """Graceful FIN/ACK teardown."""
        return [
            self._frame(ts, True, FIN | ACK),
            self._frame(ts + 1e-4, False, FIN | ACK),
            self._frame(ts + 2e-4, True, ACK),
        ]


def packets_from_trace(
    trace: Trace,
    book: AddressBook | None = None,
) -> tuple[list[PcapPacket], AddressBook]:
    """Materialize a synthetic trace as Ethernet/IPv4/TCP packets.

    One TCP connection is opened per (client, server) pair and all of the
    pair's transactions ride it in order (persistent connection).  Returns
    the packets sorted by timestamp together with the address book used,
    so callers can map IPs back to host names after a round-trip.
    """
    book = book or AddressBook()
    encoders: dict[tuple[str, str], _ConnectionEncoder] = {}
    packets: list[PcapPacket] = []
    next_port = 40000
    last_ts: dict[tuple[str, str], float] = {}
    for txn in trace.transactions:
        pair = (txn.client, txn.server)
        encoder = encoders.get(pair)
        if encoder is None:
            encoder = _ConnectionEncoder(
                book.ip_of(txn.client), book.ip_of(txn.server), next_port
            )
            next_port += 1
            encoders[pair] = encoder
            packets.extend(encoder.open(txn.timestamp - 5e-4))
        req = txn.request
        headers = req.headers.copy()
        headers.set("Host", txn.server)
        packets.extend(encoder.send(
            req.timestamp, True, serialize_request(replace(req, headers=headers))
        ))
        if txn.response is not None:
            res = txn.response
            if not res.body:
                res = replace(res, body=b"\x00" * min(res.body_size, 2048))
            packets.extend(
                encoder.send(res.timestamp, False, serialize_response(res))
            )
            last_ts[pair] = res.timestamp
        else:
            last_ts[pair] = req.timestamp
    for pair, encoder in encoders.items():
        packets.extend(encoder.close(last_ts[pair] + 1e-3))
    packets.sort(key=lambda p: p.timestamp)
    return packets, book
