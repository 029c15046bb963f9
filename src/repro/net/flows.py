"""End-to-end flow assembly: pcap packets <-> HTTP transactions.

``transactions_from_packets`` drives the full decode pipeline
(Ethernet -> IPv4 -> TCP -> reassembly -> HTTP/1.x -> domain model), the
path the paper's offline analytics takes over its PCAP corpus.

``packets_from_trace`` is the inverse: it materializes a synthetic
:class:`~repro.core.model.Trace` as real Ethernet/IPv4/TCP packets, so the
whole substrate is exercised round-trip in tests and examples.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.core.model import (
    Headers,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    Trace,
)
from repro.core.payloads import authority_host
from repro.exceptions import HttpParseError, PcapError
from repro.net.http1 import (
    RawHttpRequest,
    RawHttpResponse,
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
from repro.net.reassembly import StreamDirection, TcpReassembler, TcpStream
from repro.obs import get_registry

__all__ = [
    "AddressBook",
    "StreamPairer",
    "decode_segment",
    "transactions_from_packets",
    "packets_from_trace",
    "trace_from_packets",
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

    Each :meth:`poll` pulls the bytes newly contiguous on either
    direction through the resumable HTTP parsers (each byte is examined
    once), pairs every freshly completed response with the oldest
    unanswered request, and compacts the direction buffers behind the
    parse cursors.  Requests the server has not answered yet stay queued
    until their response lands or a ``final`` poll (connection close /
    end of capture) flushes them unanswered.

    The batch path (:func:`transactions_from_packets`) is a single
    ``poll(final=True)`` over a fully reassembled stream, so offline and
    live decoding share one implementation and cannot disagree.

    A :class:`HttpParseError` escaping :meth:`poll` means the stream is
    not HTTP (TLS, P2P, corruption); callers should stop polling it.
    """

    def __init__(self, stream: TcpStream, book: AddressBook | None = None):
        self.stream = stream
        self.book = book
        self._methods: list[str] = []
        self._requests = RequestParser()
        self._responses = ResponseParser(request_methods=self._methods,
                                         await_methods=True)
        self._unanswered: deque[HttpRequest] = deque()
        metrics = get_registry()
        self._counted = metrics.enabled
        self._c_feeds = metrics.counter("http.parser_feeds")
        self._c_requests = metrics.counter("http.requests")
        self._c_responses = metrics.counter("http.responses")
        self._c_transactions = metrics.counter("http.transactions")
        self._c_orphans = metrics.counter("http.orphan_responses")
        self._c_unanswered = metrics.counter("http.unanswered_flushed")

    def poll(self, final: bool = False) -> list[HttpTransaction]:
        """Advance parsing; returns transactions completed since last poll."""
        stream = self.stream
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
        # nothing, nor does re-compacting an untouched direction.
        new_methods = False
        chunk = client_state.take() if client_state is not None else b""
        if chunk or (final and client_state is not None):
            if chunk and counted:
                self._c_feeds.inc()
            raw_requests = self._requests.feed(chunk)
            if final:
                raw_requests.extend(self._requests.finish())
            if counted:
                self._c_requests.inc(len(raw_requests))
            for raw_req in raw_requests:
                self._methods.append(raw_req.method)
                self._unanswered.append(
                    self._build_request(raw_req, client_state)
                )
            new_methods = bool(raw_requests)
            client_state.compact(
                keep_marks_from=self._requests.pending_offset
            )
        chunk = server_state.take() if server_state is not None else b""
        if chunk or ((new_methods or final) and server_state is not None):
            if chunk and counted:
                self._c_feeds.inc()
            raw_responses = self._responses.feed(chunk)
            if final:
                raw_responses.extend(self._responses.finish(closed=True))
            if counted:
                self._c_responses.inc(len(raw_responses))
            for raw_res in raw_responses:
                if not self._unanswered:
                    # Responses outrunning requests are dropped: a
                    # pairing mismatch worth watching on a live tap.
                    # Every orphan in the batch is drained and counted
                    # individually — bailing out on the first would
                    # silently discard (and undercount) the rest.
                    self._c_orphans.inc()
                    continue
                request = self._unanswered.popleft()
                response = self._build_response(raw_res, server_state, request)
                out.append(HttpTransaction(request=request, response=response))
            server_state.compact(
                keep_marks_from=self._responses.pending_offset
            )
        if final:
            while self._unanswered:
                self._c_unanswered.inc()
                out.append(
                    HttpTransaction(request=self._unanswered.popleft(),
                                    response=None)
                )
        if out and counted:
            self._c_transactions.inc(len(out))
        return out

    def _build_request(self, raw_req: RawHttpRequest,
                       client_state: StreamDirection) -> HttpRequest:
        stream, book = self.stream, self.book
        client_ip = stream.client[0]
        host_header = raw_req.headers.get("Host")
        server_ip = stream.server[0] if stream.server else ""
        server_name = host_header or (book.host_of(server_ip) if book else server_ip)
        client_name = book.host_of(client_ip) if book else client_ip
        return HttpRequest(
            method=HttpMethod.of(raw_req.method),
            uri=raw_req.uri,
            # Lower-case, like every host it is compared with (evasion).
            host=authority_host(server_name),
            client=client_name,
            timestamp=client_state.timestamp_at(raw_req.offset),
            headers=raw_req.headers,
            body=raw_req.body,
            version=raw_req.version,
        )

    def _build_response(self, raw_res: RawHttpResponse,
                        server_state: StreamDirection,
                        request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            status=raw_res.status,
            timestamp=max(server_state.timestamp_at(raw_res.offset),
                          request.timestamp),
            headers=raw_res.headers,
            body=raw_res.body,
            version=raw_res.version,
        )


def transactions_from_packets(
    packets: list[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
    book: AddressBook | None = None,
    max_buffered: int | None = None,
) -> list[HttpTransaction]:
    """Full pipeline: pcap records -> ordered HTTP transactions.

    ``max_buffered`` caps each direction's out-of-order buffer (the
    same knob the live tap's overload policy sets), so batch and live
    decoding of a hostile capture degrade identically.
    """
    metrics = get_registry()
    if metrics.enabled:
        metrics.counter("decode.packets").inc(len(packets))
        metrics.counter("decode.bytes").inc(
            sum(len(packet.data) for packet in packets)
        )
    reassembler = (
        TcpReassembler() if max_buffered is None
        else TcpReassembler(max_buffered=max_buffered)
    )
    # A mangled record is counted and skipped, batch and live alike:
    # real taps carry them, and one must not abort the capture.
    defragment = IpFragmentReassembler().feed
    errors = metrics.counter("decode.errors")
    for packet in packets:
        try:
            segment = decode_segment(packet.data, linktype, defragment)
        except PcapError:
            errors.inc()
            continue
        if segment is not None:
            reassembler.feed(packet.timestamp, segment)
    transactions: list[HttpTransaction] = []
    for stream in reassembler.streams():
        try:
            transactions.extend(StreamPairer(stream, book).poll(final=True))
        except HttpParseError:
            # Not an HTTP conversation (TLS, P2P, corruption): real
            # captures carry plenty of those; skip the stream rather
            # than abort the whole capture.
            pass
    transactions.sort(key=lambda t: t.timestamp)
    return transactions


def trace_from_packets(
    packets: list[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
    book: AddressBook | None = None,
) -> Trace:
    """Convenience: decode packets directly into an unlabelled Trace."""
    return Trace(transactions=transactions_from_packets(packets, linktype, book))


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
        self.opened = False

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
        self.opened = True
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
        raw_req = RawHttpRequest(
            method=req.method.value if req.method != HttpMethod.OTHER else "TRACE",
            uri=req.uri,
            version=req.version,
            headers=headers,
            body=req.body,
        )
        packets.extend(encoder.send(req.timestamp, True, serialize_request(raw_req)))
        if txn.response is not None:
            res = txn.response
            body = res.body or b"\x00" * min(res.body_size, 2048)
            raw_res = RawHttpResponse(
                version=res.version,
                status=res.status,
                reason="",
                headers=res.headers.copy(),
                body=body,
            )
            packets.extend(
                encoder.send(res.timestamp, False, serialize_response(raw_res))
            )
            last_ts[pair] = res.timestamp
        else:
            last_ts[pair] = req.timestamp
    for pair, encoder in encoders.items():
        packets.extend(encoder.close(last_ts[pair] + 1e-3))
    packets.sort(key=lambda p: p.timestamp)
    return packets, book
