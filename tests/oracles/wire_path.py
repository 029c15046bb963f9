"""The layered, poll-every-segment wire path the fast path replaced.

Production decodes the common frame shape with one ``struct`` unpack,
keeps all per-connection state on the connection's ``TcpStream`` and
steps the HTTP parsers only when their input changed.  This module is
the straightforward formulation of the same path: every record goes
through the layered codecs, per-connection state lives in parallel
dicts, and every surviving segment polls both parsers.  The
differential tests run both over the same packets and require the same
transactions out of the same packets.
"""

from __future__ import annotations

from repro.core.model import HttpTransaction
from repro.exceptions import HttpParseError, PcapError
from repro.net.flows import StreamPairer
from repro.net.packets import (
    ACK,
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    SYN,
    IpFragmentReassembler,
    decode_ethernet,
    decode_ipv4,
    decode_tcp,
)
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP
from repro.net.reassembly import FlowKey, TcpReassembler

__all__ = ["EagerPairer", "eager_live_decode", "layered_segment"]


def layered_segment(data: bytes, linktype: int, defragment) -> tuple | None:
    """``decode_segment`` through the layered codecs only."""
    if linktype == LINKTYPE_ETHERNET:
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


class EagerPairer(StreamPairer):
    """``StreamPairer`` that steps both parsers on every poll."""

    def poll(self, final: bool = False) -> list[HttpTransaction]:
        stream = self.stream
        if stream.client is None:
            return []
        out: list[HttpTransaction] = []
        client_state = stream.directions.get(stream.client)
        server_state = None
        for src, state in stream.directions.items():
            if src != stream.client:
                server_state = state
        if client_state is not None:
            chunk = client_state.take()
            if chunk:
                self._c_feeds.inc()
            raw_requests = self._requests.feed(chunk)
            if final:
                raw_requests.extend(self._requests.finish())
            for raw_req in raw_requests:
                self._c_requests.inc()
                self._methods.append(raw_req.method)
                self._unanswered.append(
                    self._build_request(raw_req, client_state)
                )
            client_state.compact(
                keep_marks_from=self._requests.pending_offset
            )
        if server_state is not None:
            chunk = server_state.take()
            if chunk:
                self._c_feeds.inc()
            raw_responses = self._responses.feed(chunk)
            if final:
                raw_responses.extend(self._responses.finish(closed=True))
            for raw_res in raw_responses:
                self._c_responses.inc()
                if not self._unanswered:
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
        if out:
            self._c_transactions.inc(len(out))
        return out


def eager_live_decode(packets, policy, linktype=LINKTYPE_ETHERNET,
                      book=None) -> list[tuple[int, HttpTransaction]]:
    """``LiveDecoder`` over ``packets`` the eager way.

    Returns ``(index of the packet that emitted it, transaction)`` pairs
    in emission order; the end-of-capture flush emits with index ``-1``.
    """
    reassembler = TcpReassembler(
        max_buffered=policy.max_buffered_per_direction
    )
    fragments = IpFragmentReassembler()
    pairers: dict[FlowKey, EagerPairer] = {}
    not_http: set[FlowKey] = set()
    closed: dict[FlowKey, float] = {}
    emitted: list[tuple[int, HttpTransaction]] = []

    def evict(key):
        closed.pop(key, None)
        reassembler.evict(key)
        pairers.pop(key, None)
        not_http.discard(key)

    def drain(stream, final, index):
        key = stream.key
        if key in not_http or stream.client is None:
            return
        pairer = pairers.get(key)
        if pairer is None:
            pairer = pairers[key] = EagerPairer(stream, book)
        try:
            emitted.extend((index, txn) for txn in pairer.poll(final=final))
        except HttpParseError:
            not_http.add(key)

    for index, packet in enumerate(packets):
        try:
            segment = layered_segment(packet.data, linktype, fragments.feed)
        except PcapError:
            continue
        if segment is None:
            continue
        ts = packet.timestamp
        src, dst, src_port, dst_port, _, _, flags, _, _ = segment
        key = FlowKey.of(src, src_port, dst, dst_port)
        while closed:
            oldest, marked = next(iter(closed.items()))
            if ts - marked < policy.closed_linger:
                break
            evict(oldest)
        if key in closed and flags & SYN and not flags & ACK:
            evict(key)
        if (key not in reassembler
                and len(reassembler) - len(closed) >= policy.max_connections):
            continue
        stream = reassembler.feed(ts, segment)
        drain(stream, stream.closed, index)
        if stream.closed:
            closed.pop(key, None)
            closed[key] = ts
    for stream in reassembler.streams():
        drain(stream, True, -1)
    return emitted
