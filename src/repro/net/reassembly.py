"""TCP stream reassembly.

Turns a time-ordered sequence of decoded TCP segments into per-direction
contiguous byte streams, keyed by connection 4-tuple.  Handles SYN
handshakes, out-of-order arrival, retransmission/overlap, and FIN/RST
teardown.  This sits between the packet codecs and the HTTP parser,
mirroring the deep-packet-inspection step the paper performs on its
PCAP corpus.  A direction's in-order bytes live in one buffer,
``StreamDirection.data``, which the decoder's HTTP parser frames in
place; offsets into the stream are absolute and counted by ``end``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.exceptions import TcpReassemblyError
from repro.net.packets import ACK, FIN, RST, SYN
from repro.obs import get_registry

__all__ = [
    "DEFAULT_MAX_BUFFERED",
    "FlowKey",
    "StreamDirection",
    "TcpStream",
    "TcpReassembler",
]

_SEQ_MOD = 1 << 32
_INF = float("inf")
#: Refuse to buffer more than this many out-of-order bytes per direction.
DEFAULT_MAX_BUFFERED = 32 * 1024 * 1024


class FlowKey(NamedTuple):
    """Canonical (sorted) connection identifier.

    A ``FlowKey`` identifies the *connection*, not a direction: both
    directions of one TCP connection map to the same key.  It is a
    tuple so the per-packet connection lookup hashes and compares in C.
    """

    ip_a: str
    port_a: int
    ip_b: str
    port_b: int

    @classmethod
    def of(cls, src_ip: str, src_port: int, dst_ip: str, dst_port: int) -> "FlowKey":
        """Build the canonical key for a segment's endpoints."""
        # Once per packet: tuple.__new__ skips the generated __new__.
        if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
            return tuple.__new__(cls, (src_ip, src_port, dst_ip, dst_port))
        return tuple.__new__(cls, (dst_ip, dst_port, src_ip, src_port))


@dataclass
class StreamDirection:
    """Reassembly state for one direction of a connection.

    ``data`` is the direction's one buffer of in-order bytes.  The
    decoder's HTTP parser frames it in place and deletes what it has
    framed, so a long-lived connection polled as it goes (the tap) holds
    O(unparsed tail) memory instead of its whole history.  Offsets (``end``, ``marks``, ``timestamp_at``) are
    *absolute* stream positions and stay valid however much of ``data``
    a consumer has deleted.
    """

    src: tuple[str, int]
    dst: tuple[str, int]
    data: bytearray = field(default_factory=bytearray)
    #: Absolute stream offset one past the last in-order byte.
    end: int = 0
    next_seq: int | None = None
    #: Out-of-order chunks waiting on a hole: seq -> (payload, arrival
    #: timestamp).  The timestamp rides along so bytes drained later
    #: keep their *true* arrival time in ``marks``.
    pending: dict[int, tuple[bytes, float]] = field(default_factory=dict)
    #: Running total of the payload bytes held in ``pending``.
    buffered: int = 0
    #: Out-of-order buffer cap for this direction; exceeding it raises
    #: :class:`TcpReassemblyError` from :meth:`feed`.
    max_buffered: int = DEFAULT_MAX_BUFFERED
    #: Reassembly abandoned (buffer overflow, or a consumer that gave
    #: up on the payload): further payload on this direction is ignored.
    broken: bool = False
    fin_seen: bool = False
    first_ts: float | None = None
    #: (absolute stream byte offset, arrival timestamp) marks for
    #: contiguous data, letting the HTTP layer recover per-message
    #: timestamps.
    marks: list[tuple[int, float]] = field(default_factory=list)

    def timestamp_at(self, offset: int) -> float:
        """Arrival time of the segment containing stream ``offset``."""
        index = bisect.bisect_right(self.marks, (offset, _INF))
        if index:
            return self.marks[index - 1][1]
        # Compare against None: a capture legitimately starting at the
        # epoch has first_ts == 0.0, which is not "missing".
        return self.first_ts if self.first_ts is not None else 0.0

    def trim_marks(self, start: int) -> None:
        """Forget the marks of bytes before ``start`` (a consumer's
        pending message), keeping the one that straddles it so
        ``timestamp_at(start)`` still resolves."""
        index = bisect.bisect_right(self.marks, (start, _INF)) - 1
        if index > 0:
            del self.marks[:index]

    def abandon(self) -> None:
        """Keep no payload: drop what is held and ignore what comes (FIN
        and RST tracking are the reassembler's and go on)."""
        self.broken = True
        del self.data[:]
        self.marks.clear()
        self.pending.clear()
        self.buffered = 0

    def _drain_pending(self) -> None:
        """Move buffered chunks reached by ``next_seq`` into ``data``.

        Besides exact-offset matches, chunks *straddling* ``next_seq``
        (their tail extends past it) are trimmed and drained, and chunks
        entirely behind it (fully retransmitted data) are discarded —
        without this, an overlapping out-of-order chunk would lose its
        fresh tail bytes and leak in ``pending`` forever.  Drained bytes
        are marked with the chunk's original arrival timestamp.
        """
        progressed = True
        while progressed and self.pending:
            progressed = False
            entry = self.pending.pop(self.next_seq, None)
            if entry is not None:
                chunk, arrival = entry
                self.buffered -= len(chunk)
                self.marks.append((self.end, arrival))
                self.data.extend(chunk)
                self.end += len(chunk)
                self.next_seq = (self.next_seq + len(chunk)) % _SEQ_MOD
                progressed = True
                continue
            for seq in list(self.pending):
                behind = (self.next_seq - seq) % _SEQ_MOD
                if behind >= _SEQ_MOD // 2:
                    continue  # chunk is ahead: still waiting on a hole
                chunk, arrival = self.pending.pop(seq)
                self.buffered -= len(chunk)
                if behind >= len(chunk):
                    continue  # entirely retransmitted data: discard
                fresh = chunk[behind:]
                self.marks.append((self.end, arrival))
                self.data.extend(fresh)
                self.end += len(fresh)
                self.next_seq = (self.next_seq + len(fresh)) % _SEQ_MOD
                progressed = True
                break

    def feed(self, seq: int, payload: bytes, timestamp: float) -> None:
        """Insert one segment's payload at sequence ``seq``."""
        if self.first_ts is None:
            self.first_ts = timestamp
        if not payload or self.broken:
            return
        if self.next_seq is None:
            # No SYN observed: adopt the first payload's seq as origin.
            self.next_seq = seq
        # Relative offset modulo 2^32, interpreted as a signed distance.
        delta = (seq - self.next_seq) % _SEQ_MOD
        if delta >= _SEQ_MOD // 2:
            # Entirely retransmitted data (or overlapping prefix).
            behind = _SEQ_MOD - delta
            if behind >= len(payload):
                return
            payload = payload[behind:]
            delta = 0
        if delta == 0:
            self.marks.append((self.end, timestamp))
            self.data.extend(payload)
            self.end += len(payload)
            self.next_seq = (self.next_seq + len(payload)) % _SEQ_MOD
            if self.pending:
                self._drain_pending()
        else:
            if self.buffered + len(payload) > self.max_buffered:
                raise TcpReassemblyError(
                    f"out-of-order buffer overflow on {self.src}->{self.dst}"
                )
            existing = self.pending.get(seq)
            held = len(existing[0]) if existing is not None else 0
            if held < len(payload):
                self.pending[seq] = (payload, timestamp)
                self.buffered += len(payload) - held


@dataclass
class TcpStream:
    """Both directions of one reassembled TCP connection."""

    key: FlowKey
    client: tuple[str, int] | None = None
    directions: dict[tuple[str, int], StreamDirection] = field(default_factory=dict)
    closed: bool = False
    #: The consumer's state, found and evicted with the stream: the
    #: decoder's pairer, or ``False`` once the payload is not HTTP.
    consumer: object = None

    def direction(
        self,
        src: tuple[str, int],
        dst: tuple[str, int],
        max_buffered: int = DEFAULT_MAX_BUFFERED,
    ) -> StreamDirection:
        """Get or create the reassembly state for ``src -> dst``."""
        state = self.directions.get(src)
        if state is None:
            state = StreamDirection(src=src, dst=dst,
                                    max_buffered=max_buffered)
            self.directions[src] = state
        return state

    @property
    def server(self) -> tuple[str, int] | None:
        """The accepting endpoint, once known."""
        if self.client is None:
            return None
        for src in self.directions:
            if src != self.client:
                return src
        return self.key[2:] if self.client == self.key[:2] else self.key[:2]

    @property
    def start_time(self) -> float:
        """Earliest timestamp observed on either direction."""
        stamps = [
            state.first_ts
            for state in self.directions.values()
            if state.first_ts is not None
        ]
        return min(stamps) if stamps else 0.0


class TcpReassembler:
    """Feeds decoded segments (``feed(timestamp, segment)``) and yields
    completed / in-progress streams (``streams()``)."""

    def __init__(self, max_buffered: int = DEFAULT_MAX_BUFFERED) -> None:
        self._streams: dict[FlowKey, TcpStream] = {}
        #: Per-direction out-of-order buffer cap (overload policy knob).
        self.max_buffered = max_buffered
        metrics = get_registry()
        self._counted = metrics.enabled
        self._c_streams = metrics.counter("reassembly.streams_opened")
        self._c_segments = metrics.counter("reassembly.segments")
        self._c_payload = metrics.counter("reassembly.payload_bytes")
        self._c_overflows = metrics.counter("reassembly.overflows")

    def feed(self, timestamp: float, segment: tuple,
             key: FlowKey | None = None) -> TcpStream:
        """Process one segment — the flat tuple ``decode_segment``
        returns; ``key`` its :meth:`FlowKey.of`, if the caller has it —
        and return the (possibly new) owning stream."""
        src_ip, dst_ip, src_port, dst_port, seq, _, flags, _, payload = segment
        if self._counted:
            self._c_segments.inc()
            self._c_payload.inc(len(payload))
        if key is None:
            key = FlowKey.of(src_ip, src_port, dst_ip, dst_port)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = TcpStream(key=key)
            self._c_streams.inc()
        src = (src_ip, src_port)
        state = stream.directions.get(src)
        if state is None:
            state = stream.direction(src, (dst_ip, dst_port),
                                     self.max_buffered)
        if flags & SYN:
            # Adopt the sequence origin only while the direction is
            # fresh: a retransmitted or forged SYN on an *established*
            # stream must not reset next_seq (it would desynchronize
            # reassembly and discard genuine in-flight bytes as
            # retransmissions), and must not flip the client
            # designation mid-connection.
            if state.next_seq is None:
                state.next_seq = (seq + 1) % _SEQ_MOD
            if stream.client is None:
                stream.client = state.dst if flags & ACK else src
        else:
            if stream.client is None and payload:
                # Mid-capture stream: guess the initiator as the side whose
                # destination port looks like a service port.
                if dst_port in (80, 443, 8080, 3128) or (
                    dst_port < 1024 <= src_port
                ):
                    stream.client = src
                else:
                    stream.client = state.dst
            try:
                state.feed(seq, payload, timestamp)
            except TcpReassemblyError:
                # One hostile connection must not kill the whole tap:
                # abandon reassembly for this direction (its contiguous
                # prefix stands), free the out-of-order buffer, and make
                # the degradation observable instead of fatal.
                state.broken = True
                state.pending.clear()
                state.buffered = 0
                self._c_overflows.inc()
        if flags & FIN:  # the only segment that can finish both sides
            state.fin_seen = True
            if len(stream.directions) == 2 and all(
                d.fin_seen for d in stream.directions.values()
            ):
                stream.closed = True
        if flags & RST:
            stream.closed = True
        return stream

    def streams(self) -> list[TcpStream]:
        """All tracked streams, by start time."""
        return sorted(self._streams.values(), key=lambda s: s.start_time)

    def evict(self, key: FlowKey) -> TcpStream | None:
        """Remove (and return) one connection's state entirely.

        The decoder's connection lifecycle calls this once a stream is
        closed and past its linger window, or its 4-tuple is reused by a
        fresh SYN — without it, ``_streams`` grows by one dead entry per
        connection for the life of the process.
        """
        return self._streams.pop(key, None)

    def __len__(self) -> int:
        return len(self._streams)
