"""Live packet-level deployment: packets in, alerts out.

The batch pipeline (`repro.net.flows.transactions_from_packets`) decodes
a complete capture at once.  A deployed DynaMiner sits on a live tap and
must surface each HTTP transaction the moment its response is complete —
this module provides that incremental path:

``LiveDecoder``
    feed pcap records one at a time; completed request/response pairs
    are emitted as :class:`~repro.core.model.HttpTransaction` as soon as
    both sides have been reassembled (unanswered requests flush when
    their connection closes or at :meth:`LiveDecoder.flush`).

``LiveDetector``
    the packet-in, alert-out engine: a :class:`LiveDecoder` glued to an
    :class:`~repro.detection.detector.OnTheWireDetector` — what the
    single-process tap is, and the unit :mod:`repro.service` runs one
    of per worker process.

Decoding is incremental end to end: every connection owns a
:class:`~repro.net.flows.StreamPairer` whose resumable HTTP parsers
retain partial-message state between deliveries, reading each direction
through the reassembler's consumable view (parse cursor + compaction of
consumed bytes).  Each payload byte is therefore examined once and
buffered only while its message is still incomplete, so the per-packet
cost is O(bytes in the packet) and a whole capture costs O(total bytes),
even for one giant connection.

Connection state is bounded the same way: a closed, fully drained
connection lingers for ``OverloadPolicy.closed_linger`` stream-seconds
(a TIME_WAIT analogue that absorbs trailing ACKs and late
retransmissions) and is then evicted whole: its pairer hangs off its
reassembler entry.  The ``max_connections`` overload cap counts
*live* connections only, so a long-running tap keeps accepting new
flows forever instead of strangling once cap-many connections have
*ever* been seen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import HttpTransaction
from repro.core.stages import Stage
from repro.detection.alerts import Alert
from repro.detection.clues import InfectionClue
from repro.detection.detector import OnTheWireDetector
from repro.exceptions import HttpParseError, PcapError
from repro.net.flows import AddressBook, StreamPairer, decode_segment
from repro.net.packets import ACK, SYN, IpFragmentReassembler
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket
from repro.net.reassembly import (
    DEFAULT_MAX_BUFFERED,
    FlowKey,
    TcpReassembler,
    TcpStream,
)
from repro.obs import PipelineStatsReporter, get_registry, write_trace

__all__ = ["OverloadPolicy", "LiveDecoder", "LiveDetector", "WatchSnapshot"]


@dataclass(frozen=True)
class WatchSnapshot:
    """Cheap, picklable summary of one live clue-active session watch.

    Built from the WCG's column store — counter reads plus timestamp
    extrema over a column *slice* — and the stage histogram of the
    watch's edge stages, derived when the snapshot is taken
    (DESIGN.md §14).

    Snapshots are value objects: two engines that saw the same client's
    packets produce equal snapshots, which is how the sharded
    differential pins fleet state against the single-process engine.
    """

    key: str
    client: str
    transactions: int
    clue: InfectionClue | None
    order: int
    size: int
    version: int
    structure_version: int
    first_edge_ts: float
    last_edge_ts: float
    #: Edge counts per stage (pre-download, download, post-download).
    stage_counts: tuple[int, int, int]


@dataclass(frozen=True)
class OverloadPolicy:
    """Explicit load-shedding rules for a saturated tap.

    A live tap cannot apply backpressure to the wire, so overload has to
    shed *something*; this policy makes the shedding deliberate and
    observable rather than an exception or an unbounded buffer:

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
    * ``closed_linger`` — stream-seconds a closed, fully drained
      connection is retained before its state is evicted.  The linger
      absorbs post-close chatter (trailing ACKs, late retransmissions)
      exactly like TCP's TIME_WAIT; a fresh SYN reusing the 4-tuple
      inside the window evicts immediately and starts a new
      conversation.
    """

    max_connections: int = 100_000
    max_buffered_per_direction: int = DEFAULT_MAX_BUFFERED
    closed_linger: float = 60.0


class LiveDecoder:
    """Incremental pcap-record -> HTTP-transaction decoder."""

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
        self._fragments = IpFragmentReassembler()
        #: Closed-and-drained connections awaiting eviction, keyed to
        #: the stream time of their last activity.  Insertion order is
        #: last-activity order (entries are re-appended on post-close
        #: chatter), so the linger sweep pops from the front.
        self._closed: dict[FlowKey, float] = {}
        self._metrics = get_registry()
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
        """Ingest one pcap record; returns newly completed transactions.

        A record that fails link/IP/TCP decoding is counted
        (``decode.errors``) and skipped: a live tap sees plenty of
        traffic the decoder was never meant to parse, and one mangled
        frame must not stall the wire.
        """
        if not self._metrics.enabled:
            return self._feed(packet)
        self._c_packets.inc()
        self._c_bytes.inc(len(packet.data))
        with self._metrics.span("decode.feed"):
            emitted = self._feed(packet)
        self._g_live.set(self.live_connections)
        return emitted

    def _feed(self, packet: PcapPacket) -> list[HttpTransaction]:
        try:
            segment = decode_segment(packet.data, self.linktype,
                                     self._fragments.feed)
        except PcapError:
            self._c_errors.inc()
            return []
        if segment is None:
            return []
        ts = packet.timestamp
        src, dst, src_port, dst_port, _, _, flags, _, payload = segment
        key = FlowKey.of(src, src_port, dst, dst_port)
        closed, reassembler = self._closed, self._reassembler
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
            len(reassembler) - len(closed) >= self.policy.max_connections
            and key not in reassembler
        ):
            # Overload shed (OverloadPolicy): refuse to open
            # connections past the cap, visibly.
            self._c_dropped.inc()
            return []
        stream = reassembler.feed(ts, segment, key)
        # Only payload can make new bytes contiguous: a bare
        # ACK/SYN/FIN on an open stream has nothing to parse.
        emitted = (self._drain(stream, final=stream.closed)
                   if payload or stream.closed else [])
        if stream.closed:
            # Mark (or refresh) the linger slot; re-append keeps
            # the dict ordered by last activity.
            closed.pop(key, None)
            closed[key] = ts
        return emitted

    def flush(self) -> list[HttpTransaction]:
        """End-of-capture: emit whatever is still pending everywhere."""
        emitted: list[HttpTransaction] = []
        for stream in self._reassembler.streams():
            emitted.extend(self._drain(stream, final=True))
        return emitted

    def _evict(self, key: FlowKey) -> None:
        """Drop every bit of per-connection state for ``key``."""
        self._closed.pop(key, None)
        # Unlinking the stream <-> pairer cycle frees both at once.
        self._reassembler.evict(key).consumer = None
        self._c_evicted.inc()

    def _drain(self, stream: TcpStream, final: bool) -> list[HttpTransaction]:
        pairer = stream.consumer
        if pairer is None and stream.client is not None:
            pairer = stream.consumer = StreamPairer(stream, self.book)
        if not pairer:
            return []  # no client side yet, or payload that is not HTTP
        try:
            return pairer.poll(final=final)
        except HttpParseError:
            # Transactions already emitted from the stream's well-formed
            # prefix stand; the remainder is not HTTP.
            stream.consumer = False
            self._c_not_http.inc()
            return []


class LiveDetector:
    """The detection engine: packets in, alerts out.

    Owns exactly the state one tap (or one shard) needs — the decoder
    (reassembler + pairing state) and the detector (session table,
    WCGs, classifier).  ``feed`` / ``finish`` is the whole contract,
    which is what lets :mod:`repro.service` run one engine per worker
    process and merge their outputs deterministically, byte-identical
    to the single-process tap.

    The two I/O hooks are optional and cost an ``is not None`` when
    absent: ``reporter`` attaches a
    :class:`~repro.obs.PipelineStatsReporter` whose interval snapshots
    tick from the packet loop (:meth:`feed`) with a final one emitted by
    :meth:`finish`, so a deployed tap streams its own telemetry without
    any extra wiring.  ``trace_out`` (a path or file-like object) makes
    :meth:`finish` drain the detector's tracer to JSON lines — a no-op
    unless tracing was enabled before the detector was built.
    """

    def __init__(self, detector: OnTheWireDetector,
                 linktype: int = LINKTYPE_ETHERNET,
                 book: AddressBook | None = None,
                 reporter: PipelineStatsReporter | None = None,
                 policy: OverloadPolicy | None = None,
                 trace_out=None):
        self.detector = detector
        self.decoder = LiveDecoder(linktype=linktype, book=book,
                                   policy=policy)
        self.reporter = reporter
        self.trace_out = trace_out
        self.transactions_emitted = 0
        self._metrics = get_registry()

    def feed(self, packet: PcapPacket) -> list[Alert]:
        """Ingest one packet; returns alerts raised by it (if any).

        The transactions a packet completes form one detector
        micro-batch: their classifications coalesce into a single
        classifier matrix call with per-transaction semantics unchanged
        (see :meth:`OnTheWireDetector.process_batch`).
        """
        transactions = self.decoder.feed(packet)
        if transactions:  # most packets complete nothing: no batch
            self.transactions_emitted += len(transactions)
            with self._metrics.span("detector.process_batch"):
                alerts = self.detector.process_batch(transactions)
        else:
            alerts = []
        if self.reporter is not None:
            self.reporter.maybe_emit()
        return alerts

    def finish(self) -> list[Alert]:
        """Flush the decoder and finalize the detector's watches;
        drains the trace to ``trace_out`` when one was configured."""
        transactions = self.decoder.flush()
        self.transactions_emitted += len(transactions)
        alerts = self.detector.process_batch(transactions)
        with self._metrics.span("detector.finalize"):
            alerts.extend(self.detector.finalize())
        if self.reporter is not None:
            self.reporter.finalize()
        tracer = self.detector.tracer
        if self.trace_out is not None and tracer.enabled:
            write_trace(tracer.drain(), self.trace_out)
        return alerts

    def snapshot_watches(self) -> list["WatchSnapshot"]:
        """Summaries of every live clue-active watch, sorted by
        ``(client, key)``.

        Each summary is assembled from the watch's WCG and edge stages
        (see :class:`WatchSnapshot`); the sort makes the
        list canonical, so per-shard lists concatenate and re-sort into
        the same fleet view regardless of worker count.
        """
        snapshots: list[WatchSnapshot] = []
        for watch in self.detector.active_watches():
            wcg = watch.wcg()
            store = wcg.edge_store
            timestamps = store.column("timestamp")
            stages = watch.edge_stages()
            snapshots.append(WatchSnapshot(
                key=watch.key,
                client=watch.client,
                transactions=len(watch.transactions),
                clue=watch.active_clue,
                order=wcg.order,
                size=wcg.size,
                version=wcg.version,
                structure_version=wcg.structure_version,
                first_edge_ts=float(timestamps.min()) if len(store) else 0.0,
                last_edge_ts=float(timestamps.max()) if len(store) else 0.0,
                stage_counts=tuple(stages.count(stage) for stage in Stage),
            ))
        snapshots.sort(key=lambda s: (s.client, s.key))
        return snapshots
