"""Live packet-level deployment: packets in, alerts out.

:class:`LiveDetector` is the packet-in, alert-out engine: a
:class:`~repro.net.flows.LiveDecoder` on the tap's schedule (each
completed request/response pair is emitted as soon as both sides have
been reassembled) glued to an
:class:`~repro.detection.detector.OnTheWireDetector`.  It is what the
single-process tap is, and the unit :mod:`repro.service` runs one of per
worker process.  Each packet first advances the detector's stream
watermark to its timestamp, so a watch that stopped growing gets its
final verdict mid-stream, not at end of capture.

The decoder and its :class:`~repro.net.flows.OverloadPolicy` live in
:mod:`repro.net.flows`, shared with the offline capture path, and are
re-exported here.
"""

from __future__ import annotations

from repro.detection.alerts import Alert
from repro.detection.detector import OnTheWireDetector
from repro.net.flows import AddressBook, LiveDecoder, OverloadPolicy
from repro.net.pcap import LINKTYPE_ETHERNET, PcapPacket
from repro.obs import PipelineStatsReporter, get_registry, write_trace

__all__ = ["OverloadPolicy", "LiveDecoder", "LiveDetector"]


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

        The packet's timestamp advances the stream watermark first
        (final verdicts of watches that stopped growing before it).
        The transactions it completes then form one detector
        micro-batch: their classifications coalesce into a single
        classifier matrix call with per-transaction semantics unchanged
        (see :meth:`OnTheWireDetector.process_batch`).
        """
        timestamp, detector = packet.timestamp, self.detector
        alerts = []
        if timestamp > detector.watermark:  # advance(), inlined
            detector.watermark = timestamp
            if timestamp >= detector._due:
                alerts = detector._retire_stopped()
        transactions = self.decoder.feed(packet)
        if transactions:  # most packets complete nothing: no batch
            self.transactions_emitted += len(transactions)
            with self._metrics.span("detector.process_batch"):
                alerts += detector.process_batch(transactions)
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
