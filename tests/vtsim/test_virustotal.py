"""Unit tests for the VirusTotal aggregator simulation."""

import pytest

from repro.vtsim.engines import DAY, PayloadSample
from repro.vtsim.virustotal import VirusTotalSim, samples_from_trace


class TestScan:
    def test_result_shape(self):
        vt = VirusTotalSim(timeout_rate=0.0)
        sample = PayloadSample(sha256="abc", malicious=True,
                               first_seen=1e9 - 30 * DAY)
        result = vt.scan(sample, 1e9)
        assert result.total == 56
        assert 0 <= result.positives <= 56
        assert not result.timed_out
        assert len(result.engines) == result.positives

    def test_flagged_threshold(self):
        vt = VirusTotalSim(timeout_rate=0.0)
        old = PayloadSample(sha256="old", malicious=True,
                            first_seen=1e9 - 60 * DAY)
        result = vt.scan(old, 1e9)
        assert result.flagged(3)
        assert not result.flagged(result.positives + 1)

    def test_timeouts_counted(self):
        vt = VirusTotalSim(timeout_rate=1.0)
        sample = PayloadSample(sha256="x", malicious=True)
        result = vt.scan(sample, 0.0)
        assert result.timed_out
        assert not result.flagged()
        assert vt.timeouts == 1

    def test_timeout_rate_statistical(self):
        vt = VirusTotalSim(timeout_rate=0.1)
        for index in range(300):
            vt.scan(PayloadSample(sha256=f"s{index}", malicious=False), 0.0)
        assert 10 <= vt.timeouts <= 60


class TestScanTrace:
    def test_infection_trace_flagged(self, tiny_corpus):
        vt = VirusTotalSim(timeout_rate=0.0)
        flagged = sum(
            1 for t in tiny_corpus.infections if vt.scan_trace(t).flagged()
        )
        # Most, but per Table V not all, infections are caught.
        assert flagged / len(tiny_corpus.infections) > 0.6

    def test_benign_mostly_clean(self, tiny_corpus):
        vt = VirusTotalSim(timeout_rate=0.0)
        flagged = sum(
            1 for t in tiny_corpus.benign if vt.scan_trace(t).flagged()
        )
        assert flagged / len(tiny_corpus.benign) < 0.25

    def test_empty_trace(self):
        from repro.core.model import Trace

        vt = VirusTotalSim()
        result = vt.scan_trace(Trace(transactions=[]), at_time=0.0)
        assert result.positives == 0
        assert not result.flagged()

    def test_detection_improves_with_time(self, tiny_corpus):
        vt = VirusTotalSim(timeout_rate=0.0)
        missed_now = [
            t for t in tiny_corpus.infections
            if not vt.scan_trace(t).flagged()
        ]
        if not missed_now:
            pytest.skip("no initially-missed infections in tiny corpus")
        recovered = 0
        for trace in missed_now:
            later = trace.transactions[-1].timestamp + 45 * DAY
            if vt.scan_trace(trace, at_time=later).flagged():
                recovered += 1
        assert recovered >= 1  # AV lag closes over time


class TestSamplesFromTrace:
    def test_infection_samples_marked(self, tiny_corpus):
        infection = next(
            t for t in tiny_corpus.infections if not t.meta.get("stealth")
        )
        samples = samples_from_trace(infection)
        assert samples
        assert any(s.malicious for s in samples)

    def test_benign_samples_not_malicious(self, tiny_corpus):
        benign = tiny_corpus.benign[0]
        samples = samples_from_trace(benign)
        assert all(not s.malicious for s in samples)

    def test_stealth_zip_counts_as_payload(self, tiny_corpus):
        stealth = [t for t in tiny_corpus.infections
                   if t.meta.get("stealth")]
        if not stealth:
            pytest.skip("no stealth episodes at this scale")
        samples = samples_from_trace(stealth[0])
        assert any(s.malicious for s in samples)

    def test_suspicious_reputation_for_hard_benign(self, tiny_corpus):
        hard = [t for t in tiny_corpus.benign
                if t.meta.get("scenario") in ("unofficial_download",
                                              "torrent")]
        if not hard:
            pytest.skip("no hard benign at this scale")
        samples = samples_from_trace(hard[0])
        assert any(s.reputation == "suspicious" for s in samples)
