"""Unit tests for infection-clue inference."""

import pytest

from repro.core.payloads import PayloadType
from repro.detection.clues import (
    ClueDetector,
    CluePolicy,
    payload_risk_from_corpus,
)
from tests.conftest import make_txn


def _redirect_txn(src, dst, ts):
    return make_txn(host=src, ts=ts, status=302, content_type="",
                    extra_res_headers={"Location": f"http://{dst}/n"})


class TestClueDetector:
    def test_exploit_shortcut_fires_immediately(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=3))
        clue = detector.observe(
            make_txn(host="ek.pw", uri="/drop.exe",
                     content_type="application/x-msdownload")
        )
        assert clue is not None
        assert clue.payload_type is PayloadType.EXE
        assert clue.server == "ek.pw"

    def test_archive_needs_chain(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=2))
        clue = detector.observe(
            make_txn(host="files.com", uri="/data.zip",
                     content_type="application/zip")
        )
        assert clue is None  # no chain yet

    def test_chain_plus_archive_fires(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=2,
                                           exploit_shortcut=False))
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        detector.observe(_redirect_txn("b.com", "c.com", 2.0))
        clue = detector.observe(
            make_txn(host="c.com", uri="/x.zip", ts=3.0,
                     content_type="application/zip")
        )
        assert clue is not None
        assert clue.chain_length >= 2

    def test_below_threshold_no_clue(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=5,
                                           exploit_shortcut=False))
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        clue = detector.observe(
            make_txn(host="b.com", uri="/x.zip", ts=2.0,
                     content_type="application/zip")
        )
        assert clue is None

    def test_html_never_a_clue(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=0))
        clue = detector.observe(make_txn(content_type="text/html"))
        assert clue is None

    def test_failed_download_no_clue(self):
        detector = ClueDetector()
        clue = detector.observe(
            make_txn(host="ek.pw", uri="/drop.exe", status=404,
                     content_type="application/x-msdownload")
        )
        assert clue is None

    def test_reset_clears_window(self):
        """The window is the redirect chain: gone after ``reset()``."""
        policy = CluePolicy(redirect_threshold=2, exploit_shortcut=False)
        archive = make_txn(host="c.com", uri="/x.zip", ts=3.0,
                           content_type="application/zip")
        detector = ClueDetector(policy)
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        detector.observe(_redirect_txn("b.com", "c.com", 2.0))
        detector.reset()
        assert detector.observe(archive) is None
        # Not because the archive never clues: without the reset it does.
        detector.reset()
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        detector.observe(_redirect_txn("b.com", "c.com", 2.0))
        assert detector.observe(archive) is not None


class TestPayloadRisk:
    def test_risk_from_corpus(self, tiny_corpus):
        risk = payload_risk_from_corpus(tiny_corpus.traces)
        # Exploit types seen almost exclusively in infections.
        if PayloadType.SWF in risk:
            assert risk[PayloadType.SWF] > 0.9
        assert risk[PayloadType.JAR] > 0.8
        # Page furniture is overwhelmingly benign-dominated.
        assert risk[PayloadType.HTML] < 0.6

    def test_crypt_only_in_infections(self, tiny_corpus):
        risk = payload_risk_from_corpus(tiny_corpus.traces)
        if PayloadType.CRYPT in risk:
            assert risk[PayloadType.CRYPT] == 1.0

    def test_empty_corpus(self):
        assert payload_risk_from_corpus([]) == {}
