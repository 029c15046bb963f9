"""Experiment cs1: forensic detection on a streaming session (Section VI-C).

Replays the Case Study 1 stream (free live-streaming site, 18 tabs,
fake-player lures) through the on-the-wire detector with the paper's
redirect threshold of 3, then compares against the simulated VirusTotal
— including the 11-day lag resubmission of the content-borne PDF.
"""

from __future__ import annotations

from repro.detection.clues import CluePolicy
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, trained_classifier
from repro.synthesis.casestudy import forensic_streaming_session
from repro.vtsim.engines import DAY, PayloadSample
from repro.vtsim.virustotal import VirusTotalSim

__all__ = ["run", "report"]


def run(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
        session_seed: int = 2016) -> dict:
    """Replay the forensic session; returns alert + VT comparison data."""
    session = forensic_streaming_session(seed=session_seed)
    classifier = trained_classifier(seed, scale)
    detector = OnTheWireDetector(
        classifier,
        policy=CluePolicy(redirect_threshold=3),
        config=DetectorConfig(),
    )
    alerts = detector.replay(session.trace.transactions)

    # Submit every downloaded payload to the simulated VirusTotal at
    # capture time, then resubmit the content-borne PDF 11 days later.
    vt = VirusTotalSim()
    start = session.trace.transactions[0].timestamp
    scan_now = {}
    pdf_story = None
    for record in session.downloads:
        # The fake-player executables/JARs are recycled known malware
        # (VirusTotal flags them at capture, per the paper); only the
        # content-borne PDF is effectively unseen.
        sample = PayloadSample(
            sha256=record.sha256,
            malicious=record.malicious,
            content_borne=record.content_borne,
            first_seen=start - (0.0 if record.content_borne else 30 * DAY),
            fresh=record.content_borne,
            reputation="suspicious" if not record.malicious and
            record.extension == "exe" else "normal",
        )
        scan_now[record.sha256] = vt.scan(sample, start + 3600.0)
        if record.content_borne and pdf_story is None:
            pdf_story = {
                "day0": vt.scan(sample, start + 3600.0).positives,
                "day11": vt.scan(sample, start + 11 * DAY).positives,
            }
    vt_flagged_now = sum(
        1 for result_ in scan_now.values() if result_.flagged()
    )
    return {
        "session": session,
        "detector": detector,
        "alerts": alerts,
        "vt_flagged_at_capture": vt_flagged_now,
        "pdf_story": pdf_story,
        "downloads": len(session.downloads),
        "infectious_episodes": session.infectious_episodes,
    }


def report(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE) -> str:
    """Printable Case Study 1 summary."""
    r = run(seed, scale)
    lines = [
        "Case Study 1 (reproduced): forensic detection on streaming replay",
        f"stream transactions: {r['detector'].transactions_seen}"
        f" (paper: 3,011)",
        f"downloads observed: {r['downloads']} (paper: 32)",
        f"DynaMiner alerts: {len(r['alerts'])}"
        f" on {r['infectious_episodes']} infectious episodes (paper: 5)",
        f"VirusTotal flagged at capture: {r['vt_flagged_at_capture']}"
        f" (paper: 4 of the 5 DynaMiner-alerted payloads)",
    ]
    if r["pdf_story"] is not None:
        lines.append(
            f"content-borne PDF: {r['pdf_story']['day0']}/56 at capture,"
            f" {r['pdf_story']['day11']}/56 after 11 days"
            f" (paper: 0/56 then 3/56 — an 11-day DynaMiner lead)"
        )
    return "\n".join(lines)
