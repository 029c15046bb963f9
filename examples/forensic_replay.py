#!/usr/bin/env python3
"""Case Study 1: forensic detection on a streaming-site capture.

Rebuilds the paper's Section VI-C scenario — a 90-minute free-live-
streaming session (3,011 HTTP transactions, 18 tabs, fake "player
update" lures) — replays it through DynaMiner with the paper's redirect
threshold of 3, and compares against the simulated VirusTotal,
including the 11-day resubmission of the content-borne PDF.

Run:  python examples/forensic_replay.py
"""

from __future__ import annotations

from repro.detection.clues import CluePolicy
from repro.detection.detector import OnTheWireDetector
from repro.experiments.context import trained_classifier
from repro.synthesis.casestudy import forensic_streaming_session
from repro.vtsim.engines import DAY, PayloadSample
from repro.vtsim.virustotal import VirusTotalSim


def main() -> None:
    print("Building the streaming-session capture ...")
    session = forensic_streaming_session(seed=2016)
    print(f"  {session.transaction_count} transactions, "
          f"{len(session.downloads)} downloads, "
          f"{session.infectious_episodes} infectious episodes hidden inside")

    print("Training the classifier (cached across runs of one process) ...")
    classifier = trained_classifier(seed=7, scale=0.2)

    print("Replaying through DynaMiner (redirect threshold = 3) ...")
    detector = OnTheWireDetector(
        classifier, policy=CluePolicy(redirect_threshold=3)
    )
    alerts = detector.replay(session.trace.transactions)
    print(f"  -> {len(alerts)} alerts "
          f"({detector.classifications} classifier consultations over "
          f"{detector.watch_count()} watched sessions)")
    for alert in alerts:
        print(f"     alert: {alert.clue.server} "
              f"({alert.clue.payload_type.value}), score={alert.score:.2f}, "
              f"WCG {alert.wcg_order} nodes / {alert.wcg_size} edges")

    print("\nSubmitting all downloads to the simulated VirusTotal ...")
    vt = VirusTotalSim()
    start = session.trace.transactions[0].timestamp
    flagged = 0
    pdf_sample = None
    for record in session.downloads:
        sample = PayloadSample(
            sha256=record.sha256, malicious=record.malicious,
            content_borne=record.content_borne,
            first_seen=start - (0.0 if record.content_borne else 30 * DAY),
            fresh=record.content_borne,
        )
        if vt.scan(sample, start + 3600).flagged():
            flagged += 1
        if record.content_borne and pdf_sample is None:
            pdf_sample = sample
    print(f"  VirusTotal flags {flagged}/{len(session.downloads)} "
          f"downloads at capture time")

    if pdf_sample is not None:
        day0 = vt.scan(pdf_sample, start + 3600).positives
        day11 = vt.scan(pdf_sample, start + 11 * DAY).positives
        print(f"\nThe content-borne PDF (embedded Flash exploit):")
        print(f"  at capture:    {day0}/56 engines flag it")
        print(f"  11 days later: {day11}/56 engines flag it")
        print("  DynaMiner alerted on its conversation at capture time —")
        print("  an 11-day detection lead over the AV ensemble "
              "(paper, Section VI-C).")


if __name__ == "__main__":
    main()
