#!/usr/bin/env python3
"""Bytes-on-the-wire round trip: synthetic infection -> pcap -> verdict.

Shows the full substrate DESIGN.md §3 describes: a synthetic RIG-kit
episode is serialized into a real ``.pcap`` file (Ethernet/IPv4/TCP with
valid checksums and handshakes), read back through our from-scratch
pcap reader, TCP reassembler, and HTTP/1.1 parser, rebuilt into a WCG,
and classified.

Run:  python examples/pcap_roundtrip.py [output.pcap]
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

from repro.core.builder import build_wcg
from repro.core.stages import Stage, assign_stages
from repro.experiments.context import trained_classifier
from repro.features.extractor import FeatureExtractor
from repro.net.flows import packets_from_trace, transactions_from_packets
from repro.net.pcap import read_pcap, write_pcap
from repro.synthesis.families import family_by_name
from repro.synthesis.infection import InfectionGenerator


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        tempfile.gettempdir(), "rig_infection.pcap"
    )

    print("1. Generating a RIG exploit-kit infection episode ...")
    generator = InfectionGenerator(
        family_by_name("RIG"), np.random.default_rng(2016)
    )
    trace = generator.generate()
    print(f"   {len(trace.transactions)} HTTP transactions, "
          f"{len(trace.hosts)} hosts, enticement via "
          f"{trace.meta['enticement']}")

    print(f"2. Serializing to {path} ...")
    packets, book = packets_from_trace(trace)
    count = write_pcap(path, packets)
    size = os.path.getsize(path)
    print(f"   {count} packets, {size} bytes on disk")

    print("3. Reading the pcap back through the full decode stack ...")
    linktype, loaded = read_pcap(path)
    transactions = transactions_from_packets(loaded, linktype, book)
    print(f"   linktype={linktype}, {len(transactions)} transactions "
          f"recovered (HTTP parsed from reassembled TCP streams)")

    print("4. Rebuilding the Web Conversation Graph ...")
    wcg = build_wcg(transactions, victim=trace.transactions[0].client)
    print(f"   {wcg}")
    print(f"   post-download dynamics: "
          f"{Stage.POST_DOWNLOAD in assign_stages(transactions)}")

    print("5. Classifying ...")
    classifier = trained_classifier(seed=7, scale=0.2)
    features = FeatureExtractor().extract(wcg).reshape(1, -1)
    score = float(classifier.decision_scores(features)[0])
    verdict = "INFECTION" if score >= 0.5 else "benign"
    print(f"   ERF score = {score:.3f}  ->  {verdict}")


if __name__ == "__main__":
    main()
