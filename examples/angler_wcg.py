#!/usr/bin/env python3
"""Figure 6 walk-through: anatomy of one Angler-kit infection WCG.

Generates a single Angler episode, builds its Web Conversation Graph,
and prints the three conversation stages the paper's Figure 6
illustrates: pre-download redirection, payload download, and
post-download C&C call-backs.

Run:  python examples/angler_wcg.py
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import WCGBuilder
from repro.core.redirects import infer_redirects
from repro.core.stages import Stage
from repro.core.wcg import EdgeKind, NodeKind
from repro.features.extractor import extract_features
from repro.features.registry import FEATURES
from repro.synthesis.families import family_by_name
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator


def main() -> None:
    rng = np.random.default_rng(2015_12_21)  # the Figure 6 capture date
    generator = InfectionGenerator(family_by_name("Angler"), rng)
    trace = generator.generate(
        EpisodeConfig(redirectless=False, with_post_download=True)
    )
    builder = WCGBuilder(origin=trace.origin or None)
    builder.extend(trace.transactions)  # a Trace is in timestamp order
    wcg = builder.build()

    print(f"Angler episode: {len(trace.transactions)} transactions, "
          f"{trace.duration:.1f} s lifetime")
    print(f"WCG: {wcg.order} nodes, {wcg.size} edges, "
          f"origin = {wcg.origin!r}\n")

    print("Nodes:")
    for host in wcg.hosts():
        data = wcg.node_data(host)
        marker = {
            NodeKind.ORIGIN: "(origin)",
            NodeKind.VICTIM: "(victim)",
            NodeKind.MALICIOUS: "(MALICIOUS - served exploit payload)",
            NodeKind.REDIRECTOR: "(redirect intermediary)",
        }.get(data.kind, "")
        uris = f", {len(data.uris)} URIs" if data.uris else ""
        print(f"  {host:40s} {marker}{uris}")

    # An edge stores its kind and timestamp: the HTTP details come from
    # the transactions (each adds its request edge, then its response
    # edge), the redirect mechanism from redirect inference, and the
    # stages from the builder.
    mechanisms = {
        (redirect.source, redirect.target, redirect.timestamp):
            redirect.kind.value
        for redirect in infer_redirects(trace.transactions)
    }
    transactions = iter(trace.transactions)
    edges = []
    for (source, target, data), stage in zip(wcg.edges(),
                                             builder.edge_stages()):
        if data.kind is EdgeKind.REQUEST:
            txn = next(transactions)
            detail = (f"{txn.request.method.value} "
                      f"len(uri)={txn.request.uri_length}")
        elif data.kind is EdgeKind.RESPONSE:
            detail = (f"HTTP {txn.status} {txn.payload_type.value} "
                      f"{txn.payload_size}B")
        else:
            mechanism = mechanisms.get((source, target, data.timestamp),
                                       "origin")
            detail = f"redirect via {mechanism}"
        edges.append((stage, source, target, data, detail))

    stage_names = {
        Stage.PRE_DOWNLOAD: "pre-download  (redirection run-up)",
        Stage.DOWNLOAD: "download      (exploit delivery)",
        Stage.POST_DOWNLOAD: "post-download (C&C call-backs)",
    }
    for stage, label in stage_names.items():
        in_stage = [edge[1:] for edge in edges if edge[0] is stage]
        print(f"\n{label}: {len(in_stage)} edges")
        for source, target, data, detail in in_stage[:6]:
            print(f"  {source} -> {target}  [{data.kind.value}] {detail}")
        if len(in_stage) > 6:
            print(f"  ... and {len(in_stage) - 6} more")

    print("\nTop-level payload-agnostic features (Table II):")
    vector = extract_features(wcg)
    for spec, value in list(zip(FEATURES, vector))[:12]:
        print(f"  {spec.fid:4s} {spec.name:28s} = {value:.4f}")
    print("  ...")


if __name__ == "__main__":
    main()
