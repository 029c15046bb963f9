"""The Section II infection-dynamics study: Table I and global properties.

Given a corpus of labelled traces, recomputes everything the paper's
offline analysis reports: the per-family ground-truth statistics
(Table I), the Section III-D global graph properties, and the
post-infection call-back prevalence (Section II-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import build_wcg
from repro.core.model import Trace
from repro.core.payloads import PayloadType
from repro.core.redirects import (
    RedirectKind,
    infer_redirects,
    longest_chain_length,
)
from repro.core.stages import Stage, assign_stages
from repro.synthesis.corpus import Corpus

__all__ = ["FamilyRow", "GlobalProperties", "table1_rows", "global_properties",
           "callback_prevalence"]

#: Table I payload columns, in paper order.
_PAYLOAD_COLUMNS = ("pdf", "exe", "jar", "swf", "crypt", "js")

_COLUMN_TYPES: dict[str, tuple[PayloadType, ...]] = {
    "pdf": (PayloadType.PDF,),
    "exe": (PayloadType.EXE, PayloadType.DMG),
    "jar": (PayloadType.JAR,),
    "swf": (PayloadType.SWF,),
    "crypt": (PayloadType.CRYPT,),
    "js": (PayloadType.JAVASCRIPT,),
}


@dataclass
class FamilyRow:
    """One Table I row recomputed from a corpus."""

    family: str
    n_traces: int
    hosts_min: int
    hosts_max: int
    hosts_avg: float
    redirects_min: int
    redirects_max: int
    redirects_avg: float
    payload_counts: dict[str, int] = field(default_factory=dict)

    def as_list(self) -> list[object]:
        """Row cells in the paper's column order."""
        return [
            self.family, self.n_traces,
            self.hosts_min, self.hosts_max, round(self.hosts_avg, 1),
            self.redirects_min, self.redirects_max,
            round(self.redirects_avg, 1),
            *(self.payload_counts.get(col, 0) for col in _PAYLOAD_COLUMNS),
        ]


def _trace_stats(trace: Trace) -> tuple[int, int, dict[str, int]]:
    """(host count, redirect chain length, payload counts) for one trace."""
    hosts = len(trace.hosts)
    # Table I counts actual redirections (30x / content-embedded); the
    # referrer-corroborated hops our graph builder also mines would count
    # ordinary link clicks as redirects.
    genuine = [
        r for r in infer_redirects(trace.transactions)
        if r.kind is not RedirectKind.REFERRER
    ]
    redirects = longest_chain_length(genuine)
    counts: dict[str, int] = {}
    for txn in trace.transactions:
        if txn.status != 200:
            continue
        for column, types in _COLUMN_TYPES.items():
            if txn.payload_type in types:
                counts[column] = counts.get(column, 0) + 1
    return hosts, redirects, counts


def table1_rows(corpus: Corpus) -> list[FamilyRow]:
    """Recompute Table I: the benign row first, then each family."""
    groups: list[tuple[str, list[Trace]]] = [("Benign", corpus.benign)]
    groups.extend(
        (family, corpus.by_family(family)) for family in corpus.families
    )
    rows: list[FamilyRow] = []
    for family, traces in groups:
        if not traces:
            continue
        host_counts: list[int] = []
        redirect_counts: list[int] = []
        payload_totals: dict[str, int] = {}
        for trace in traces:
            hosts, redirects, counts = _trace_stats(trace)
            host_counts.append(hosts)
            redirect_counts.append(redirects)
            for column, count in counts.items():
                payload_totals[column] = payload_totals.get(column, 0) + count
        rows.append(
            FamilyRow(
                family=family,
                n_traces=len(traces),
                hosts_min=min(host_counts),
                hosts_max=max(host_counts),
                hosts_avg=float(np.mean(host_counts)),
                redirects_min=min(redirect_counts),
                redirects_max=max(redirect_counts),
                redirects_avg=float(np.mean(redirect_counts)),
                payload_counts=payload_totals,
            )
        )
    return rows


@dataclass(frozen=True)
class GlobalProperties:
    """Section III-D global WCG properties."""

    nodes_min: int
    nodes_max: int
    nodes_avg: float
    edges_min: int
    edges_max: int
    edges_avg: float
    lifetime_min: float
    lifetime_max: float
    lifetime_avg: float


def global_properties(traces: list[Trace]) -> GlobalProperties:
    """Node/edge/lifetime ranges over the given traces' WCGs."""
    nodes: list[int] = []
    edges: list[int] = []
    lifetimes: list[float] = []
    for trace in traces:
        wcg = build_wcg(trace)
        nodes.append(wcg.order)
        edges.append(wcg.size)
        lifetimes.append(trace.duration)
    return GlobalProperties(
        nodes_min=min(nodes), nodes_max=max(nodes),
        nodes_avg=float(np.mean(nodes)),
        edges_min=min(edges), edges_max=max(edges),
        edges_avg=float(np.mean(edges)),
        lifetime_min=min(lifetimes), lifetime_max=max(lifetimes),
        lifetime_avg=float(np.mean(lifetimes)),
    )


def callback_prevalence(traces: list[Trace]) -> float:
    """Fraction of traces with at least one post-download edge (that
    is, one post-download transaction: each has a request edge).

    The paper confirmed call-back attempts in 708/770 infection traces
    (Section II-D).
    """
    if not traces:
        return 0.0
    with_callback = sum(
        1 for trace in traces
        if Stage.POST_DOWNLOAD in assign_stages(trace.transactions)
    )
    return with_callback / len(traces)
