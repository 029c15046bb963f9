"""Enticement exposure analysis (Section II-B, Figures 1 and 2).

Recovers, per infection trace, the enticement strategy that lured the
victim — by classifying the origin of the conversation — and aggregates
overall (Figure 1) and per-family (Figure 2) distributions.
"""

from __future__ import annotations

from repro.core.model import Trace
from repro.synthesis.corpus import Corpus
from repro.synthesis.entities import SEARCH_ENGINES, SOCIAL_SITES

__all__ = ["classify_origin", "exposure_distribution",
           "per_family_exposure", "EXPOSURE_CATEGORIES"]

#: Figure 1 legend categories, in display order.
EXPOSURE_CATEGORIES = (
    "google", "bing", "empty", "compromised", "redacted", "social",
    "legitimate",
)

_CMS_MARKERS = ("/wp-content/", "/wp-includes/", "/wp-admin/",
                "/components/com_", "/modules/mod_", "/sites/default/")


def classify_origin(trace: Trace) -> str:
    """Classify one infection trace's enticement origin.

    Mirrors the paper's forensics: search-engine referrers are read off
    the origin host; empty referrers indicate concealment; an entry-hop
    URI matching a default CMS installation marks a compromised site.
    """
    origin = trace.origin.lower()
    if not origin:
        # Distinguish concealed-empty from privacy-redacted via metadata
        # when available (the generators record it); default to empty.
        if trace.meta.get("enticement") == "redacted":
            return "redacted"
        return "empty"
    if "google" in origin:
        return "google"
    if "bing" in origin:
        return "bing"
    if any(origin.endswith(s) for s in SOCIAL_SITES):
        return "social"
    if any(origin.endswith(s) for s in SEARCH_ENGINES):
        return "google"  # minor engines folded into the search share
    first_uri = ""
    for txn in trace.transactions:
        if txn.server == origin or txn.request.referrer_host == origin:
            first_uri = txn.request.uri
            break
    if trace.transactions and not first_uri:
        first_uri = trace.transactions[0].request.uri
    if any(marker in first_uri for marker in _CMS_MARKERS):
        return "compromised"
    if trace.meta.get("enticement") == "compromised":
        return "compromised"
    return "legitimate"


def exposure_distribution(traces: list[Trace]) -> dict[str, float]:
    """Figure 1: fraction of infections per enticement category."""
    counts = {category: 0 for category in EXPOSURE_CATEGORIES}
    total = 0
    for trace in traces:
        if not trace.is_infection:
            continue
        counts[classify_origin(trace)] += 1
        total += 1
    if total == 0:
        return {category: 0.0 for category in EXPOSURE_CATEGORIES}
    return {category: count / total for category, count in counts.items()}


def per_family_exposure(corpus: Corpus) -> dict[str, dict[str, float]]:
    """Figure 2: per-family enticement distributions."""
    result: dict[str, dict[str, float]] = {}
    for family in corpus.families:
        result[family] = exposure_distribution(corpus.by_family(family))
    return result
