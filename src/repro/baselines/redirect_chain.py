"""Redirection-chain baseline, after SpiderWeb [25] (Stringhini et al.,
CCS 2013) and Mekky et al. [14] (INFOCOM 2014).

The other abstraction the paper contrasts with: classify on the
properties of the *redirection chains* a browser traverses — chain
lengths, cross-domain hops, TLD diversity, IP-literal hops, 30x usage —
ignoring download and post-download dynamics entirely.
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.model import Trace
from repro.core.redirects import RedirectKind, infer_redirects, redirect_chains

__all__ = ["REDIRECT_FEATURES", "redirect_features", "extract_matrix"]

REDIRECT_FEATURES = (
    "rc_chain_count",
    "rc_max_chain_length",
    "rc_mean_chain_length",
    "rc_total_hops",
    "rc_cross_domain_ratio",
    "rc_tld_diversity",
    "rc_ip_literal_hops",
    "rc_http_30x_hops",
    "rc_content_hops",      # meta/JS/iframe redirects
    "rc_mean_hop_delay",
)

_IP_LITERAL = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


def _tld(host: str) -> str:
    return host.rsplit(".", 1)[-1] if "." in host else host


def redirect_features(trace: Trace) -> np.ndarray:
    """The [25]/[14]-style feature vector for one trace."""
    redirects = [
        r for r in infer_redirects(trace.transactions)
        if r.kind is not RedirectKind.REFERRER
    ]
    chains = redirect_chains(redirects)
    lengths = [len(chain) for chain in chains]
    cross = sum(1 for r in redirects if r.cross_domain)
    tlds = {_tld(r.target) for r in redirects} | {
        _tld(r.source) for r in redirects
    }
    ip_hops = sum(
        1 for r in redirects
        if _IP_LITERAL.match(r.source) or _IP_LITERAL.match(r.target)
    )
    http_hops = sum(
        1 for r in redirects if r.kind is RedirectKind.HTTP_30X
    )
    content_hops = len(redirects) - http_hops
    delays = []
    for chain in chains:
        for previous, current in zip(chain, chain[1:]):
            delays.append(max(0.0, current.timestamp - previous.timestamp))
    return np.array([
        float(len(chains)),
        float(max(lengths, default=0)),
        float(np.mean(lengths)) if lengths else 0.0,
        float(len(redirects)),
        cross / len(redirects) if redirects else 0.0,
        float(len(tlds)),
        float(ip_hops),
        float(http_hops),
        float(content_hops),
        float(np.mean(delays)) if delays else 0.0,
    ])


def extract_matrix(traces: list[Trace]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over labelled traces using redirection-chain features."""
    rows, labels = [], []
    for trace in traces:
        if trace.label is None:
            continue
        rows.append(redirect_features(trace))
        labels.append(1.0 if trace.is_infection else 0.0)
    if not rows:
        return np.empty((0, len(REDIRECT_FEATURES))), np.empty(0)
    return np.vstack(rows), np.array(labels)
