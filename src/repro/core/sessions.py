"""Session grouping of HTTP transactions (Section V-B).

On the wire, transactions from many browsing sessions interleave.  The
paper groups transactions into candidate WCGs using the *session ID*
carried in URIs/cookies ([18], W3C session identification), falling back
to a heuristic that clusters on referrer values and timestamps when a
client juggles several session IDs at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import parse_qsl

from repro.core.model import HttpTransaction
from repro.core.payloads import split_uri

__all__ = ["extract_session_id", "SessionCluster", "group_sessions"]

_SESSION_PARAM_NAMES = (
    "sessionid", "session_id", "session", "sid", "phpsessid", "jsessionid",
    "aspsessionid", "sess", "s_id", "cfid",
)
_COOKIE_SESSION = re.compile(
    r"(?:PHPSESSID|JSESSIONID|ASP\.NET_SessionId|session[-_]?id|sid)"
    r"\s*=\s*([A-Za-z0-9_\-]+)",
    re.IGNORECASE,
)
_PATH_SESSION = re.compile(r";jsessionid=([A-Za-z0-9_\-]+)", re.IGNORECASE)
#: A query names a session parameter only if it spells one out, or
#: holds an escape (``%xx``, ``+``) that might decode to one; the other
#: nine in ten are spared ``parse_qsl``.
_MAY_NAME_SESSION = re.compile(
    "|".join(_SESSION_PARAM_NAMES) + "|[%+]", re.IGNORECASE
).search


def extract_session_id(txn: HttpTransaction) -> str:
    """Best-effort session identifier for a transaction.

    Checks, in order: ``;jsessionid=`` path parameters, well-known query
    parameters, the ``Cookie`` request header, and ``Set-Cookie`` on the
    response.  Returns ``""`` when no session marker is present.
    """
    uri = txn.request.uri
    # Most URIs carry neither marker; the substring tests spare them
    # the regex, the split and the query parse.
    if ";" in uri:
        path_match = _PATH_SESSION.search(uri)
        if path_match:
            return path_match.group(1)
    if "?" in uri:
        query = split_uri(uri)[1]
        if query and _MAY_NAME_SESSION(query):
            for name, value in parse_qsl(query, keep_blank_values=False):
                if name.lower() in _SESSION_PARAM_NAMES and value:
                    return value
    cookie = txn.request.headers.get("Cookie")
    if cookie:
        cookie_match = _COOKIE_SESSION.search(cookie)
        if cookie_match:
            return cookie_match.group(1)
    if txn.response is not None:
        set_cookie = txn.response.headers.get("Set-Cookie")
        if set_cookie:
            cookie_match = _COOKIE_SESSION.search(set_cookie)
            if cookie_match:
                return cookie_match.group(1)
    return ""


@dataclass
class SessionCluster:
    """One candidate conversation: a client's related transactions."""

    client: str
    transactions: list[HttpTransaction] = field(default_factory=list)
    session_ids: set[str] = field(default_factory=set)
    hosts: set[str] = field(default_factory=set)
    last_ts: float = 0.0

    def add(self, txn: HttpTransaction, session_id: str) -> None:
        """Append a transaction and update cluster membership indexes."""
        self.transactions.append(txn)
        if session_id:
            self.session_ids.add(session_id)
        self.hosts.add(txn.server)
        ref = txn.request.referrer_host
        if ref:
            self.hosts.add(ref)
        self.last_ts = max(self.last_ts, txn.timestamp)


def group_sessions(
    transactions: list[HttpTransaction],
    idle_gap: float = 60.0,
) -> list[SessionCluster]:
    """Cluster a transaction stream into per-session groups.

    Clustering is per client.  A transaction joins an existing cluster of
    the same client when any of these hold (the paper's heuristic order):

    1. it carries a session ID already seen in the cluster;
    2. its referrer host (or target host) is already a member host of the
       cluster and it arrives within ``idle_gap`` seconds of the
       cluster's last activity;
    3. otherwise it opens a new cluster.

    Returns clusters ordered by first-transaction timestamp.
    """
    ordered = sorted(transactions, key=lambda t: t.timestamp)
    clusters: list[SessionCluster] = []
    by_client: dict[str, list[SessionCluster]] = {}
    for txn in ordered:
        session_id = extract_session_id(txn)
        candidates = by_client.setdefault(txn.client, [])
        chosen: SessionCluster | None = None
        if session_id:
            for cluster in candidates:
                if session_id in cluster.session_ids:
                    chosen = cluster
                    break
        if chosen is None:
            ref_host = txn.request.referrer_host
            for cluster in reversed(candidates):
                if txn.timestamp - cluster.last_ts > idle_gap:
                    continue
                if ref_host and ref_host in cluster.hosts:
                    chosen = cluster
                    break
                if txn.server in cluster.hosts:
                    chosen = cluster
                    break
        if chosen is None:
            chosen = SessionCluster(client=txn.client)
            candidates.append(chosen)
            clusters.append(chosen)
        chosen.add(txn, session_id)
    clusters.sort(key=lambda c: c.transactions[0].timestamp)
    return clusters
