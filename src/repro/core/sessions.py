"""Session grouping of HTTP transactions (Section V-B).

On the wire, transactions from many browsing sessions interleave.  The
paper groups transactions into candidate WCGs using the *session ID*
carried in URIs/cookies ([18], W3C session identification), falling back
to a heuristic that clusters on referrer values and timestamps when a
client juggles several session IDs at once.
"""

from __future__ import annotations

import re
from urllib.parse import parse_qsl

from repro.core.model import HttpTransaction
from repro.core.payloads import split_uri

__all__ = ["extract_session_id"]

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
