"""Reference session-id extraction: regex, ``urlsplit`` and ``parse_qsl``
on every URI — what ``repro.core.sessions.extract_session_id`` did
before it learned to skip them for URIs that cannot carry a marker."""

import re
from urllib.parse import parse_qsl, urlsplit

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


def extract_session_id_reference(txn) -> str:
    """Path parameter, then query parameter, then cookies."""
    uri = txn.request.uri
    path_match = _PATH_SESSION.search(uri)
    if path_match:
        return path_match.group(1)
    query = urlsplit(uri).query
    if query:
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
