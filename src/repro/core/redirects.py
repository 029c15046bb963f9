"""Redirection inference heuristics (Section III-B / III-D).

The paper pinpoints redirection footprints via ``Referer`` headers on the
client side, ``Location`` headers on the server side, and *custom*
redirections — HTML META refreshes, JavaScript navigation, and iframes —
which miscreants frequently conceal behind client-side obfuscation.  This
module implements those heuristics, including a deobfuscation pass that
recovers redirect targets hidden behind the obfuscation styles observed
in exploit-kit landing pages (string splitting/concatenation,
``String.fromCharCode`` encoding, percent/hex escapes, and ``atob``
base64 blobs).
"""

from __future__ import annotations

import base64
import binascii
import enum
import re
from dataclasses import dataclass
from urllib.parse import urljoin

from repro.core.model import HttpTransaction
from repro.core.payloads import authority_host, url_parts

__all__ = [
    "RedirectKind",
    "Redirect",
    "RedirectInferencer",
    "deobfuscate",
    "extract_content_redirects",
    "infer_redirects",
    "redirect_chains",
    "longest_chain_length",
]


class RedirectKind(enum.Enum):
    """Mechanism through which a redirection was effected."""

    HTTP_30X = "http_30x"
    META_REFRESH = "meta_refresh"
    JAVASCRIPT = "javascript"
    IFRAME = "iframe"
    REFERRER = "referrer"


@dataclass(frozen=True)
class Redirect:
    """One inferred redirection: ``source`` host led the client to
    ``target`` host via ``kind`` at ``timestamp``."""

    source: str
    target: str
    kind: RedirectKind
    timestamp: float
    target_url: str = ""

    @property
    def cross_domain(self) -> bool:
        """True when source and target registered domains differ."""
        return _registered_domain(self.source) != _registered_domain(self.target)


_TWO_LEVEL_TLDS = frozenset({"co.uk", "com.br", "com.cn", "co.jp", "com.au"})


def _registered_domain(host: str) -> str:
    """Crude eTLD+1 extraction good enough for cross-domain judgement."""
    parts = host.lower().strip(".").split(".")
    if len(parts) <= 2:
        return ".".join(parts)
    if ".".join(parts[-2:]) in _TWO_LEVEL_TLDS:
        return ".".join(parts[-3:])
    return ".".join(parts[-2:])


def _host_of(url: str, base_host: str = "") -> str:
    """Hostname of ``url`` (resolving relative URLs against base_host)."""
    parsed = url_parts(url)
    if parsed.netloc:
        return authority_host(parsed.netloc)
    return base_host.lower()


# --- deobfuscation -------------------------------------------------------

_FROMCHARCODE = re.compile(
    r"String\.fromCharCode\(\s*([0-9,\s]+?)\s*\)", re.IGNORECASE
)
_ATOB = re.compile(r"atob\(\s*['\"]([A-Za-z0-9+/=]+)['\"]\s*\)")
_CONCAT = re.compile(r"['\"]([^'\"]*)['\"]\s*\+\s*['\"]([^'\"]*)['\"]")
_HEX_ESCAPE = re.compile(r"\\x([0-9a-fA-F]{2})")
_UNICODE_ESCAPE = re.compile(r"\\u([0-9a-fA-F]{4})")
_PCT_ESCAPE = re.compile(r"%([0-9a-fA-F]{2})")
_UNESCAPE_CALL = re.compile(r"unescape\(\s*['\"]([^'\"]+)['\"]\s*\)")
_ARRAY_JOIN = re.compile(
    r"\[\s*((?:['\"][^'\"]*['\"]\s*,\s*)+['\"][^'\"]*['\"])\s*\]"
    r"\s*\.\s*join\(\s*['\"]{2}\s*\)"
)
_REVERSE_JOIN = re.compile(
    r"['\"]([^'\"]+)['\"]\s*\.split\(['\"]{2}\)\.reverse\(\)\.join\(['\"]{2}\)"
)
_VAR_ASSIGN = re.compile(r"var\s+(\w+)\s*=\s*['\"]([^'\"]*)['\"]\s*;")


def deobfuscate(text: str, max_rounds: int = 8) -> str:
    """Iteratively undo common exploit-kit string obfuscations.

    Applies rewrite rules until a fixed point (or ``max_rounds``):
    ``String.fromCharCode`` decoding, ``atob`` base64 decoding,
    ``unescape``/percent decoding, hex and unicode escape decoding,
    ``[..].join('')`` folding, ``'..'.split('').reverse().join('')``
    reversal, and literal string concatenation folding.
    """

    def _fold_fromcharcode(match: re.Match[str]) -> str:
        try:
            codes = [int(tok) for tok in match.group(1).split(",") if tok.strip()]
            return '"' + "".join(chr(c) for c in codes if 0 <= c < 0x110000) + '"'
        except ValueError:
            return match.group(0)

    def _fold_atob(match: re.Match[str]) -> str:
        try:
            decoded = base64.b64decode(match.group(1), validate=True)
            return '"' + decoded.decode("utf-8", errors="replace") + '"'
        except (binascii.Error, ValueError):
            return match.group(0)

    def _fold_join(match: re.Match[str]) -> str:
        pieces = re.findall(r"['\"]([^'\"]*)['\"]", match.group(1))
        return '"' + "".join(pieces) + '"'

    def _fold_reverse(match: re.Match[str]) -> str:
        return '"' + match.group(1)[::-1] + '"'

    current = text
    for _ in range(max_rounds):
        previous = current
        current = _FROMCHARCODE.sub(_fold_fromcharcode, current)
        current = _ATOB.sub(_fold_atob, current)
        current = _ARRAY_JOIN.sub(_fold_join, current)
        current = _REVERSE_JOIN.sub(_fold_reverse, current)
        current = _UNESCAPE_CALL.sub(
            lambda m: '"' + _PCT_ESCAPE.sub(
                lambda h: chr(int(h.group(1), 16)), m.group(1)
            ) + '"',
            current,
        )
        current = _HEX_ESCAPE.sub(lambda m: chr(int(m.group(1), 16)), current)
        current = _UNICODE_ESCAPE.sub(lambda m: chr(int(m.group(1), 16)), current)
        current = _CONCAT.sub(lambda m: '"' + m.group(1) + m.group(2) + '"', current)
        # Single-assignment propagation: `var u = "X"; ... location = u`
        # becomes `... location = "X"`.
        for name, value in _VAR_ASSIGN.findall(current):
            current = re.sub(
                rf"(?<![\w'\"]){re.escape(name)}(?![\w'\"])",
                '"' + value.replace("\\", "\\\\") + '"',
                current,
            )
        if current == previous:
            break
    return current


# --- content redirect mining ---------------------------------------------

_META_REFRESH = re.compile(
    r"<meta[^>]+http-equiv\s*=\s*['\"]?refresh['\"]?[^>]*"
    r"content\s*=\s*['\"][^'\"]*url\s*=\s*([^'\">\s]+)",
    re.IGNORECASE,
)
_IFRAME_SRC = re.compile(
    r"<iframe[^>]+src\s*=\s*['\"]?(https?://[^'\">\s]+)", re.IGNORECASE
)
_JS_LOCATION = re.compile(
    r"(?:window\.|document\.|top\.|self\.)?location(?:\.href|\.replace|\.assign)?"
    r"\s*(?:=|\()\s*['\"](https?://[^'\"]+)['\"]",
    re.IGNORECASE,
)
_WINDOW_OPEN = re.compile(
    r"window\.open\(\s*['\"](https?://[^'\"]+)['\"]", re.IGNORECASE
)


def extract_content_redirects(body: str) -> list[tuple[RedirectKind, str]]:
    """Mine redirect targets out of an HTML/JS body.

    The body is deobfuscated first, then scanned for META refreshes,
    iframe injections, and JavaScript navigation.  Returns
    ``(kind, target_url)`` pairs in document order of first occurrence.

    Results are memoized per body: the streaming detector re-infers
    redirects over a growing window, and re-deobfuscating every body on
    each growth step dominated its runtime.  The keys *are* the bodies,
    so the memo is bounded by the characters it retains.
    """
    global _content_cache_chars
    cached = _CONTENT_CACHE.get(body)
    if cached is not None:
        return list(cached)
    text = deobfuscate(body)
    found: list[tuple[int, RedirectKind, str]] = []
    for pattern, kind in (
        (_META_REFRESH, RedirectKind.META_REFRESH),
        (_IFRAME_SRC, RedirectKind.IFRAME),
        (_JS_LOCATION, RedirectKind.JAVASCRIPT),
        (_WINDOW_OPEN, RedirectKind.JAVASCRIPT),
    ):
        for match in pattern.finditer(text):
            found.append((match.start(), kind, match.group(1).strip()))
    found.sort(key=lambda item: item[0])
    seen: set[str] = set()
    results: list[tuple[RedirectKind, str]] = []
    for _, kind, url in found:
        if url not in seen:
            seen.add(url)
            results.append((kind, url))
    if len(body) <= _MEMO_BODY_CHARS:
        _content_cache_chars += len(body)
        if (len(_CONTENT_CACHE) >= _CONTENT_CACHE_CAP
                or _content_cache_chars > _CONTENT_CACHE_CHARS):
            _CONTENT_CACHE.clear()  # simple bound; bodies repeat within runs
            _content_cache_chars = len(body)
        _CONTENT_CACHE[body] = tuple(results)
    return results


_TEXTUAL_TYPES = ("text/html", "text/javascript", "application/javascript",
                  "application/x-javascript", "application/xhtml")

#: Memo for extract_content_redirects (body -> results): at most
#: ``_CONTENT_CACHE_CAP`` keys holding ``_CONTENT_CACHE_CHARS`` characters,
#: none longer than ``_MEMO_BODY_CHARS`` (longer bodies are not kept).
_CONTENT_CACHE: dict[str, tuple] = {}
_CONTENT_CACHE_CAP = 4096
_CONTENT_CACHE_CHARS = 8 << 20
_MEMO_BODY_CHARS = 64 << 10
_content_cache_chars = 0
_NO_TARGETS: frozenset[str] = frozenset()


class RedirectInferencer:
    """Incremental redirect inference over a growing transaction stream.

    Combines three evidence sources, deduplicated on
    ``(source, target, kind)``:

    1. **HTTP 30x**: a response with a ``Location`` header redirects from
       the responding host to the target host.
    2. **Content**: META refresh / iframe / JS navigation mined from
       textual response bodies (after deobfuscation).
    3. **Referrer corroboration**: a request whose ``Referer`` names a
       different host that the client previously visited — evidence of a
       hop that left no 30x/content footprint.

    Each :meth:`observe` is O(new transaction); the streaming clue
    detector relies on this to avoid rescanning its whole window per
    update.
    """

    __slots__ = ("_seen", "_visited_hosts", "_content_targets")

    def __init__(self) -> None:
        # Small for the common watch, which never sees a redirect: one
        # dict is dedup index and ordered result list; no set until used.
        self._seen: dict[tuple[str, str, RedirectKind], Redirect] = {}
        self._visited_hosts: set[str] = set()
        self._content_targets = _NO_TARGETS

    @property
    def redirects(self) -> list[Redirect]:
        """Every redirect inferred so far, in the order found."""
        return list(self._seen.values())

    def _emit(self, source: str, target: str, kind: RedirectKind,
              ts: float, url: str = "") -> list[Redirect]:
        key = (source, target, kind)
        if not source or not target or source == target or key in self._seen:
            return []
        redirect = self._seen[key] = Redirect(source, target, kind, ts, url)
        return [redirect]

    def observe(self, txn: HttpTransaction) -> list[Redirect]:
        """Ingest one transaction; returns the redirects it revealed."""
        fresh: list[Redirect] = []
        server = txn.server
        response = txn.response
        if response is not None and response.is_redirect:
            try:
                absolute = urljoin(f"http://{server}/", response.location)
            except ValueError:
                # ``Location: http://[::1/x`` (``_host_of`` counts it and
                # the hop stays on ``server``), or a base like ``Host: [``.
                absolute = response.location
            target = _host_of(absolute, server)
            fresh += self._emit(server, target, RedirectKind.HTTP_30X,
                                response.timestamp, absolute)
            self._content_targets |= {target}
        if response is not None and response.body:
            if response.content_type.lower().startswith(_TEXTUAL_TYPES):
                body = response.body.decode("utf-8", errors="replace")
                for kind, url in extract_content_redirects(body):
                    target = _host_of(url, server)
                    fresh += self._emit(server, target, kind,
                                        response.timestamp, url)
                    self._content_targets |= {target}
        ref_host = txn.request.referrer_host
        if (
            ref_host
            and ref_host != server
            and ref_host in self._visited_hosts
            and server not in self._content_targets
        ):
            fresh += self._emit(ref_host, server, RedirectKind.REFERRER,
                                txn.timestamp)
        self._visited_hosts.add(server)
        return fresh


def infer_redirects(transactions: list[HttpTransaction]) -> list[Redirect]:
    """Infer all redirections in an ordered transaction stream.

    Batch convenience over :class:`RedirectInferencer` — identical
    semantics, one pass.
    """
    inferencer = RedirectInferencer()
    for txn in transactions:
        inferencer.observe(txn)
    return inferencer.redirects


def redirect_chains(redirects: list[Redirect]) -> list[list[Redirect]]:
    """Assemble individual redirects into maximal chains.

    A chain follows ``target`` -> next redirect whose ``source`` matches,
    in timestamp order.  Each redirect belongs to at most one chain;
    chains are returned in order of their first hop.
    """
    ordered = sorted(redirects, key=lambda r: r.timestamp)
    # Positions in ``ordered`` of the redirects no chain has taken yet,
    # by source host and ascending, so extending a chain looks only at
    # the hops that could follow instead of rescanning ``ordered``.
    unused: dict[str, list[int]] = {}
    for index, redirect in enumerate(ordered):
        unused.setdefault(redirect.source, []).append(index)
    taken = [False] * len(ordered)
    chains: list[list[Redirect]] = []
    for start, cursor in enumerate(ordered):
        if taken[start]:
            continue
        # Everything before ``start`` is taken, so it heads its list.
        unused[cursor.source].pop(0)
        chain = [cursor]
        while True:
            followers = unused.get(cursor.target, ())
            for position, index in enumerate(followers):
                if ordered[index].timestamp >= cursor.timestamp:
                    break
            else:
                break
            del followers[position]
            taken[index] = True
            cursor = ordered[index]
            chain.append(cursor)
        chains.append(chain)
    return chains


def longest_chain_length(redirects: list[Redirect]) -> int:
    """Number of hops in the longest assembled chain (0 when none)."""
    chains = redirect_chains(redirects)
    return max((len(chain) for chain in chains), default=0)
