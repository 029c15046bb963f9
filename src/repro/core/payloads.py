"""Payload taxonomy used throughout the WCG analytics.

The paper (Section III-C, "Payload summary") distinguishes *known exploit
payload types* (``.jar``, ``.exe``, ``.pdf``, ``.xap``, ``.swf``),
*commonly exchanged payloads* (images, HTML, JavaScript, archives, text)
and *ransomware payloads*, which "come with variable file extensions"; the
authors match against 45 distinct crypto-locker extensions compiled from
industry reports [10].  This module encodes that taxonomy and the helpers
the rest of the library uses to classify a payload from its URI, declared
content type, or magic bytes.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from urllib.parse import SplitResult, urlsplit

from repro.obs import get_registry

__all__ = [
    "authority_host",
    "split_uri",
    "PayloadClass",
    "PayloadType",
    "EXPLOIT_EXTENSIONS",
    "RANSOMWARE_EXTENSIONS",
    "COMMON_EXTENSIONS",
    "classify_extension",
    "classify_uri",
    "classify_content_type",
    "classify",
    "is_exploit_type",
    "is_downloadable",
]


class PayloadClass(enum.Enum):
    """Coarse class of a payload, per the paper's node-level summary."""

    EXPLOIT = "exploit"
    RANSOMWARE = "ransomware"
    COMMON = "common"
    UNKNOWN = "unknown"


class PayloadType(enum.Enum):
    """Concrete payload type attached to response edges in a WCG."""

    # Known exploit payload types (Section III-C).
    JAR = "jar"
    EXE = "exe"
    PDF = "pdf"
    XAP = "xap"  # Silverlight
    SWF = "swf"  # Flash
    DMG = "dmg"  # macOS executable image (live case study, Section VI-D)
    # Ransomware / crypto-locker payloads (45 extensions collapse here).
    CRYPT = "crypt"
    # Commonly exchanged payloads.
    HTML = "html"
    JAVASCRIPT = "js"
    CSS = "css"
    IMAGE = "image"
    ARCHIVE = "archive"
    TEXT = "text"
    JSON = "json"
    XML = "xml"
    FONT = "font"
    VIDEO = "video"
    AUDIO = "audio"
    OCTET = "octet"
    EMPTY = "empty"

    @property
    def payload_class(self) -> PayloadClass:
        """Return the coarse :class:`PayloadClass` for this type."""
        if self in _EXPLOIT_TYPES:
            return PayloadClass.EXPLOIT
        if self is PayloadType.CRYPT:
            return PayloadClass.RANSOMWARE
        if self in (PayloadType.OCTET, PayloadType.EMPTY):
            return PayloadClass.UNKNOWN
        return PayloadClass.COMMON


_EXPLOIT_TYPES = frozenset(
    {
        PayloadType.JAR,
        PayloadType.EXE,
        PayloadType.PDF,
        PayloadType.XAP,
        PayloadType.SWF,
        PayloadType.DMG,
    }
)

#: Known exploit payload file extensions (Section III-C).
EXPLOIT_EXTENSIONS: dict[str, PayloadType] = {
    "jar": PayloadType.JAR,
    "exe": PayloadType.EXE,
    "msi": PayloadType.EXE,
    "scr": PayloadType.EXE,
    "pdf": PayloadType.PDF,
    "xap": PayloadType.XAP,
    "swf": PayloadType.SWF,
    "dmg": PayloadType.DMG,
}

#: The 45 crypto-locker extensions the paper compiled from industry
#: reports on ransomware [10].  All map to ``PayloadType.CRYPT``.
RANSOMWARE_EXTENSIONS: frozenset[str] = frozenset(
    {
        "crypt", "cryp1", "crypz", "crypto", "encrypted", "enc", "locked",
        "locky", "zepto", "odin", "thor", "aesir", "zzzzz", "osiris",
        "cerber", "cerber2", "cerber3", "crjoker", "crinf", "ecc", "ezz",
        "exx", "r5a", "rdm", "rrk", "xrnt", "xtbl", "vault", "cbf",
        "keybtc@inbox_com", "lechiffre", "magic", "ctbl", "ctb2", "kraken",
        "darkness", "nochance", "oshit", "kb15", "fun", "gws", "btc",
        "aaa", "abc", "ccc",
    }
)

#: Commonly exchanged payload extensions.
COMMON_EXTENSIONS: dict[str, PayloadType] = {
    "html": PayloadType.HTML,
    "htm": PayloadType.HTML,
    "php": PayloadType.HTML,
    "asp": PayloadType.HTML,
    "aspx": PayloadType.HTML,
    "jsp": PayloadType.HTML,
    "js": PayloadType.JAVASCRIPT,
    "css": PayloadType.CSS,
    "png": PayloadType.IMAGE,
    "jpg": PayloadType.IMAGE,
    "jpeg": PayloadType.IMAGE,
    "gif": PayloadType.IMAGE,
    "ico": PayloadType.IMAGE,
    "svg": PayloadType.IMAGE,
    "webp": PayloadType.IMAGE,
    "zip": PayloadType.ARCHIVE,
    "gz": PayloadType.ARCHIVE,
    "rar": PayloadType.ARCHIVE,
    "7z": PayloadType.ARCHIVE,
    "tar": PayloadType.ARCHIVE,
    "txt": PayloadType.TEXT,
    "csv": PayloadType.TEXT,
    "json": PayloadType.JSON,
    "xml": PayloadType.XML,
    "woff": PayloadType.FONT,
    "woff2": PayloadType.FONT,
    "ttf": PayloadType.FONT,
    "mp4": PayloadType.VIDEO,
    "webm": PayloadType.VIDEO,
    "flv": PayloadType.VIDEO,
    "ts": PayloadType.VIDEO,
    "m3u8": PayloadType.VIDEO,
    "mp3": PayloadType.AUDIO,
    "doc": PayloadType.OCTET,
    "docx": PayloadType.OCTET,
    "xls": PayloadType.OCTET,
    "xlsx": PayloadType.OCTET,
    "bin": PayloadType.OCTET,
}

#: Content-Type prefixes mapped to payload types, used when a URI carries
#: no informative extension.
_CONTENT_TYPE_MAP: tuple[tuple[str, PayloadType], ...] = (
    ("application/java-archive", PayloadType.JAR),
    ("application/x-java-archive", PayloadType.JAR),
    ("application/x-msdownload", PayloadType.EXE),
    ("application/x-msdos-program", PayloadType.EXE),
    ("application/exe", PayloadType.EXE),
    ("application/pdf", PayloadType.PDF),
    ("application/x-silverlight-app", PayloadType.XAP),
    ("application/x-shockwave-flash", PayloadType.SWF),
    ("application/x-apple-diskimage", PayloadType.DMG),
    ("text/html", PayloadType.HTML),
    ("application/xhtml", PayloadType.HTML),
    ("text/javascript", PayloadType.JAVASCRIPT),
    ("application/javascript", PayloadType.JAVASCRIPT),
    ("application/x-javascript", PayloadType.JAVASCRIPT),
    ("text/css", PayloadType.CSS),
    ("image/", PayloadType.IMAGE),
    ("application/zip", PayloadType.ARCHIVE),
    ("application/x-gzip", PayloadType.ARCHIVE),
    ("application/x-rar", PayloadType.ARCHIVE),
    ("application/json", PayloadType.JSON),
    ("text/xml", PayloadType.XML),
    ("application/xml", PayloadType.XML),
    ("text/plain", PayloadType.TEXT),
    ("font/", PayloadType.FONT),
    ("video/", PayloadType.VIDEO),
    ("audio/", PayloadType.AUDIO),
    ("application/octet-stream", PayloadType.OCTET),
)

#: Magic byte prefixes for the payload sniffing fallback.
_MAGIC_BYTES: tuple[tuple[bytes, PayloadType], ...] = (
    (b"MZ", PayloadType.EXE),
    (b"%PDF", PayloadType.PDF),
    (b"CWS", PayloadType.SWF),
    (b"FWS", PayloadType.SWF),
    (b"ZWS", PayloadType.SWF),
    (b"PK\x03\x04", PayloadType.ARCHIVE),  # may be JAR/XAP, see classify()
    (b"\x89PNG", PayloadType.IMAGE),
    (b"\xff\xd8\xff", PayloadType.IMAGE),
    (b"GIF8", PayloadType.IMAGE),
    (b"<!DOCTYPE", PayloadType.HTML),
    (b"<html", PayloadType.HTML),
)


#: What ``urlsplit`` strips or cuts at besides the first ``?``.
_SPLIT_NEEDS_URLSPLIT = re.compile(r"[#\t\r\n]").search


def split_uri(uri: str) -> tuple[str, str]:
    """``(path, query)`` of a request URI, exactly as ``urlsplit`` gives.

    Nearly every request line is origin-form (``/path?query``), and for
    one with no fragment and no tab/CR/LF all ``urlsplit`` does is cut
    at the first ``?``; only the rest (absolute-form, ``//authority``,
    fragments) pays for the general parser.
    """
    if (uri[:1] == "/" and uri[1:2] != "/"
            and not _SPLIT_NEEDS_URLSPLIT(uri)):
        path, _, query = uri.partition("?")
        return path, query
    parts = url_parts(uri)
    return parts.path, parts.query


def url_parts(url: str) -> SplitResult:
    """``urlsplit`` for a URL taken off the wire; never raises.

    One that ``urlsplit`` rejects (``http://[::1/x``: an IPv6 bracket
    left open) is counted (``http.bad_urls``) and read as having no
    host, the whole string its path — the one value for a request URI,
    a ``Referer``, a ``Location`` and a content-redirect URL alike.
    """
    try:
        return urlsplit(url)
    except ValueError:
        get_registry().counter("http.bad_urls").inc()
        return SplitResult("", "", url, "", "")


def authority_host(authority: str) -> str:
    """Lower-cased host of a ``host[:port]`` authority ([v6] brackets kept):
    the one rule for request host, referrer host and redirect target."""
    if authority[:1] == "[" and "]" in authority:
        return authority[:authority.index("]") + 1].lower()
    return authority.split(":", 1)[0].lower()


def _extension_of(uri: str) -> str:
    """Return the lower-cased final extension of a URI path, or ``""``."""
    path = split_uri(uri)[0]
    name = path.rsplit("/", 1)[-1]
    if "." not in name:
        return ""
    return name.rsplit(".", 1)[-1].lower()


def classify_extension(extension: str) -> PayloadType | None:
    """Classify a bare file extension; ``None`` when unrecognized."""
    ext = extension.lower().lstrip(".")
    if ext in EXPLOIT_EXTENSIONS:
        return EXPLOIT_EXTENSIONS[ext]
    if ext in RANSOMWARE_EXTENSIONS:
        return PayloadType.CRYPT
    return COMMON_EXTENSIONS.get(ext)


def classify_uri(uri: str) -> PayloadType | None:
    """Classify a payload from the extension in its URI, if any."""
    ext = _extension_of(uri)
    if not ext:
        return None
    return classify_extension(ext)


@lru_cache(maxsize=512)
def classify_content_type(content_type: str) -> PayloadType | None:
    """Classify a payload from its declared ``Content-Type`` header.

    Memoised: a wire carries a few dozen distinct values, every
    response carries one, and the answer is a prefix scan.
    """
    value = content_type.split(";", 1)[0].strip().lower()
    if not value:
        return None
    for prefix, ptype in _CONTENT_TYPE_MAP:
        if value.startswith(prefix):
            return ptype
    return None


def classify_magic(body: bytes) -> PayloadType | None:
    """Classify a payload by sniffing its leading magic bytes."""
    for magic, ptype in _MAGIC_BYTES:
        if body.startswith(magic):
            return ptype
    return None


def classify(
    uri: str = "",
    content_type: str = "",
    body: bytes = b"",
) -> PayloadType:
    """Best-effort payload classification combining all evidence.

    Precedence follows the paper's heuristics: an explicit exploit or
    ransomware extension in the URI dominates (exploit kits frequently
    mislabel ``Content-Type``); the declared content type comes next;
    magic-byte sniffing is the last resort.  An unclassifiable payload is
    :attr:`PayloadType.OCTET` when a body is present, else
    :attr:`PayloadType.EMPTY`.
    """
    by_uri = classify_uri(uri) if uri else None
    if by_uri is not None and by_uri.payload_class in (
        PayloadClass.EXPLOIT,
        PayloadClass.RANSOMWARE,
    ):
        return by_uri
    by_ct = classify_content_type(content_type) if content_type else None
    if by_ct is not None and by_ct is not PayloadType.OCTET:
        # A zip-like content type with a .jar/.xap URI is the archive
        # container of an exploit; prefer the URI's verdict.
        if by_ct is PayloadType.ARCHIVE and by_uri in (
            PayloadType.JAR,
            PayloadType.XAP,
        ):
            return by_uri
        return by_ct
    if by_uri is not None:
        return by_uri
    if body:
        by_magic = classify_magic(body)
        if by_magic is not None:
            return by_magic
        return PayloadType.OCTET
    if by_ct is PayloadType.OCTET:
        return PayloadType.OCTET
    return PayloadType.EMPTY


def is_exploit_type(ptype: PayloadType) -> bool:
    """True when ``ptype`` is a known exploit or ransomware payload type."""
    return ptype.payload_class in (PayloadClass.EXPLOIT, PayloadClass.RANSOMWARE)


def is_downloadable(ptype: PayloadType) -> bool:
    """True when ``ptype`` represents a file download rather than page
    furniture (HTML/CSS/JS/images/fonts are furniture)."""
    return ptype in (
        PayloadType.JAR,
        PayloadType.EXE,
        PayloadType.PDF,
        PayloadType.XAP,
        PayloadType.SWF,
        PayloadType.DMG,
        PayloadType.CRYPT,
        PayloadType.ARCHIVE,
        PayloadType.OCTET,
    )
