"""Unit tests for the payload taxonomy."""

import pytest

from repro.core.payloads import (
    EXPLOIT_EXTENSIONS,
    PayloadClass,
    PayloadType,
    RANSOMWARE_EXTENSIONS,
    classify,
    classify_content_type,
    classify_extension,
    classify_magic,
    classify_uri,
    is_downloadable,
    is_exploit_type,
)


class TestClassifyExtension:
    def test_exploit_extensions(self):
        assert classify_extension("jar") is PayloadType.JAR
        assert classify_extension("exe") is PayloadType.EXE
        assert classify_extension("pdf") is PayloadType.PDF
        assert classify_extension("xap") is PayloadType.XAP
        assert classify_extension("swf") is PayloadType.SWF

    def test_case_insensitive_and_dotted(self):
        assert classify_extension("EXE") is PayloadType.EXE
        assert classify_extension(".Jar") is PayloadType.JAR

    def test_ransomware_extensions_all_map_to_crypt(self):
        for ext in RANSOMWARE_EXTENSIONS:
            assert classify_extension(ext) is PayloadType.CRYPT

    def test_forty_five_ransomware_extensions(self):
        # The paper compiled 45 distinct crypto-locker extensions [10].
        assert len(RANSOMWARE_EXTENSIONS) == 45

    def test_common_extensions(self):
        assert classify_extension("html") is PayloadType.HTML
        assert classify_extension("js") is PayloadType.JAVASCRIPT
        assert classify_extension("png") is PayloadType.IMAGE
        assert classify_extension("zip") is PayloadType.ARCHIVE

    def test_unknown_extension_returns_none(self):
        assert classify_extension("weirdext") is None


class TestClassifyUri:
    def test_uri_with_query_string(self):
        assert classify_uri("/a/b/file.exe?x=1&y=2") is PayloadType.EXE

    def test_uri_without_extension(self):
        assert classify_uri("/gate/flow") is None

    def test_uri_with_dotted_directory(self):
        assert classify_uri("/v1.2/path") is None

    def test_absolute_url(self):
        assert classify_uri("http://evil.com/drop.jar") is PayloadType.JAR


class TestClassifyContentType:
    @pytest.mark.parametrize(
        "ctype,expected",
        [
            ("application/x-msdownload", PayloadType.EXE),
            ("application/pdf", PayloadType.PDF),
            ("application/x-shockwave-flash", PayloadType.SWF),
            ("application/x-silverlight-app", PayloadType.XAP),
            ("text/html; charset=utf-8", PayloadType.HTML),
            ("image/png", PayloadType.IMAGE),
            ("application/octet-stream", PayloadType.OCTET),
        ],
    )
    def test_known_types(self, ctype, expected):
        assert classify_content_type(ctype) is expected

    def test_unknown_type(self):
        assert classify_content_type("application/x-fancy") is None

    def test_empty(self):
        assert classify_content_type("") is None


class TestClassifyMagic:
    def test_pe_header(self):
        assert classify_magic(b"MZ\x90\x00rest") is PayloadType.EXE

    def test_pdf(self):
        assert classify_magic(b"%PDF-1.5") is PayloadType.PDF

    def test_flash_variants(self):
        for magic in (b"CWS", b"FWS", b"ZWS"):
            assert classify_magic(magic + b"rest") is PayloadType.SWF

    def test_unknown(self):
        assert classify_magic(b"\x00\x01\x02") is None


class TestClassifyCombined:
    def test_uri_exploit_dominates_content_type(self):
        # Kits frequently mislabel Content-Type; the .jar URI wins.
        assert classify("/drop.jar", "text/plain") is PayloadType.JAR

    def test_content_type_wins_over_common_uri(self):
        assert classify("/page.html", "application/pdf") is PayloadType.PDF

    def test_archive_content_with_jar_uri_is_jar(self):
        assert classify("/x.jar", "application/zip") is PayloadType.JAR

    def test_magic_fallback(self):
        assert classify("", "", b"MZ\x00\x00") is PayloadType.EXE

    def test_unclassifiable_with_body_is_octet(self):
        assert classify("", "", b"\xde\xad\xbe\xef") is PayloadType.OCTET

    def test_nothing_is_empty(self):
        assert classify() is PayloadType.EMPTY

    def test_ransomware_uri(self):
        assert classify("/files/readme.locky", "") is PayloadType.CRYPT


class TestPayloadClass:
    def test_exploit_class(self):
        assert PayloadType.EXE.payload_class is PayloadClass.EXPLOIT
        assert PayloadType.DMG.payload_class is PayloadClass.EXPLOIT

    def test_ransomware_class(self):
        assert PayloadType.CRYPT.payload_class is PayloadClass.RANSOMWARE

    def test_common_class(self):
        assert PayloadType.HTML.payload_class is PayloadClass.COMMON

    def test_unknown_class(self):
        assert PayloadType.OCTET.payload_class is PayloadClass.UNKNOWN


class TestPredicates:
    def test_is_exploit_type(self):
        assert is_exploit_type(PayloadType.JAR)
        assert is_exploit_type(PayloadType.CRYPT)
        assert not is_exploit_type(PayloadType.HTML)
        assert not is_exploit_type(PayloadType.IMAGE)

    def test_is_downloadable(self):
        assert is_downloadable(PayloadType.EXE)
        assert is_downloadable(PayloadType.ARCHIVE)
        assert not is_downloadable(PayloadType.CSS)
        assert not is_downloadable(PayloadType.IMAGE)
