"""Unit + property tests for redirect inference and deobfuscation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Trace
from repro.core.redirects import (
    Redirect,
    RedirectKind,
    deobfuscate,
    extract_content_redirects,
    infer_redirects,
    longest_chain_length,
    redirect_chains,
)
from repro.synthesis.obfuscation import ObfuscationStyle, obfuscate_redirect
from tests.conftest import make_txn
from tests.oracles.redirect_chains import redirect_chains_reference


class TestDeobfuscate:
    def test_fromcharcode(self):
        encoded = 'String.fromCharCode(104,105)'
        assert '"hi"' in deobfuscate(encoded)

    def test_atob(self):
        import base64
        blob = base64.b64encode(b"http://x.com/").decode()
        assert "http://x.com/" in deobfuscate(f'atob("{blob}")')

    def test_concat_folding(self):
        assert '"http://evil.com/"' in deobfuscate('"http://" + "evil.com/"')

    def test_multi_chunk_concat(self):
        code = '"ht" + "tp://" + "e.com" + "/p"'
        assert '"http://e.com/p"' in deobfuscate(code)

    def test_unescape(self):
        escaped = "".join(f"%{ord(c):02x}" for c in "http://a.biz/")
        assert "http://a.biz/" in deobfuscate(f'unescape("{escaped}")')

    def test_hex_escapes(self):
        assert "AB" in deobfuscate(r"\x41\x42")

    def test_unicode_escapes(self):
        assert "AB" in deobfuscate(r"AB")

    def test_array_join(self):
        code = '["http://", "x.ru", "/gate"].join("")'
        assert '"http://x.ru/gate"' in deobfuscate(code)

    def test_reverse(self):
        code = '"' + "http://rev.com/"[::-1] + '".split("").reverse().join("")'
        assert '"http://rev.com/"' in deobfuscate(code)

    def test_plain_text_unchanged(self):
        text = "var x = 1; // nothing to undo"
        assert deobfuscate(text) == text

    def test_invalid_atob_left_alone(self):
        code = 'atob("!!notbase64!!")'
        assert deobfuscate(code) == code

    def test_nested_layers(self):
        # concat inside produces a string that then needs nothing more;
        # multiple rounds still terminate.
        code = '"a" + "b" + String.fromCharCode(99)'
        result = deobfuscate(code)
        assert '"abc"' in result


class TestExtractContentRedirects:
    def test_meta_refresh(self):
        html = '<meta http-equiv="refresh" content="0; url=http://t.com/x">'
        found = extract_content_redirects(html)
        assert (RedirectKind.META_REFRESH, "http://t.com/x") in found

    def test_iframe(self):
        html = '<iframe width="0" src="http://bad.ru/land"></iframe>'
        found = extract_content_redirects(html)
        assert (RedirectKind.IFRAME, "http://bad.ru/land") in found

    def test_js_location_variants(self):
        for expr in (
            'window.location = "http://a.com/1"',
            'document.location.replace("http://a.com/1")',
            'top.location.href = "http://a.com/1"',
            'location.assign("http://a.com/1")',
        ):
            found = extract_content_redirects(f"<script>{expr}</script>")
            assert found, expr
            assert found[0][1] == "http://a.com/1"

    def test_window_open(self):
        found = extract_content_redirects(
            '<script>window.open("http://pop.com/ad")</script>'
        )
        assert (RedirectKind.JAVASCRIPT, "http://pop.com/ad") in found

    def test_deduplication(self):
        html = (
            '<script>window.location="http://a.com/x";'
            'window.location="http://a.com/x";</script>'
        )
        assert len(extract_content_redirects(html)) == 1

    def test_no_redirects(self):
        assert extract_content_redirects("<p>hello</p>") == []

    @settings(max_examples=30, deadline=None)
    @given(style=st.sampled_from(list(ObfuscationStyle)), seed=st.integers(0, 10**6))
    def test_every_obfuscation_style_recoverable(self, style, seed):
        """Property: the deobfuscator recovers every obfuscator style."""
        rng = np.random.default_rng(seed)
        url = "http://target-host.biz/gate?x=1"
        snippet = obfuscate_redirect(url, style, rng)
        found = extract_content_redirects(snippet)
        assert any(u == url for _, u in found), (style, snippet)


class TestContentMemoBounded:
    """The memo's keys are whole decoded bodies: it used to hold up to
    4 096 of them whatever their size (4 GB of one-megabyte pages)."""

    @staticmethod
    def _page(index: int, chars: int) -> str:
        head = f'<iframe src="http://t{index}.example/land"></iframe>'
        return head + "lorem ipsum dolor " * (chars // 18)

    def test_retained_key_bytes_stay_under_the_cap(self):
        from repro.core import redirects

        peak = 0
        for index in range(150):  # 9.4M chars of distinct 63k pages
            page = self._page(index, 63_000)
            expected = [(RedirectKind.IFRAME, f"http://t{index}.example/land")]
            assert extract_content_redirects(page) == expected
            assert extract_content_redirects(page) == expected  # memo hit
            retained = sum(map(len, redirects._CONTENT_CACHE))
            assert redirects._content_cache_chars == retained
            peak = max(peak, retained)
        assert 4_000_000 < peak <= redirects._CONTENT_CACHE_CHARS == 8 << 20

    def test_large_bodies_are_mined_but_not_kept(self):
        from repro.core import redirects

        before = dict(redirects._CONTENT_CACHE)
        for index in range(4):
            page = self._page(1000 + index, 300_000)
            assert len(page) > redirects._MEMO_BODY_CHARS
            for _ in range(2):
                assert extract_content_redirects(page) == [
                    (RedirectKind.IFRAME, f"http://t{1000 + index}.example/land")
                ]
            assert page not in redirects._CONTENT_CACHE
        assert redirects._CONTENT_CACHE == before


class TestInferRedirects:
    def test_http_30x(self, simple_trace):
        redirects = infer_redirects(simple_trace.transactions)
        http = [r for r in redirects if r.kind is RedirectKind.HTTP_30X]
        assert len(http) == 1
        assert http[0].source == "start.com"
        assert http[0].target == "mid.com"

    def test_relative_location_resolved(self):
        txn = make_txn(host="a.com", status=302, content_type="",
                       extra_res_headers={"Location": "/other"})
        redirects = infer_redirects([txn])
        assert redirects == []  # same-host redirect: source == target

    def test_content_redirect(self):
        body = b'<script>window.location = "http://next.com/l";</script>'
        txn = make_txn(host="first.com", body=body)
        redirects = infer_redirects([txn])
        assert any(
            r.kind is RedirectKind.JAVASCRIPT and r.target == "next.com"
            for r in redirects
        )

    def test_referrer_corroboration(self):
        txns = [
            make_txn(host="a.com", ts=1.0),
            make_txn(host="b.com", ts=2.0, referrer="http://a.com/"),
        ]
        redirects = infer_redirects(txns)
        assert any(
            r.kind is RedirectKind.REFERRER and (r.source, r.target) ==
            ("a.com", "b.com")
            for r in redirects
        )

    def test_referrer_not_duplicating_content_evidence(self):
        body = b'<iframe src="http://b.com/x"></iframe>'
        txns = [
            make_txn(host="a.com", ts=1.0, body=body),
            make_txn(host="b.com", ts=2.0, referrer="http://a.com/"),
        ]
        redirects = infer_redirects(txns)
        kinds = {r.kind for r in redirects if r.target == "b.com"}
        assert RedirectKind.IFRAME in kinds
        assert RedirectKind.REFERRER not in kinds

    def test_dedup_same_edge(self):
        txns = [
            make_txn(host="a.com", ts=1.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://b.com/1"}),
            make_txn(host="a.com", ts=2.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://b.com/2"}),
        ]
        redirects = infer_redirects(txns)
        assert len([r for r in redirects
                    if r.kind is RedirectKind.HTTP_30X]) == 1

    def test_non_textual_body_not_scanned(self):
        body = b'<iframe src="http://x.com/y"></iframe>'
        txn = make_txn(content_type="image/png", body=body)
        assert infer_redirects([txn]) == []


class TestChains:
    def _redirect(self, src, dst, ts):
        return Redirect(src, dst, RedirectKind.HTTP_30X, ts)

    def test_single_chain(self):
        redirects = [
            self._redirect("a", "b", 1.0),
            self._redirect("b", "c", 2.0),
            self._redirect("c", "d", 3.0),
        ]
        chains = redirect_chains(redirects)
        assert len(chains) == 1
        assert len(chains[0]) == 3
        assert longest_chain_length(redirects) == 3

    def test_two_independent_chains(self):
        redirects = [
            self._redirect("a", "b", 1.0),
            self._redirect("x", "y", 1.5),
            self._redirect("b", "c", 2.0),
        ]
        chains = redirect_chains(redirects)
        assert len(chains) == 2
        assert longest_chain_length(redirects) == 2

    def test_time_ordering_respected(self):
        # b->c happens BEFORE a->b: cannot chain backwards.
        redirects = [
            self._redirect("b", "c", 1.0),
            self._redirect("a", "b", 2.0),
        ]
        assert longest_chain_length(redirects) == 1

    def test_empty(self):
        assert redirect_chains([]) == []
        assert longest_chain_length([]) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                  st.sampled_from(list(RedirectKind)),
                  st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5])),
        max_size=24,
    ))
    def test_indexed_assembly_matches_the_rescan(self, hops):
        # Few hosts and fewer timestamps: ties, cycles, self-loops and
        # duplicate hops, where "first candidate in order" is decided
        # by the stable sort alone.
        redirects = [Redirect(*hop) for hop in hops]
        reference = redirect_chains_reference(redirects)
        chains = redirect_chains(redirects)
        assert [[id(r) for r in chain] for chain in chains] == (
            [[id(r) for r in chain] for chain in reference])
        assert longest_chain_length(redirects) == max(
            map(len, reference), default=0)

    def test_cross_domain_flag(self):
        assert Redirect("a.com", "b.com", RedirectKind.HTTP_30X, 0).cross_domain
        assert not Redirect(
            "x.a.com", "y.a.com", RedirectKind.HTTP_30X, 0
        ).cross_domain
        assert not Redirect(
            "shop.co.uk.example.co.uk", "example.co.uk",
            RedirectKind.HTTP_30X, 0,
        ).cross_domain
