"""Unit tests for trusted-vendor weeding."""

from repro.detection import whitelist as whitelist_module
from repro.detection.whitelist import VendorWhitelist
from tests.conftest import make_txn


class TestVendorWhitelist:
    def test_exact_match(self):
        whitelist = VendorWhitelist(["dl.google.com"])
        assert whitelist.trusted("dl.google.com")
        assert whitelist.trusted("DL.GOOGLE.COM")

    def test_subdomain_match(self):
        whitelist = VendorWhitelist(["microsoft.com"])
        assert whitelist.trusted("update.microsoft.com")
        assert whitelist.trusted("a.b.microsoft.com")

    def test_suffix_not_substring(self):
        whitelist = VendorWhitelist(["microsoft.com"])
        assert not whitelist.trusted("notmicrosoft.com")
        assert not whitelist.trusted("microsoft.com.evil.pw")

    def test_untrusted(self):
        whitelist = VendorWhitelist(["pypi.org"])
        assert not whitelist.trusted("evil.pw")

    def test_add(self):
        whitelist = VendorWhitelist([])
        assert not whitelist.trusted("corp.example")
        whitelist.add("corp.example")
        assert whitelist.trusted("corp.example")
        assert whitelist.trusted("files.corp.example")

    def test_filter_transactions(self):
        whitelist = VendorWhitelist(["trusted.com"])
        txns = [
            make_txn(host="trusted.com"),
            make_txn(host="evil.pw", ts=101.0),
            make_txn(host="cdn.trusted.com", ts=102.0),
        ]
        kept = [t for t in txns if not whitelist.trusted(t.server)]
        assert [t.server for t in kept] == ["evil.pw"]

    def test_add_deduplicates(self):
        # Repeated add() must not grow the matching state unboundedly.
        whitelist = VendorWhitelist([])
        for _ in range(100):
            whitelist.add("corp.example")
            whitelist.add("CORP.EXAMPLE.")
        assert len(whitelist) == 1
        assert whitelist.trusted("files.corp.example")

    def test_label_boundary_matching(self):
        whitelist = VendorWhitelist(["google.com"])
        assert whitelist.trusted("dl.google.com")
        assert not whitelist.trusted("evil-google.com")
        assert not whitelist.trusted("google.com.attacker.pw")

    def test_empty_host_untrusted(self):
        whitelist = VendorWhitelist(["example.com"])
        assert not whitelist.trusted("")
        whitelist.add("")  # no-op, not a match-everything entry
        assert not whitelist.trusted("anything.net")

    def test_default_list_covers_vendors(self):
        whitelist = VendorWhitelist()
        assert whitelist.trusted("download.microsoft.com")
        assert whitelist.trusted("pypi.org")
        assert len(whitelist) >= 5


class TestVerdictMemo:
    """``trusted()`` remembers its verdict per host; the memo must not
    outlive an ``add()`` nor grow with the number of hosts seen."""

    def test_add_flips_a_remembered_negative_verdict(self):
        whitelist = VendorWhitelist(["example.org"])
        assert not whitelist.trusted("cdn.vendor.example")
        assert not whitelist.trusted("cdn.vendor.example")  # remembered
        whitelist.add("Vendor.Example.")
        assert whitelist.trusted("cdn.vendor.example")
        assert whitelist.trusted("CDN.vendor.example")

    def test_memo_is_keyed_by_the_host_as_asked(self):
        whitelist = VendorWhitelist(["example.org"])
        assert whitelist.trusted("A.Example.ORG.")
        assert not whitelist.trusted("a.example.org.evil")
        assert whitelist.trusted("A.Example.ORG.")

    def test_memo_never_exceeds_its_cap(self):
        whitelist = VendorWhitelist(["example.org"])
        cap = whitelist_module._MEMO_CAP
        for index in range(10_000):
            trusted = whitelist.trusted(f"h{index}.example.org")
            assert trusted
            assert not whitelist.trusted(f"h{index}.example.net")
            assert len(whitelist._verdicts) <= cap
        assert len(whitelist) == 1
