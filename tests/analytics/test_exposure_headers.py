"""Unit tests for the exposure (Fig 1/2) and header (Fig 4) analytics."""

import pytest

from repro.analytics.exposure import (
    EXPOSURE_CATEGORIES,
    classify_origin,
    exposure_distribution,
    per_family_exposure,
)
from repro.analytics.headers import (
    FIG4_ELEMENTS,
    average_header_elements,
    header_element_counts,
)
from repro.core.model import Trace, TraceLabel
from tests.conftest import make_txn


class TestClassifyOrigin:
    def _trace(self, origin, meta=None, uri="/x"):
        return Trace(
            transactions=[make_txn(uri=uri)],
            label=TraceLabel.INFECTION,
            origin=origin,
            meta=meta or {},
        )

    def test_google(self):
        assert classify_origin(self._trace("google.com")) == "google"

    def test_bing(self):
        assert classify_origin(self._trace("bing.com")) == "bing"

    def test_empty(self):
        assert classify_origin(self._trace("")) == "empty"

    def test_redacted_via_meta(self):
        trace = self._trace("", meta={"enticement": "redacted"})
        assert classify_origin(trace) == "redacted"

    def test_social(self):
        assert classify_origin(self._trace("facebook.com")) == "social"

    def test_compromised_via_cms_uri(self):
        trace = Trace(
            transactions=[make_txn(host="smallbiz.com",
                                   uri="/wp-content/uploads/2016/1/v.php")],
            label=TraceLabel.INFECTION,
            origin="smallbiz.com",
        )
        assert classify_origin(trace) == "compromised"

    def test_legitimate_fallback(self):
        assert classify_origin(self._trace("randomblog.com")) == "legitimate"


class TestExposureDistribution:
    def test_sums_to_one(self, tiny_corpus):
        dist = exposure_distribution(tiny_corpus.infections)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_search_dominates(self, tiny_corpus):
        # Figure 1: search engines drive 62% of exposure.
        dist = exposure_distribution(tiny_corpus.infections)
        assert dist["google"] + dist["bing"] > 0.4

    def test_benign_ignored(self, tiny_corpus):
        dist_all = exposure_distribution(tiny_corpus.traces)
        dist_inf = exposure_distribution(tiny_corpus.infections)
        assert dist_all == dist_inf

    def test_empty_input(self):
        dist = exposure_distribution([])
        assert all(v == 0.0 for v in dist.values())
        assert set(dist) == set(EXPOSURE_CATEGORIES)

    def test_per_family(self, tiny_corpus):
        per_family = per_family_exposure(tiny_corpus)
        assert set(per_family) == set(tiny_corpus.families)
        for dist in per_family.values():
            assert sum(dist.values()) == pytest.approx(1.0)


class TestHeaderElements:
    def test_counts_for_single_trace(self, simple_trace):
        counts = header_element_counts(simple_trace)
        assert counts["get"] == 4
        assert counts["post"] == 0
        assert counts["http_30x"] == 1
        assert counts["redirect_chains"] == 1
        assert counts["with_referrer"] == 4

    def test_keys_match_fig4(self, simple_trace):
        assert set(header_element_counts(simple_trace)) == set(FIG4_ELEMENTS)

    def test_average_shape(self, tiny_corpus):
        averages = average_header_elements(tiny_corpus.traces)
        assert set(averages) == set(FIG4_ELEMENTS)
        for element in FIG4_ELEMENTS:
            assert set(averages[element]) == {"infection", "benign"}

    def test_fig4_contrasts(self, tiny_corpus):
        # Paper: infections have visibly more GETs/POSTs/redirects/40x.
        averages = average_header_elements(tiny_corpus.traces)
        assert averages["post"]["infection"] > averages["post"]["benign"]
        assert averages["http_40x"]["infection"] > \
            averages["http_40x"]["benign"]
        assert averages["redirect_chains"]["infection"] > \
            averages["redirect_chains"]["benign"]
