"""Golden pins: exact expected outputs for a hand-built conversation.

These freeze the *semantics* of WCG construction and feature extraction
on a fixed, hand-written trace (the ``simple_trace`` fixture: a search
referral, one 302 hop, a landing page, and one image).  If a change
breaks one of these pins, it changed what a feature *means* — that must
be a deliberate decision, not a side effect.
"""

import pytest

from repro.core.builder import build_wcg
from repro.core.wcg import EdgeKind
from repro.features.extractor import extract_features
from repro.features.registry import feature_names


@pytest.fixture()
def golden(simple_trace):
    wcg = build_wcg(simple_trace)
    vector = extract_features(wcg)
    names = feature_names()
    return wcg, dict(zip(names, vector))


class TestGoldenWcg:
    def test_structure(self, golden):
        wcg, _ = golden
        # victim + origin(google.com) + start.com + mid.com
        assert wcg.order == 4
        # 4 requests + 4 responses + 1 http-30x redirect + 1 origin link
        assert wcg.size == 10
        assert wcg.origin == "google.com"

    def test_edge_kinds(self, golden):
        wcg, _ = golden
        assert len(list(wcg.edges(EdgeKind.REQUEST))) == 4
        assert len(list(wcg.edges(EdgeKind.RESPONSE))) == 4
        # the 302 hop and the origin link
        assert len(list(wcg.edges(EdgeKind.REDIRECT))) == 2


class TestGoldenFeatures:
    def test_high_level(self, golden):
        _, features = golden
        assert features["origin"] == 1.0
        assert features["x_flash_version"] == 0.0
        assert features["wcg_size"] == 4.0
        assert features["conversation_length"] == 3.0
        assert features["avg_uris_per_host"] == 2.0
        # URIs: "/", "/jump", "/land", "/logo.png" -> (1+5+5+9)/4
        assert features["avg_uri_length"] == pytest.approx(5.0)

    def test_graph(self, golden):
        _, features = golden
        assert features["order"] == 4.0
        assert features["size"] == 10.0
        assert features["volume"] == 20.0
        assert features["avg_pagerank"] == pytest.approx(0.25)
        assert features["avg_in_degree"] == pytest.approx(10 / 4)
        assert features["diameter"] == 2.0

    def test_header(self, golden):
        _, features = golden
        assert features["gets"] == 4.0
        assert features["posts"] == 0.0
        assert features["http_20x"] == 3.0
        assert features["http_30x"] == 1.0
        assert features["http_40x"] == 0.0
        assert features["referrer_ctrs"] == 4.0
        assert features["no_referrer_ctrs"] == 0.0

    def test_temporal(self, golden):
        _, features = golden
        # Request timestamps 10, 11, 12, 13 -> mean gap 1.0.
        assert features["avg_inter_transaction_time"] == pytest.approx(1.0)
        # Duration 10.0 .. 13.1 = 3.1 s over 4 URIs.
        assert features["duration"] == pytest.approx(3.1 / 4)

    def test_full_vector_deterministic(self, golden, simple_trace):
        _, features = golden
        again = extract_features(build_wcg(simple_trace))
        rebuilt = dict(zip(feature_names(), again))
        assert rebuilt == features
