"""Unit tests for the individual feature computations (HLF/GF/HF/TF)."""

from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.core.builder import build_wcg
from repro.core.model import HttpMethod, Trace
from repro.features.extractor import FeatureExtractor
from repro.features.graph import scalar_graph_features
from repro.features.header import header_features
from repro.features.high_level import high_level_features
from repro.features.registry import feature_names
from repro.features.temporal import temporal_features
from tests.conftest import make_txn
from tests.oracles.topology import (
    average_node_connectivity_sampled,
    avg_nodes_within_k,
)


@pytest.fixture()
def wcg(simple_trace):
    return build_wcg(simple_trace)


class TestHighLevelFeatures:
    def test_origin_known(self, wcg):
        assert high_level_features(wcg)["origin"] == 1.0

    def test_origin_unknown(self):
        wcg = build_wcg([make_txn()])
        assert high_level_features(wcg)["origin"] == 0.0

    def test_x_flash(self):
        wcg = build_wcg([make_txn(extra_req_headers={"X-Flash-Version": "9"})])
        assert high_level_features(wcg)["x_flash_version"] == 1.0

    def test_wcg_size_counts_transactions(self, wcg):
        assert high_level_features(wcg)["wcg_size"] == 4.0

    def test_conversation_length_counts_hosts(self, wcg):
        # victim + start.com + mid.com (origin excluded)
        assert high_level_features(wcg)["conversation_length"] == 3.0

    def test_avg_uris_per_host(self, wcg):
        # start.com: 2 URIs; mid.com: 2 URIs -> avg 2.0
        assert high_level_features(wcg)["avg_uris_per_host"] == 2.0

    def test_avg_uri_length(self):
        wcg = build_wcg([make_txn(uri="/abc"), make_txn(uri="/abcdefgh",
                                                        ts=101.0)])
        value = high_level_features(wcg)["avg_uri_length"]
        assert value == pytest.approx((4 + 9) / 2)


def graph_features(wcg):
    """Feature values by name, as the extractor reports them."""
    return dict(zip(feature_names(), FeatureExtractor().extract(wcg)))


class TestGraphFeatures:
    def test_order_and_size(self, wcg):
        features = graph_features(wcg)
        assert features["order"] == wcg.order
        assert features["size"] == wcg.size

    def test_volume_is_twice_size(self, wcg):
        features = graph_features(wcg)
        assert features["volume"] == 2 * wcg.size

    def test_degree_is_max_degree(self, wcg):
        degrees = Counter()
        for source, target, _ in wcg.edges():
            degrees[source] += 1
            degrees[target] += 1
        assert scalar_graph_features(wcg)["degree"] == max(degrees.values())

    def test_avg_pagerank_is_inverse_order(self, wcg):
        # Paper-faithful: mean PageRank == 1/order (module docstring).
        features = graph_features(wcg)
        assert features["avg_pagerank"] == pytest.approx(1.0 / wcg.order)

    def test_diameter_on_chain(self):
        txns = [
            make_txn(host="a.com", ts=1.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://b.com/x"}),
            make_txn(host="b.com", ts=2.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://c.com/x"}),
            make_txn(host="c.com", ts=3.0),
        ]
        features = graph_features(build_wcg(txns))
        assert features["diameter"] >= 2

    def test_density_bounds(self, wcg):
        assert 0.0 <= graph_features(wcg)["density"] <= 1.0

    def test_reciprocity_high_for_request_response(self, wcg):
        # Every request edge has a matching response edge here.
        features = graph_features(wcg)
        assert features["reciprocity"] > 0.5

    def test_all_features_finite(self, wcg):
        for name, value in graph_features(wcg).items():
            assert np.isfinite(value), name

    def test_single_edge_graph_degenerate_values(self):
        wcg = build_wcg([make_txn()])
        features = graph_features(wcg)
        assert features["order"] == 3.0  # victim + server + empty-origin
        assert np.isfinite(features["avg_closeness_centrality"])


class TestGraphHelpers:
    def test_avg_nodes_within_k_star(self):
        star = nx.star_graph(4)  # center + 4 leaves
        # every node reaches all 4 others within 2 hops
        assert avg_nodes_within_k(star, k=2) == 4.0

    def test_avg_nodes_within_k_path(self):
        path = nx.path_graph(5)
        value = avg_nodes_within_k(path, k=1)
        # degree average of a path: (1+2+2+2+1)/5
        assert value == pytest.approx(8 / 5)

    def test_avg_nodes_within_k_empty(self):
        assert avg_nodes_within_k(nx.Graph(), k=2) == 0.0

    def test_node_connectivity_exact_small(self):
        complete = nx.complete_graph(5)
        assert average_node_connectivity_sampled(complete) == pytest.approx(
            nx.average_node_connectivity(complete)
        )

    def test_node_connectivity_sampled_deterministic(self):
        graph = nx.gnm_random_graph(40, 80, seed=3)
        first = average_node_connectivity_sampled(graph, pair_cap=50)
        second = average_node_connectivity_sampled(graph, pair_cap=50)
        assert first == second

    def test_node_connectivity_trivial(self):
        assert average_node_connectivity_sampled(nx.Graph()) == 0.0
        single = nx.Graph()
        single.add_node(1)
        assert average_node_connectivity_sampled(single) == 0.0


class TestHeaderFeatures:
    def test_method_counts(self):
        txns = [
            make_txn(ts=1.0),
            make_txn(ts=2.0, method=HttpMethod.POST),
            make_txn(ts=3.0, method=HttpMethod.PUT),
        ]
        features = header_features(build_wcg(txns))
        assert features["gets"] == 1.0
        assert features["posts"] == 1.0
        assert features["other_methods"] == 1.0

    def test_status_class_counts(self):
        txns = [
            make_txn(ts=1.0, status=200),
            make_txn(ts=2.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://x.com/"}),
            make_txn(ts=3.0, status=404),
            make_txn(ts=4.0, status=500),
            make_txn(ts=5.0, status=101),
        ]
        features = header_features(build_wcg(txns))
        assert features["http_10x"] == 1.0
        assert features["http_20x"] == 1.0
        assert features["http_30x"] == 1.0
        assert features["http_40x"] == 1.0
        assert features["http_50x"] == 1.0

    def test_referrer_counters(self):
        txns = [
            make_txn(ts=1.0, referrer="http://a.com/"),
            make_txn(ts=2.0),
            make_txn(ts=3.0),
        ]
        features = header_features(build_wcg(txns))
        assert features["referrer_ctrs"] == 1.0
        assert features["no_referrer_ctrs"] == 2.0


class TestTemporalFeatures:
    def test_avg_inter_transaction_time(self):
        txns = [make_txn(ts=0.0), make_txn(ts=10.0), make_txn(ts=30.0)]
        features = temporal_features(build_wcg(txns))
        assert features["avg_inter_transaction_time"] == pytest.approx(15.0)

    def test_duration_per_uri(self):
        txns = [
            make_txn(uri="/a", ts=0.0),
            make_txn(uri="/b", ts=10.0, res_delay=2.0),
        ]
        features = temporal_features(build_wcg(txns))
        # span 12 s over 2 URIs
        assert features["duration"] == pytest.approx(6.0)

    def test_single_transaction_zero_gap(self):
        features = temporal_features(build_wcg([make_txn()]))
        assert features["avg_inter_transaction_time"] == 0.0
