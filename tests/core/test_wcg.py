"""Unit tests for the WebConversationGraph structure."""

import pytest

from repro.core.builder import WCGBuilder
from repro.core.model import HttpMethod
from repro.core.payloads import PayloadType
from repro.core.stages import Stage
from repro.core.wcg import (
    KIND_REDIRECT,
    KIND_REQUEST,
    KIND_RESPONSE,
    EdgeData,
    EdgeKind,
    NodeKind,
    WebConversationGraph,
)
from tests.conftest import make_txn
from tests.oracles.topology import simple_graph


class TestConstruction:
    def test_initial_nodes(self):
        wcg = WebConversationGraph(victim="v", origin="google.com")
        assert wcg.order == 2
        assert wcg.node_data("v").kind is NodeKind.VICTIM
        assert wcg.node_data("google.com").kind is NodeKind.ORIGIN

    def test_empty_origin_placeholder(self):
        wcg = WebConversationGraph(victim="v")
        assert wcg.origin == "empty"
        assert not wcg.has_known_origin

    def test_known_origin(self):
        wcg = WebConversationGraph(victim="v", origin="bing.com")
        assert wcg.has_known_origin


class TestMutation:
    def test_add_edge_creates_endpoints(self):
        wcg = WebConversationGraph(victim="v")
        wcg.append_edge("v", "srv.com", kind=KIND_REQUEST, timestamp=1.0)
        assert "srv.com" in wcg.hosts()
        assert wcg.size == 1

    def test_parallel_edges_coexist(self):
        wcg = WebConversationGraph(victim="v")
        wcg.append_edge("v", "s", kind=KIND_REQUEST, timestamp=1.0)
        wcg.append_edge("v", "s", kind=KIND_REQUEST, timestamp=2.0)
        wcg.append_edge("s", "v", kind=KIND_RESPONSE, timestamp=2.1)
        assert wcg.size == 3

    def test_node_kind_sticky_for_victim(self):
        wcg = WebConversationGraph(victim="v")
        wcg.add_node("v", kind=NodeKind.MALICIOUS)
        assert wcg.node_data("v").kind is NodeKind.VICTIM

    def test_mark_malicious_upgrades_remote(self):
        wcg = WebConversationGraph(victim="v")
        wcg.add_node("evil.pw")
        wcg.mark_malicious("evil.pw")
        assert wcg.node_data("evil.pw").kind is NodeKind.MALICIOUS

    def test_mark_malicious_creates_missing_node(self):
        wcg = WebConversationGraph(victim="v")
        wcg.mark_malicious("new.pw")
        assert wcg.node_data("new.pw").kind is NodeKind.MALICIOUS

    def test_record_uri_and_payload(self):
        wcg = WebConversationGraph(victim="v")
        wcg.record_uri("s.com", "/a")
        wcg.record_uri("s.com", "/a")  # duplicate ignored (set)
        wcg.record_uri("s.com", "/b")
        wcg.record_payload("s.com", PayloadType.EXE)
        assert len(wcg.node_data("s.com").uris) == 2
        assert wcg.node_data("s.com").payloads.count(PayloadType.EXE) == 1

    def test_ip_filled_once(self):
        wcg = WebConversationGraph(victim="v")
        wcg.add_node("s.com", ip="1.2.3.4")
        wcg.add_node("s.com", ip="5.6.7.8")
        assert wcg.node_data("s.com").ip == "1.2.3.4"


class TestViews:
    def _populated(self):
        wcg = WebConversationGraph(victim="v", origin="google.com")
        wcg.append_edge("v", "a", kind=KIND_REQUEST, timestamp=1.0,
                        method="GET")
        wcg.append_edge("a", "v", kind=KIND_RESPONSE, timestamp=1.1,
                        status=200)
        wcg.append_edge("a", "b", kind=KIND_REDIRECT, timestamp=1.2)
        wcg.append_edge("v", "b", kind=KIND_REQUEST, timestamp=2.0,
                        method="POST")
        return wcg

    def test_edge_kind_views(self):
        wcg = self._populated()
        assert len(wcg.request_edges()) == 2
        assert len(wcg.response_edges()) == 1
        assert wcg.redirect_edges() == [
            ("a", "b", EdgeData(EdgeKind.REDIRECT, 1.2))]
        # Method and status are counted, not stored per edge.
        assert (wcg.counters.gets, wcg.counters.posts) == (1, 1)
        assert wcg.counters.status_classes[2] == 1

    def test_remote_hosts_excludes_victim_and_origin(self):
        wcg = self._populated()
        assert set(wcg.remote_hosts()) == {"a", "b"}

    def test_duration(self):
        wcg = self._populated()
        assert wcg.duration == pytest.approx(1.0)

    def test_duration_single_edge(self):
        wcg = WebConversationGraph(victim="v")
        wcg.append_edge("v", "a", kind=KIND_REQUEST, timestamp=5.0)
        assert wcg.duration == 0.0

    def test_stage_edges(self):
        # Stages are derived per edge by the builder, one per edge.
        builder = WCGBuilder()
        builder.extend([
            make_txn(host="ek.pw", uri="/drop.exe", ts=1.0,
                     content_type="application/x-msdownload"),
            make_txn(host="cnc.xyz", ts=2.0, method=HttpMethod.POST,
                     content_type="text/plain"),
        ])
        wcg = builder.build()
        stages = builder.edge_stages()
        assert len(stages) == wcg.size
        post = [(source, target) for (source, target, _), stage
                in zip(wcg.edges(), stages) if stage is Stage.POST_DOWNLOAD]
        assert post == [("victim", "cnc.xyz"), ("cnc.xyz", "victim")]

    def test_no_post_download(self):
        builder = WCGBuilder()
        builder.add(make_txn(host="a.com", method=HttpMethod.POST))
        assert Stage.POST_DOWNLOAD not in builder.edge_stages()

    def test_simple_graph_collapses_multiplicity(self):
        wcg = self._populated()
        wcg.append_edge("v", "a", kind=KIND_REQUEST, timestamp=3.0)
        simple = simple_graph(wcg)
        assert simple.number_of_edges() < wcg.size
        assert simple["v"]["a"]["weight"] == 2

    def test_simple_graph_excluding_origin(self):
        wcg = self._populated()
        simple = simple_graph(wcg, include_origin=False)
        assert "google.com" not in simple.nodes

    def test_copy_is_deep_enough(self):
        wcg = self._populated()
        clone = wcg.copy()
        clone.append_edge("v", "c", kind=KIND_REQUEST, timestamp=9.0)
        clone.record_uri("a", "/new")
        assert wcg.size == 4
        assert "/new" not in wcg.node_data("a").uris
        assert clone.size == 5

    def test_repr(self):
        wcg = self._populated()
        text = repr(wcg)
        assert "victim='v'" in text
        assert "order=" in text
