"""Unit tests for WCG construction from transaction streams."""

import pytest

from repro.core.builder import WCGBuilder, build_wcg
from repro.core.model import HttpMethod, Trace
from repro.core.payloads import PayloadType
from repro.core.stages import Stage
from repro.core.wcg import EdgeKind, NodeKind
from repro.exceptions import GraphConstructionError
from tests.conftest import make_txn


class TestBuildWcg:
    def test_empty_raises(self):
        with pytest.raises(GraphConstructionError):
            WCGBuilder().build()

    def test_basic_shape(self, simple_trace):
        wcg = build_wcg(simple_trace)
        # victim + origin + start.com + mid.com
        assert wcg.order == 4
        assert wcg.victim == "victim"
        assert wcg.origin == "google.com"

    def test_victim_inferred_from_first_client(self):
        wcg = build_wcg([make_txn(client="host-9")])
        assert wcg.victim == "host-9"

    def test_origin_from_first_referrer(self):
        txns = [make_txn(referrer="http://bing.com/search")]
        assert build_wcg(txns).origin == "bing.com"

    def test_origin_empty_when_first_hop_unreferred(self):
        txns = [
            make_txn(ts=1.0),
            make_txn(ts=2.0, referrer="http://example.com/"),
        ]
        wcg = build_wcg(txns)
        assert wcg.origin == "empty"
        assert not wcg.has_known_origin

    def test_request_and_response_edges(self, simple_trace):
        wcg = build_wcg(simple_trace)
        requests = wcg.request_edges()
        responses = wcg.response_edges()
        assert len(requests) == 4
        assert len(responses) == 4
        # request edges point victim -> server; responses the other way
        assert all(src == "victim" for src, _, _ in requests)
        assert all(dst == "victim" for _, dst, _ in responses)

    def test_redirect_edge_from_30x(self, simple_trace):
        wcg = build_wcg(simple_trace)
        redirect_pairs = {(s, t) for s, t, _ in wcg.redirect_edges()}
        assert ("start.com", "mid.com") in redirect_pairs

    def test_origin_linked_to_first_host(self, simple_trace):
        wcg = build_wcg(simple_trace)
        redirect_pairs = {(s, t) for s, t, d in wcg.redirect_edges()}
        assert ("google.com", "start.com") in redirect_pairs

    def test_malicious_marking(self):
        txns = [
            make_txn(host="evil.pw", uri="/drop.exe",
                     content_type="application/x-msdownload"),
        ]
        wcg = build_wcg(txns)
        assert wcg.node_data("evil.pw").kind is NodeKind.MALICIOUS

    def test_benign_server_not_malicious(self):
        wcg = build_wcg([make_txn(host="ok.com")])
        assert wcg.node_data("ok.com").kind is not NodeKind.MALICIOUS

    def test_exploit_download_to_other_client_not_marking(self):
        # Only downloads to the WCG's victim designate a node malicious.
        txns = [
            make_txn(host="evil.pw", uri="/page.html", client="victim",
                     content_type="text/html"),
            make_txn(host="evil.pw", uri="/drop2.exe", client="other",
                     content_type="application/x-msdownload", ts=101.0),
        ]
        wcg = build_wcg(txns, victim="victim")
        assert wcg.node_data("evil.pw").kind is not NodeKind.MALICIOUS

    def test_uri_and_payload_annotations(self, simple_trace):
        wcg = build_wcg(simple_trace)
        assert "/land" in wcg.node_data("mid.com").uris
        assert wcg.node_data("mid.com").payloads.count(PayloadType.IMAGE) == 1

    def test_dnt_and_flash_graph_annotations(self):
        txns = [
            make_txn(extra_req_headers={"DNT": "1",
                                        "X-Flash-Version": "22,0"}),
        ]
        wcg = build_wcg(txns)
        assert wcg.dnt
        assert wcg.x_flash_version == "22,0"

    def test_unanswered_transaction_has_request_edge_only(self):
        txn = make_txn(host="dead.ru")
        txn.response = None
        wcg = build_wcg([txn])
        assert len(wcg.request_edges()) == 1
        assert len(wcg.response_edges()) == 0

    def test_edge_attributes(self, simple_trace):
        # An edge stores its kind and timestamp; the HTTP attributes stay
        # on the transaction and feed the graph counters.
        wcg = build_wcg(simple_trace)
        first = simple_trace.transactions[0]
        req = next(
            d for _, t, d in wcg.request_edges() if t == "start.com"
        )
        assert req == (EdgeKind.REQUEST, first.request.timestamp)
        res = next(d for s, _, d in wcg.response_edges() if s == "start.com")
        assert res.timestamp == first.response.timestamp
        assert wcg.counters.gets == 4
        assert wcg.counters.status_classes[3] == 1
        assert wcg.counters.with_referrer == 4


class TestIncrementalBuilder:
    def test_cache_reuse(self, simple_trace):
        builder = WCGBuilder()
        builder.extend(simple_trace.transactions)
        first = builder.build()
        second = builder.build()
        assert first is second

    def test_add_grows_live_graph_in_place(self, simple_trace):
        # The builder maintains one live graph: add() appends into it
        # (bumping its version) instead of building a replacement.
        builder = WCGBuilder()
        builder.extend(simple_trace.transactions[:2])
        first = builder.build()
        size_before = first.size
        version_before = first.version
        builder.add(simple_trace.transactions[2])
        second = builder.build()
        assert second is first
        assert second.size > size_before
        assert second.version > version_before

    def test_transaction_count(self, simple_trace):
        builder = WCGBuilder()
        builder.extend(simple_trace.transactions)
        assert len(builder.transactions) == 4

    def test_explicit_victim_and_origin(self):
        builder = WCGBuilder(victim="me", origin="facebook.com")
        builder.add(make_txn(client="someone-else"))
        wcg = builder.build()
        assert wcg.victim == "me"
        assert wcg.origin == "facebook.com"

    def test_trace_origin_respected(self):
        trace = Trace(transactions=[make_txn()], origin="twitter.com")
        wcg = build_wcg(trace)
        assert wcg.origin == "twitter.com"


class TestStageAnnotation:
    def test_stages_propagate_to_edges(self):
        txns = [
            make_txn(host="hop.com", ts=1.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://ek.pw/g"}),
            make_txn(host="ek.pw", uri="/drop.jar", ts=2.0,
                     content_type="application/java-archive"),
            make_txn(host="cnc.xyz", uri="/p.php", ts=3.0,
                     method=HttpMethod.POST, content_type="text/plain"),
        ]
        builder = WCGBuilder()
        builder.extend(txns)
        wcg = builder.build()
        stages = builder.edge_stages()
        assert len(stages) == wcg.size
        stages_by_edge = {
            (source, target, data.kind): stage
            for (source, target, data), stage in zip(wcg.edges(), stages)
        }
        assert stages_by_edge["victim", "hop.com", EdgeKind.REQUEST] \
            is Stage.PRE_DOWNLOAD
        assert stages_by_edge["victim", "ek.pw", EdgeKind.REQUEST] \
            is Stage.DOWNLOAD
        assert stages_by_edge["ek.pw", "victim", EdgeKind.RESPONSE] \
            is Stage.DOWNLOAD
        assert stages_by_edge["victim", "cnc.xyz", EdgeKind.REQUEST] \
            is Stage.POST_DOWNLOAD
        # The origin link, and the 302 stamped at the hop's response.
        assert stages_by_edge["empty", "hop.com", EdgeKind.REDIRECT] \
            is Stage.PRE_DOWNLOAD
        assert stages_by_edge["hop.com", "ek.pw", EdgeKind.REDIRECT] \
            is Stage.PRE_DOWNLOAD
