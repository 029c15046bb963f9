"""Regression tests for the WCG's edge lists (DESIGN.md §14): one slot
per edge in each of the source, target, kind and timestamp lists."""

from repro.core.wcg import EdgeData, EdgeKind, WebConversationGraph


class TestGrowth:
    def test_column_views_track_live_prefix(self):
        wcg = WebConversationGraph(victim="v")
        wcg.append_edge("v", "a", kind=EdgeKind.REQUEST, timestamp=1.0)
        assert wcg.edge_kinds == [EdgeKind.REQUEST]
        wcg.append_edge("a", "v", kind=EdgeKind.RESPONSE, timestamp=2.0)
        assert wcg.edge_kinds == [EdgeKind.REQUEST, EdgeKind.RESPONSE]
        assert [(source, target) for source, target, _ in wcg.edges()] == [
            ("v", "a"), ("a", "v")]
        # Append order and every value survive many appends.
        for i in range(2, 40):
            wcg.append_edge("v", f"h{i % 5}", kind=EdgeKind.REQUEST,
                            timestamp=float(i))
        later = [float(i) for i in range(2, 40)]
        assert wcg.edge_timestamps == [1.0, 2.0] + later
        assert wcg.request_timestamps == [1.0] + later
        assert wcg.size == 40


class TestMutation:
    def test_append_records_every_column(self):
        wcg = WebConversationGraph(victim="v")
        index = wcg.append_edge("x", "y", kind=EdgeKind.REDIRECT,
                                timestamp=3.5)
        assert index == 0
        assert list(wcg.edges()) == [
            ("x", "y", EdgeData(EdgeKind.REDIRECT, 3.5))]
        assert (wcg.ts_min, wcg.ts_max) == (3.5, 3.5)
        assert wcg.request_timestamps == []  # redirects carry no request
        assert wcg.append_edge("y", "x", kind=EdgeKind.REQUEST,
                               timestamp=1.0) == 1
        assert (wcg.ts_min, wcg.ts_max) == (1.0, 3.5)
