"""Property tests for stages derived from a growing WCG.

``WCGBuilder.edge_stages()`` must agree with the original batch
three-sweep algorithm and the per-edge rule (``tests.oracles.stages``)
on *every prefix of every feed order* — including the nasty cases where
a late-arriving 30x or exploit-20x moves a stage boundary backwards or
forwards over already-built edges.  The oracle is an independent
formulation, not the code under test.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import WCGBuilder
from repro.core.model import HttpMethod, HttpTransaction
from repro.core.stages import Stage, assign_stages
from repro.core.wcg import EdgeKind
from tests.conftest import make_txn
from tests.oracles.stages import edge_stages, three_sweep

_HOSTS = ["a.com", "b.net", "c.org", "d.io"]
_STATUSES = [200, 204, 301, 302, 304, 404, 500, 0]

_EXPLOIT_CT = "application/x-msdownload"


def _txn_from(spec) -> HttpTransaction:
    (host_index, is_post, status, exploit, ts_units, delay_units,
     hop, referrer) = spec
    # A 30x points at another host and a referrer names one, so the
    # streams carry 30x and referrer redirect edges too.
    location = {"Location": f"http://{_HOSTS[hop]}/next"} \
        if 300 <= status < 400 else {}
    return make_txn(
        host=_HOSTS[host_index],
        uri=f"/r/{status}",
        ts=ts_units * 0.5,
        method=HttpMethod.POST if is_post else HttpMethod.GET,
        status=status,
        content_type=_EXPLOIT_CT if exploit else "text/html",
        res_delay=delay_units * 0.25,
        referrer=f"http://{_HOSTS[referrer]}/" if referrer is not None
        else "",
        extra_res_headers=location,
    )


_SPEC = st.tuples(
    st.integers(min_value=0, max_value=len(_HOSTS) - 1),  # host
    st.booleans(),                                        # POST?
    st.sampled_from(_STATUSES),
    st.booleans(),                                        # exploit payload?
    st.integers(min_value=0, max_value=30),               # ts (ties likely)
    st.integers(min_value=0, max_value=8),                # response delay
    st.integers(min_value=0, max_value=len(_HOSTS) - 1),  # 30x target
    st.none() | st.integers(min_value=0, max_value=len(_HOSTS) - 1),
)
_STREAMS = st.lists(_SPEC, min_size=0, max_size=24)


def _edges_with_stages(builder: WCGBuilder):
    wcg = builder.build()
    return [(data.kind, data.timestamp, stage)
            for (_, _, data), stage in zip(wcg.edges(), builder.edge_stages())]


def _feed(txns) -> WCGBuilder:
    builder = WCGBuilder()
    for txn in txns:
        builder.add(txn)
    return builder


def _request_stage(builder: WCGBuilder, txn: HttpTransaction) -> Stage:
    """Current stage of ``txn``'s request edge."""
    wcg = builder.build()
    (stage,) = [
        stage for (_, target, data), stage
        in zip(wcg.edges(), builder.edge_stages())
        if data.kind is EdgeKind.REQUEST and target == txn.server
        and data.timestamp == txn.timestamp
    ]
    return stage


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(_STREAMS)
    def test_batch_wrapper_matches_three_sweep(self, specs):
        txns = [_txn_from(s) for s in specs]
        assert assign_stages(txns) == three_sweep(txns)

    @settings(max_examples=120, deadline=None)
    @given(_STREAMS, st.randoms(use_true_random=False))
    def test_every_prefix_matches_cold_rebuild(self, specs, rnd):
        # Feed in arrival order (arbitrary, out-of-order, tied
        # timestamps), then the same stream sorted and shuffled; after
        # every single add the derived edge stages must equal the oracle
        # on exactly the fed prefix.
        txns = [_txn_from(s) for s in specs]
        shuffled = list(txns)
        rnd.shuffle(shuffled)
        for feed in (txns, sorted(txns, key=lambda t: t.timestamp),
                     shuffled):
            builder = WCGBuilder()
            for count, txn in enumerate(feed, start=1):
                builder.add(txn)
                assert _edges_with_stages(builder) == \
                    edge_stages(feed[:count]), (
                        f"divergence after prefix of {count}"
                    )


class TestBoundaryMoves:
    """Targeted regressions for boundary-moving late arrivals."""

    def test_late_exploit_moves_first_boundary_backward(self):
        # A 30x at t=10 is PRE_DOWNLOAD while no exploit landed; an
        # exploit 20x arriving late with an *earlier* timestamp (t=5)
        # invalidates rule 1 for it (10 >= 5) and must flip it.
        txns = [
            make_txn(host="hop.com", ts=10.0, status=302, content_type=""),
            make_txn(host="ek.pw", ts=5.0, content_type=_EXPLOIT_CT),
        ]
        builder = _feed(txns[:1])
        assert _request_stage(builder, txns[0]) is Stage.PRE_DOWNLOAD
        builder.add(txns[1])
        assert _edges_with_stages(builder) == edge_stages(txns)
        assert _request_stage(builder, txns[0]) is Stage.DOWNLOAD

    def test_late_exploit_extends_last_boundary(self):
        # A qualifying POST at t=20 is POST_DOWNLOAD after the exploit
        # at t=10; a second exploit arriving with t=30 moves the
        # last-exploit boundary past the POST, demoting it.
        txns = [
            make_txn(host="ek.pw", ts=10.0, content_type=_EXPLOIT_CT),
            make_txn(host="cnc.xyz", ts=20.0, method=HttpMethod.POST,
                     content_type="text/plain"),
            make_txn(host="ek2.pw", ts=30.0, content_type=_EXPLOIT_CT),
        ]
        builder = _feed(txns[:2])
        assert _request_stage(builder, txns[1]) is Stage.POST_DOWNLOAD
        builder.add(txns[2])
        assert _request_stage(builder, txns[1]) is Stage.DOWNLOAD
        assert _edges_with_stages(builder) == edge_stages(txns)

    def test_late_30x_extends_pre_download(self):
        # A landing-page 20x fetch at t=12 is DOWNLOAD until a later
        # 30x (t=15, still before any exploit) extends the run-up
        # window over its response timestamp.
        txns = [
            make_txn(host="hop.com", ts=10.0, status=302, content_type=""),
            make_txn(host="land.com", ts=12.0),
            make_txn(host="hop2.com", ts=15.0, status=302, content_type=""),
        ]
        builder = _feed(txns[:2])
        assert _request_stage(builder, txns[1]) is Stage.DOWNLOAD
        builder.add(txns[2])
        assert _request_stage(builder, txns[1]) is Stage.PRE_DOWNLOAD
        assert _edges_with_stages(builder) == edge_stages(txns)

    def test_exploit_host_disqualifies_posts(self):
        # A POST to a host is POST_DOWNLOAD until that very host turns
        # out to serve exploit payloads.
        txns = [
            make_txn(host="ek.pw", ts=10.0, content_type=_EXPLOIT_CT),
            make_txn(host="dual.com", ts=20.0, method=HttpMethod.POST,
                     content_type="text/plain"),
            make_txn(host="dual.com", ts=6.0, content_type=_EXPLOIT_CT),
        ]
        builder = _feed(txns[:2])
        assert _request_stage(builder, txns[1]) is Stage.POST_DOWNLOAD
        builder.add(txns[2])
        assert _request_stage(builder, txns[1]) is Stage.DOWNLOAD
        assert _edges_with_stages(builder) == edge_stages(txns)

    def test_late_exploit_collapses_last_30x(self):
        # The landing fetch rides on the last-30x boundary; an exploit
        # arriving with a timestamp *before* the 30x disqualifies the
        # 30x entirely, collapsing the boundary to None.
        txns = [
            make_txn(host="hop.com", ts=10.0, status=302, content_type=""),
            make_txn(host="land.com", ts=9.0),
            make_txn(host="ek.pw", ts=8.0, content_type=_EXPLOIT_CT),
        ]
        builder = _feed(txns[:2])
        assert _request_stage(builder, txns[1]) is Stage.PRE_DOWNLOAD
        builder.add(txns[2])
        assert _edges_with_stages(builder) == edge_stages(txns)
        assert _request_stage(builder, txns[1]) is Stage.DOWNLOAD


def test_redirect_takes_its_governing_transactions_stage():
    # The 302 at t=1 answers at t=3, so its redirect edge is stamped 3 —
    # after the POST at t=2.  The redirect is staged by the last
    # transaction stamped at or before it (the DOWNLOAD-stage POST), not
    # by the PRE_DOWNLOAD 302 that revealed it.
    hop = make_txn(host="hop.com", ts=1.0, status=302, content_type="",
                   res_delay=2.0,
                   extra_res_headers={"Location": "http://ek.pw/g"})
    post = make_txn(host="form.com", ts=2.0, method=HttpMethod.POST,
                    content_type="text/plain")
    builder = _feed([hop, post])
    wcg = builder.build()
    stages = dict(
        ((source, target, data.kind), stage)
        for (source, target, data), stage
        in zip(wcg.edges(), builder.edge_stages())
    )
    assert stages["victim", "hop.com", EdgeKind.REQUEST] is \
        Stage.PRE_DOWNLOAD
    assert stages["victim", "form.com", EdgeKind.REQUEST] is Stage.DOWNLOAD
    assert stages["hop.com", "ek.pw", EdgeKind.REDIRECT] is Stage.DOWNLOAD
    assert stages["empty", "hop.com", EdgeKind.REDIRECT] is \
        Stage.PRE_DOWNLOAD
