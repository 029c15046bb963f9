"""Retiring a watch once nothing can reach it must not change clustering.

``SessionTable`` drops a clue-less watch without a session ID once it
has been idle ``2 * idle_gap`` (DESIGN §9) instead of ``prune_after``.
The lemma: a watch retired at clock ``P`` had ``last_ts < P - 2g``, and a
transaction no later than ``g`` behind the clock has ``ts > last_ts + g``,
so ``matches`` would have refused it anyway.  ``session.late_transactions``
counts the transactions outside that precondition; while it reads 0 the
table must cluster exactly like the single-horizon reference in
``tests/oracles/session_prune.py``.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.monitor import SessionTable
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.net.flows import transactions_from_packets
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from tests.conftest import make_txn
from tests.oracles.session_prune import SingleHorizonTable


def _membership(table: SessionTable, arrivals) -> list[int]:
    """Per routed transaction, the arrival index of the transaction
    that opened its watch — the clustering, free of keys and ids."""
    opened_by: dict[int, int] = {}
    members = []
    for index, txn in enumerate(arrivals):
        watch = table.route(txn)
        if len(watch.transactions) == 1:  # just opened (ids recycle)
            opened_by[id(watch)] = index
        members.append(opened_by[id(watch)])
    return members


def _run(table_type, arrivals, idle_gap: float):
    """(membership, counters) of one table over one arrival order."""
    with use_registry(MetricsRegistry()) as registry:
        members = _membership(table_type(idle_gap=idle_gap), arrivals)
    return members, registry.snapshot()["counters"]


def _delayed(stream, max_delay: float, seed: int):
    """``stream`` in completion order: each transaction arrives up to
    ``max_delay`` stream seconds after its own timestamp."""
    rng = random.Random(seed)
    return sorted(stream, key=lambda t: t.timestamp + rng.uniform(0.0, max_delay))


@pytest.fixture(scope="module")
def streams(tiny_corpus):
    """Three transaction streams in timestamp order: the MIXED and the
    HOSTILE load mix off the wire, and synthesis episodes overlapped
    the way the proxy workload overlaps them."""
    out = {}
    for name, mix in (("mixed", MIXED), ("hostile", HOSTILE)):
        generator = LoadGenerator(seed=23, mix=mix, concurrency=8)
        out[name] = transactions_from_packets(generator.capture(4000),
                                              book=generator.book)
    episodes = []
    for slot, trace in enumerate(copy.deepcopy(tiny_corpus.traces[:60])):
        shift = 1_500_000_000.0 + slot * 4.0 - trace.transactions[0].timestamp
        for txn in trace.transactions:
            txn.request.timestamp += shift
            if txn.response is not None:
                txn.response.timestamp += shift
        episodes.extend(trace.transactions)
    out["episodes"] = sorted(episodes, key=lambda t: t.timestamp)
    return out


class TestOracleDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["mixed", "hostile", "episodes"]),
        prefix=st.integers(100, 2000),
        idle_gap=st.sampled_from([2.0, 5.0, 15.0]),
        delay_gaps=st.sampled_from([0.0, 0.5, 0.9, 3.0]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_same_clusters_while_nothing_is_late(self, streams, name, prefix,
                                                 idle_gap, delay_gaps, seed):
        arrivals = _delayed(streams[name][:prefix], delay_gaps * idle_gap,
                            seed)
        members, counters = _run(SessionTable, arrivals, idle_gap)
        reference, _ = _run(SingleHorizonTable, arrivals, idle_gap)
        late = counters["session.late_transactions"]
        if delay_gaps < 1.0:
            # A completion delay inside one idle_gap is never late: the
            # clock cannot have passed ts + delay when it arrives.
            assert late == 0
        event(f"late={'0' if late == 0 else '>0'}")
        if late == 0:
            assert members == reference

    @pytest.mark.parametrize("name", ["mixed", "hostile", "episodes"])
    def test_the_short_horizon_does_retire_watches(self, streams, name):
        """Not vacuous: on every stream the table drops watches the
        reference still holds, and clusters identically."""
        members, counters = _run(SessionTable, streams[name], 5.0)
        reference, reference_counters = _run(SingleHorizonTable,
                                             streams[name], 5.0)
        assert members == reference
        assert counters["session.late_transactions"] == 0
        assert (counters["session.watches_pruned"]
                > reference_counters.get("session.watches_pruned", 0) + 20)
        assert (counters["session.watches_opened"]
                == reference_counters["session.watches_opened"])


def _throttled_download():
    """A redirect hop, a landing page and a 130 s throttled exploit
    download from an otherwise silent client, in completion order with
    another client's traffic keeping the clock running."""
    victim = [
        make_txn(host="hop.example", ts=0.0, status=302, content_type="",
                 client="victim",
                 extra_res_headers={"Location": "http://ek.example/g"}),
        make_txn(host="ek.example", uri="/g", ts=1.0, client="victim",
                 referrer="http://hop.example/"),
    ]
    chatter = [make_txn(host=f"site{i}.example", ts=5.0 + i * 10.0,
                        client="bob") for i in range(13)]
    payload = make_txn(host="ek.example", uri="/drop.exe", ts=3.0,
                       client="victim", res_delay=130.0,
                       content_type="application/x-msdownload",
                       referrer="http://ek.example/g")
    return victim + chatter + [payload]


class TestCountedDivergence:
    def test_throttled_download_opens_a_new_watch_and_is_counted(self):
        """The known limit: a payload throttled past ``2 * idle_gap``
        is clustered apart from its redirect chain — counted, and the
        exploit-shortcut clue fires regardless."""
        arrivals = _throttled_download()
        with use_registry(MetricsRegistry()) as registry:
            table = SessionTable(idle_gap=60.0)
            watches = [table.route(txn) for txn in arrivals]
        landing, download = watches[1], watches[-1]
        assert watches[0] is landing
        assert download is not landing
        assert landing.terminated and not download.terminated
        assert download.key == "victim#1"  # the client had left the table
        assert len(download.transactions) == 1
        assert download.active_clue is not None
        assert download.active_clue.chain_length == 0
        counters = registry.snapshot()["counters"]
        assert counters["session.late_transactions"] == 1

    def test_the_reference_kept_them_together(self):
        table = SingleHorizonTable(idle_gap=60.0)
        watches = [table.route(txn) for txn in _throttled_download()]
        assert watches[-1] is watches[0]
        assert watches[-1].active_clue.chain_length == 1


class TestReturningClient:
    def test_recycled_key_starts_a_clean_timeline(self, trained_model):
        """A client whose sole watch was retired comes back as
        ``client#1`` again; nothing of the first watch may show up in
        the second one's alert provenance or timeline."""
        first_visit = [
            make_txn(host="old-hop.example", ts=100.0, status=302,
                     content_type="", client="victim",
                     extra_res_headers={"Location": "http://old.example/"}),
            make_txn(host="old.example", ts=101.0, client="victim",
                     referrer="http://old-hop.example/"),
        ]
        chatter = [make_txn(host=f"site{i}.example", ts=110.0 + i * 10.0,
                            client="bob") for i in range(8)]
        back_at = 200.0
        second_visit = [
            make_txn(host="hop.example", ts=back_at, status=302,
                     content_type="", client="victim",
                     extra_res_headers={"Location": "http://ek.example/g"}),
            make_txn(host="ek.example", uri="/g", ts=back_at + 1.0,
                     client="victim", referrer="http://hop.example/"),
            make_txn(host="ek.example", uri="/drop.exe", ts=back_at + 2.0,
                     client="victim", referrer="http://ek.example/g",
                     content_type="application/x-msdownload"),
        ]
        with use_tracer(Tracer()) as tracer:
            detector = OnTheWireDetector(trained_model, config=DetectorConfig(
                alert_threshold=0.0, idle_gap=30.0))
            alerts = detector.replay(first_visit + chatter + second_visit)
            events = [e for e in tracer.events() if e.watch == "victim#1"]
        (alert,) = alerts
        assert alert.session_key == "victim#1"
        provenance = alert.provenance
        assert provenance.first_edge_ts >= back_at
        assert provenance.first_clue_ts >= back_at
        assert all(clue.timestamp >= back_at
                   for clue in provenance.clue_chain)
        assert provenance.wcg_order == alert.wcg_order <= 4
        # The timeline under the recycled key: the first watch opens and
        # is pruned before the second one opens.
        kinds = [(e.kind, e.ts >= back_at) for e in sorted(
            events, key=lambda e: e.seq)]
        assert kinds[:3] == [("watch", False), ("prune", False),
                             ("watch", True)]
        assert all(late for _, late in kinds[2:])
