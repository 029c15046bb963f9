"""One engine per layer: the runtime dependency and the knobs stay gone.

Production has a single implementation of forest inference, tree growth
and topology extraction; the references they are proven against live in
``tests/oracles`` (with networkx) and must never be reachable from
``src/`` again — neither by import nor through an environment switch.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_KNOBS = ("REPRO_FOREST_ENGINE", "REPRO_TREE_ENGINE", "REPRO_TOPOLOGY_ENGINE")


def test_importing_the_package_pulls_in_no_graph_or_science_stack():
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.experiments, repro.baselines,"
        " repro.service\n"
        "print(sorted(m for m in ('networkx', 'scipy', 'tests')"
        " if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_engine_switch_left_under_src():
    offenders = [
        f"{path.relative_to(SRC)}: {knob}"
        for path in sorted(SRC.rglob("*.py"))
        for knob in _KNOBS
        if knob in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_the_vectorised_extraction_twin_stays_gone():
    # ``features/batch.py`` duplicated the row routine for matrices; its
    # body is the oracle ``tests/oracles/feature_assembly.py`` now.
    assert not (SRC / "repro" / "features" / "batch.py").exists()


# -- one detection front (PR 22) -------------------------------------------

_GONE_NAMES = ("DetectionEngine", "process_stream", "TrafficReplay",
               "ProxySimulator", "ReplayReport", "measure_latency",
               "group_sessions", "SessionCluster")


def test_the_replay_twins_and_the_latency_harness_stay_gone():
    detection = SRC / "repro" / "detection"
    assert not (detection / "proxy.py").exists()
    assert not (detection / "latency.py").exists()
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _GONE_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


# -- one form of a fitted tree (PR 24) --------------------------------------

_GONE_TREE_NAMES = ("_Node", "flatten_nodes", "unflatten_nodes", "_root",
                    "mdl_gain_ratio", "discretize")


def test_the_linked_tree_and_its_round_trips_stay_gone():
    learning = SRC / "repro" / "learning"
    assert not (learning / "discretize.py").exists()
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(learning.glob("*.py"))
        for name in _GONE_TREE_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_the_one_valued_options_stay_gone():
    import inspect

    from repro.experiments import ablations, baselines, fig10, table3
    from repro.experiments import families_breakdown
    from repro.learning.forest import EnsembleRandomForest
    from repro.learning.ranking import rank_features

    assert "criterion" not in inspect.signature(rank_features).parameters
    assert "n_jobs" not in inspect.signature(EnsembleRandomForest).parameters
    # fit(n_jobs=) is the one way to set it.
    assert "n_jobs" in inspect.signature(EnsembleRandomForest.fit).parameters
    drivers = [ablations.run_voting, ablations.run_forest_sweep, fig10.run,
               table3.run, baselines.run, families_breakdown.run]
    assert [d for d in drivers
            if "n_jobs" in inspect.signature(d).parameters] == []


# -- a WCG stores what its readers read -------------------------------------

_GONE_STAGE_NAMES = (
    "StageAssigner", "_TxnFacts", "_facts_of", "_SEQ_LO", "_SEQ_HI",
    "_assigner", "_redirect_keys", "_stage_at", "_txn_edges",
    "set_edge_stage", "set_stage", "stage_edges",
    "has_post_download_dynamics", "def add_edge",
    "StringTable", "METHODS", "REDIRECT_KINDS",
    "augment_prefixes", "structure_cache_size",
)


def test_stored_stages_and_unread_edge_columns_stay_gone():
    import re

    from repro.core.columns import EdgeColumnStore
    from repro.core.wcg import EdgeData

    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _GONE_STAGE_NAMES
        if re.search(rf"\b{re.escape(name)}\b",
                     path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert [name for name, _ in EdgeColumnStore._NUMERIC] == [
        "timestamp", "kind", "src", "dst"]
    assert EdgeData._fields == ("kind", "timestamp")


def test_a_shard_runs_the_same_engine_type_as_the_tap(trained_model):
    from repro.detection.live import LiveDetector
    from repro.service import EngineSpec

    assert type(EngineSpec(trained_model).build_engine()) is LiveDetector


class _Inbox:
    """A ``queue.Queue`` stand-in that records whether it was drained."""

    def __init__(self, batches):
        self.items = list(batches) + [None]

    def get(self):
        return self.items.pop(0)


def _run_failing_worker(monkeypatch, trained_model, method):
    from repro.detection.live import LiveDetector
    from repro.net.pcap import PcapPacket
    from repro.service import EngineSpec
    from repro.service.worker import shard_worker

    calls = []

    def explode(self, *args):
        calls.append(args)
        if method == "finish" or len(calls) == 2:
            raise RuntimeError("engine broke")
        return []

    monkeypatch.setattr(LiveDetector, method, explode)
    packet = PcapPacket(timestamp=1.0, data=b"\x00" * 60)
    inbox = _Inbox([[packet, packet], [packet], [packet, packet]])
    posted = []
    outbox = type("Outbox", (), {"put": staticmethod(posted.append)})
    shard_worker(EngineSpec(trained_model), 3, inbox, outbox)
    return inbox, posted, calls


def test_a_worker_that_dies_mid_stream_still_drains_and_reports(
        monkeypatch, trained_model):
    inbox, (result,), calls = _run_failing_worker(
        monkeypatch, trained_model, "feed")
    assert len(calls) == 2  # died on the second packet of five
    assert result.shard_id == 3 and "engine broke" in result.error
    assert inbox.items == []  # took everything up to the sentinel


def test_a_worker_that_dies_in_finish_reports_without_reading_on(
        monkeypatch, trained_model):
    inbox, (result,), _ = _run_failing_worker(
        monkeypatch, trained_model, "finish")
    assert result.shard_id == 3 and "engine broke" in result.error
    # The sentinel was already taken; a further get() would block a
    # real queue forever (here: IndexError on the empty list).
    assert inbox.items == []
