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


#: A WCG is its edge lists: the numpy column store and the int kind
#: codes are gone.
_GONE_COLUMN_NAMES = (
    "EdgeColumnStore", "edge_store", "column_reallocs", "KIND_REQUEST",
    "KIND_RESPONSE", "KIND_REDIRECT", "_KIND_CODE", "_sorted_ts",
)


def test_stored_stages_and_unread_edge_columns_stay_gone():
    import importlib
    import re

    import pytest

    from repro.core.wcg import EdgeData

    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _GONE_STAGE_NAMES + _GONE_COLUMN_NAMES
        if re.search(rf"\b{re.escape(name)}\b",
                     path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.columns")
    assert EdgeData._fields == ("kind", "timestamp")
    # No numpy array behind a graph.
    assert "numpy" not in (SRC / "repro" / "core" / "wcg.py").read_text(
        encoding="utf-8")


#: The per-transaction path pays only for what is read: the feature-vector
#: cache never hit, and substring needles replaced the session regex.
_GONE_UNREAD_NAMES = ("_vector_cache", "vector_cache_hits",
                      "_MAY_NAME_SESSION")


def test_the_unread_vector_cache_and_session_regex_stay_gone():
    import re

    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _GONE_UNREAD_NAMES
        if re.search(rf"\b{re.escape(name)}\b",
                     path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_a_header_map_holds_no_pair_per_header():
    # A retained message costs its header strings, not a tuple per
    # header: the pair list is the oracle ``tests/oracles/headers.py``.
    import ast
    import inspect

    from repro.core.model import Headers
    from repro.net import http1

    assert "_items" not in Headers.__slots__
    assert not hasattr(Headers([("A", "1")]), "_items")
    tree = ast.parse(inspect.getsource(http1._split_headers))
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    built = [ast.unparse(node) for node in ast.walk(loop)
             if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load)]
    assert built == []


#: The tap and the fleet hand back only what a caller reads: no watch
#: snapshots, no pluggable alert sink, one shard-tracing field.
_GONE_OUTPUT_NAMES = ("WatchSnapshot", "snapshot_watches",
                      "merge_watch_snapshots", "AlertSink", "ListSink",
                      "trace_sample", "_shard_tracer", "overload_policy")


def test_the_unread_outputs_and_tracing_knobs_stay_gone():
    import dataclasses
    import inspect
    import re

    from repro.detection.detector import OnTheWireDetector
    from repro.service import EngineSpec, ShardResult

    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _GONE_OUTPUT_NAMES
        if re.search(rf"\b{re.escape(name)}\b",
                     path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert [f.name for f in dataclasses.fields(EngineSpec)] == [
        "classifier", "clue_policy", "detector_config", "linktype", "book",
        "metrics", "trace"]
    assert "sink" not in inspect.signature(OnTheWireDetector).parameters
    assert "packets" not in {f.name for f in dataclasses.fields(ShardResult)}


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
    from repro.service.worker import pack_frames, shard_worker

    calls = []

    def explode(self, *args):
        calls.append(args)
        if method == "finish" or len(calls) == 2:
            raise RuntimeError("engine broke")
        return []

    monkeypatch.setattr(LiveDetector, method, explode)
    packet = PcapPacket(timestamp=1.0, data=b"\x00" * 60)
    inbox = _Inbox([pack_frames(batch, [1.0] * len(batch)) for batch in
                    ([packet, packet], [packet], [packet, packet])])
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


# -- one buffer and one message type per HTTP direction ----------------------

#: The intermediate messages, their builders and the direction's read view.
_GONE_WIRE_NAMES = ("RawHttpRequest", "RawHttpResponse", "_build_request",
                    "_build_response", "keep_marks_from")
_GONE_DIRECTION_MEMBERS = ("take", "compact", "consumed", "base")
_WIRE_MODULES = ("net", "detection/live.py", "service")


def _identifiers(tree):
    """Every name a module defines or reads: definitions, parameters,
    keywords, imports, bare names and attributes."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1]


def _members_and_reads(tree):
    """Class-body definitions (methods, fields) and attribute reads —
    not local variables, so a local ``take`` is no member."""
    import ast

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name):
                    yield item.target.id
                elif isinstance(item, ast.Assign):
                    yield from (target.id for target in item.targets
                                if isinstance(target, ast.Name))


def test_the_raw_messages_and_the_direction_read_view_stay_gone():
    import ast

    from repro.net.reassembly import StreamDirection

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(SRC / "repro").as_posix()
        offenders += [f"{relative}: {name}"
                      for name in set(_identifiers(tree))
                      if name in _GONE_WIRE_NAMES]
        if relative.startswith(_WIRE_MODULES):
            offenders += [f"{relative}: .{name}"
                          for name in set(_members_and_reads(tree))
                          if name in _GONE_DIRECTION_MEMBERS]
    assert sorted(offenders) == []
    direction = StreamDirection(src=("a", 1), dst=("b", 2))
    assert [name for name in _GONE_DIRECTION_MEMBERS
            if hasattr(direction, name)] == []


# -- one scanner per HTTP direction ----------------------------------------

#: The step table the scanner replaced: its parser class, states, steps
#: and truncation map, and the body accumulator beside them.
_GONE_PARSER_NAMES = ("_IncrementalParser", "_TRUNCATED", "_steps",
                      "_start_body", "_begin_message")
_GONE_PARSER_MEMBERS = ("_state", "_need", "_body")


def test_the_step_table_and_the_body_accumulator_stay_gone():
    import ast

    offenders = []
    for path in sorted((SRC / "repro" / "net").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(SRC / "repro").as_posix()
        offenders += [f"{relative}: {name}"
                      for name in set(_identifiers(tree))
                      if name in _GONE_PARSER_NAMES
                      or name.startswith("_step_")]
        offenders += [f"{relative}: .{name}"
                      for name in set(_members_and_reads(tree))
                      if name in _GONE_PARSER_MEMBERS]
    assert sorted(offenders) == []


def test_a_lower_case_head_response_is_framed_by_its_content_length():
    # Methods are case-sensitive (RFC 9110 §9): only ``HEAD`` elicits a
    # bodiless response.  The model maps ``head`` to HttpMethod.HEAD, so
    # framing must read the verb as sent.
    from repro.core.model import HttpMethod
    from repro.detection.live import LiveDecoder
    from repro.loadgen import RawConnection
    from repro.net.flows import transactions_from_packets

    conn = RawConnection("172.31.0.10", 50010, "198.51.100.10")
    packets = conn.open(1.0)
    packets += conn.send(1.1, True, b"head /a HTTP/1.1\r\nHost: h\r\n\r\n"
                                    b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n")
    packets += conn.send(1.2, False,
                         b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
                         b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
    packets += conn.close(1.3)
    decoder = LiveDecoder()
    live = [t for p in packets for t in decoder.feed(p)] + decoder.flush()
    for transactions in (live, transactions_from_packets(packets)):
        assert [(t.request.method, t.request.uri, t.response.status,
                 t.response.body) for t in transactions] == [
            (HttpMethod.HEAD, "/a", 200, b"hello"),
            (HttpMethod.GET, "/b", 404, b"")]


# -- one decoder -----------------------------------------------------------


def test_a_capture_is_decoded_by_the_tap_decoder():
    import ast
    import inspect

    from repro.net.flows import transactions_from_packets

    assert "max_buffered" not in inspect.signature(
        transactions_from_packets).parameters
    retired, classes = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(SRC / "repro").as_posix()
        if relative.startswith("net/") and "_retired" in _identifiers(tree):
            retired.append(relative)
        classes += [(node.name, relative) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and node.name in ("LiveDecoder", "OverloadPolicy")]
    assert retired == []  # the decoder's eviction is the one reuse rule
    assert sorted(classes) == [("LiveDecoder", "net/flows.py"),
                               ("OverloadPolicy", "net/flows.py")]


# -- one telemetry slot ----------------------------------------------------

#: The tracer and registry switches: the active registry, selected with
#: ``use_registry``, is the one slot, and it carries the trace mode.
_GONE_TELEMETRY_NAMES = ("get_tracer", "set_tracer", "use_tracer",
                         "enable_tracing", "tracing_enabled", "set_registry",
                         "enable_metrics", "metrics_enabled",
                         "_coordinator_trace")


def _import_time_calls(nodes):
    """Names of the calls a module makes when it runs: everything but
    function and lambda bodies (decorators and defaults run then)."""
    import ast

    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            yield from _import_time_calls(
                [*node.decorator_list, *arguments.defaults,
                 *filter(None, arguments.kw_defaults)])
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", None) or getattr(func, "attr", None)
        yield from _import_time_calls(ast.iter_child_nodes(node))


def test_the_tracer_and_registry_switches_stay_gone():
    import ast

    import repro.obs
    import repro.obs.registry
    import repro.obs.trace

    offenders = []
    globals_in_obs = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(SRC / "repro").as_posix()
        offenders += [f"{relative}: {name}"
                      for name in set(_identifiers(tree))
                      if name in _GONE_TELEMETRY_NAMES]
        offenders += [f"{relative}: Tracer() at import"
                      for name in _import_time_calls([tree])
                      if name == "Tracer"]
        if relative.startswith("obs/"):
            globals_in_obs += sum(isinstance(node, ast.Global)
                                  for node in ast.walk(tree))
    assert sorted(offenders) == []
    assert globals_in_obs == 1  # _install's, the one slot's one writer
    modules = (repro.obs, repro.obs.registry, repro.obs.trace)
    assert [f"{module.__name__}.{name}" for module in modules
            for name in (*_GONE_TELEMETRY_NAMES, "span", "_active")
            if hasattr(module, name)] == ["repro.obs.registry._active"]
