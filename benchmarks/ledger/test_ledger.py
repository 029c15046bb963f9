"""Self-tests of the bench ledger harness (not of the program).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Tier-1's ``testpaths`` does not include this directory.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

from benchmarks.ledger import run, run_one, shim, stats, workloads

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- shim spans ---------------------------------------------------------------

@pytest.fixture
def clock(monkeypatch):
    """A fake nanosecond clock the traced functions advance themselves."""
    now = [0]
    monkeypatch.setattr(shim, "perf_counter_ns", lambda: now[0])

    def tick(ns):
        now[0] += ns

    tick.now = now
    return tick


def test_self_time_is_duration_minus_child_spans(clock):
    spans = shim.Spans()
    leaf = spans.wrap("net.pcap", lambda: clock(2))

    def middle():
        clock(3)
        leaf()
        leaf()
        clock(1)

    middle = spans.wrap("net.flows", middle)

    def root():
        clock(10)
        middle()
        clock(5)

    spans.wrap("net.pcap", root)()
    # root 15 self + two leaves of 2; middle 4 self: rows sum to the wall.
    assert spans.self_ns("net.pcap") == 19
    assert spans.calls("net.pcap") == 3
    assert spans.self_ns("net.flows") == 4
    assert spans.calls("net.flows") == 1
    assert spans.total_ns() == clock.now[0] == 23


def test_span_closes_when_the_call_raises(clock):
    spans = shim.Spans()

    def boom():
        clock(7)
        raise KeyError("x")

    inner = spans.wrap("features", boom)

    def outer():
        clock(1)
        try:
            inner()
        except KeyError:
            clock(2)

    spans.wrap("learning", outer)()
    assert spans.self_ns("features") == 7
    assert spans.self_ns("learning") == 3


def test_generator_is_timed_per_resumption(clock):
    spans = shim.Spans()

    def produce():
        for _ in range(3):
            clock(4)
            yield 1

    total = 0
    for item in spans.wrap("net.pcap", produce)():
        clock(100)  # the consumer's time is not the generator's
        total += item
    assert total == 3
    assert spans.self_ns("net.pcap") == 12
    assert spans.calls("net.pcap") == 4  # three items + the exhaustion


def test_installed_patches_and_restores(monkeypatch):
    from repro.net import flows, http1

    monkeypatch.setitem(shim.ENTRY_POINTS, "service",
                        [("repro.service.daemon", "NoSuchClass", "feed"),
                         ("repro.no_such_module", None, "f")])
    original = flows.decode_tcp
    assert "feed" not in vars(http1.RequestParser)  # inherited
    spans = shim.Spans()
    with shim.installed(spans):
        assert flows.decode_tcp is not original
        assert "feed" in vars(http1.RequestParser)
    assert flows.decode_tcp is original
    assert "feed" not in vars(http1.RequestParser)
    assert spans.missing == ["repro.service.daemon.NoSuchClass.feed",
                             "repro.no_such_module.f"]


# -- statistics -----------------------------------------------------------------

def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supports(200, 95.0) and not stats.supports(199, 95.0)
    assert stats.supports(1_000, 99.0) and not stats.supports(999, 99.0)
    assert stats.supports(10_000, 99.9) and not stats.supports(9_999, 99.9)
    assert stats.tail_percentile(40_000) == 99.0
    assert stats.tail_percentile(351) == 95.0  # offline_train
    assert stats.tail_percentile(150) == 90.0
    assert stats.tail_percentile(99) == 50.0


def test_percentile_and_summary():
    ordered = [float(v) for v in range(1, 102)]
    assert stats.percentile(ordered, 50.0) == 51.0
    assert stats.percentile(ordered, 99.0) == 100.0
    assert stats.percentile([3.0], 99.0) == 3.0
    values = [5.0, 1.0, 9.0, 4.0, 7.0, 3.0, 8.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.summary(values) == {"median": median, "q1": q1, "q3": q3,
                                     "n": 7}
    assert stats.relative_iqr(stats.summary(values)) == (q3 - q1) / median
    assert stats.summary([2.5])["median"] == 2.5


def _summary(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "n": 5}


def test_compare_rule():
    metrics = {
        "rate": {"unit": "1/s", "better": "higher", "bound": 0.10},
        "lat": {"unit": "us", "better": "lower", "bound": 0.10},
    }
    base = {"w": {"rate": _summary(100.0), "lat": _summary(50.0)}}

    def verdicts(rate, lat):
        rows = stats.compare(base, {"w": {"rate": rate, "lat": lat}}, metrics)
        return {row["metric"]: row["verdict"] for row in rows}

    assert verdicts(_summary(95.0), _summary(54.0)) == \
        {"rate": "ok", "lat": "ok"}
    assert verdicts(_summary(85.0), _summary(56.0)) == \
        {"rate": "regression", "lat": "regression"}
    assert verdicts(_summary(120.0), _summary(40.0)) == \
        {"rate": "improved", "lat": "improved"}
    # Spread wider than the bound: "unchanged" cannot be claimed.
    assert verdicts(_summary(98.0, iqr=15.0), _summary(50.0)) == \
        {"rate": "unresolved", "lat": "ok"}
    row = stats.compare(base, {"w": {"rate": _summary(85.0)}}, metrics)[0]
    assert row["base"] == 100.0 and row["ratio"] == 0.85


# -- the timed loop ------------------------------------------------------------

def test_composite_keeps_each_windows_fastest_pass():
    assert run_one.composite([[1.0, 5.0, 2.0], [3.0, 4.0, 1.0]]) == 6.0


def test_drive_counts_failures_and_windows():
    def op(item):
        if item == 3:
            raise ValueError(item)
        return [item] if item % 2 else None

    record = workloads.drive(range(7), op, (lambda: "done",), window=3)
    assert record["items"] == 7 and record["failed"] == 1
    assert record["latencies"][3] == float("inf")
    assert len(record["walls"]) == len(record["cpus"]) == 3  # 3 + 3 + 1&finish
    assert record["outputs"] == [[1], [5]] and record["final"] == "done"
    assert len(workloads.drive(range(7), op, (int, int), None)["walls"]) == 1
    assert len(workloads.drive(range(7), op, (int, int), 3)["walls"]) == 4


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 1 <= len(SPEC["command"]) <= 32
    assert any(arg.startswith(SPEC["paths"][0] + "/")
               for arg in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert tuple(names) == workloads.WORKLOADS
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024


# -- end to end --------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(run.ROOT, "src"),
                                         run.ROOT])
    return env


def test_smoke_ledger_end_to_end(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke",
         "--out", str(out)],
        cwd=run.ROOT, env=_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    doc = json.loads(out.read_text())
    assert doc["valid"] and doc["env"]["nproc"] >= 1
    assert doc["order"][:5] == [f"{w}:0" for w in workloads.WORKLOADS]
    assert doc["digests"]["tap_sharded"] == doc["digests"]["tap_mixed"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in workloads.WORKLOADS:
        assert set(doc["end_to_end"][name]) == end_to_end
        assert all(s["median"] > 0 for s in doc["end_to_end"][name].values())
        assert set(doc["per_layer"][name]) == per_layer
        layers = doc["per_layer"][name]
        assert layers["trace.layers_missing"] == 0
        assert layers["trace.coverage"] > 0.8
        # The workload/layer separation, by the numbers.
        assert (layers["service.calls"] > 0) == (name == "tap_sharded")
        assert (layers["learning.calls"] > 0) == (
            name in ("tap_mixed", "proxy_dense", "offline_train"))
    wire = ("net.pcap", "net.packets", "net.reassembly", "net.http1",
            "net.flows", "detection.live")
    proxy = doc["per_layer"]["proxy_dense"]
    assert all(proxy[f"{layer}.calls"] == 0 for layer in wire)
    assert doc["per_layer"]["offline_train"]["quality.cv_tpr"] > 0
    # ... and the two result files feed --compare.
    again = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--compare",
         str(out), str(out)],
        cwd=run.ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert again.returncode == 0, again.stdout + again.stderr
    assert again.stdout.count(" ok ") == 5 * len(end_to_end)


def test_refuses_a_checkout_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "benchmarks", "ledger"),
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [*SPEC["command"], "--workload", "tap_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
