"""One measured run of one workload: the command in ``BENCHMARK.json``.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Sets the workload up from the seed (several times, so ``setup_s`` is a
median), measures it for ``S`` seconds in a fresh child process
(:mod:`benchmarks.ledger.run_one`), checks the outputs, prints the
ledger as text and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
(``--trace 1``) of ``BENCHMARK.json``.  Exits non-zero, with the reason
printed, when a validity gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_import_started = time.perf_counter()
try:
    from benchmarks.ledger import shim, workloads
except ImportError as error:  # no program to measure in this checkout
    sys.exit(f"ledger: cannot import the program under {ROOT}/src: {error}")
IMPORT_S = time.perf_counter() - _import_started

#: Times the input is built per run; ``setup_s`` reports the median.
SETUPS = 3
#: Seconds a child may take before the run is abandoned.
CHILD_TIMEOUT = 150.0
#: Detection-quality floors at full size, well under what ten seeds
#: gave (see README.md): far below means the driver, not the program,
#: is being measured.
QUALITY_FLOORS = {"episode_recall": 0.90, "cv_tpr": 0.90}
QUALITY_CEILINGS = {"benign_alert_frac": 0.10, "cv_fpr": 0.15}
#: tap_hostile must shed *some* packets, and only some.
SHED_WINDOW = (0.0, 0.10)

_HOSTILE_COUNTERS = ("reassembly.overflows", "decode.dropped",
                     "http.orphan_responses", "decode.errors",
                     "decode.evicted_connections")


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _ratio(counters: dict[str, float], top: str, bottom: str,
           scale: float = 1.0) -> float:
    denominator = counters.get(bottom, 0)
    return scale * counters.get(top, 0) / denominator if denominator else 0.0


def _hit_frac(counters: dict[str, float], stem: str) -> float:
    hits = counters.get(f"{stem}_hits", 0)
    total = hits + counters.get(f"{stem}_misses", 0)
    return hits / total if total else 0.0


def layer_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of a traced run, by ``BENCHMARK.json`` name.

    A layer the workload never enters reads 0 calls and 0 time — that is
    the prediction "flat on this workload" made checkable.
    """
    layers = result["layers"]
    counters = result["counters"]
    histograms = result["histograms"]
    flat: dict[str, float] = {}
    for layer, row in layers["rows"].items():
        for field, value in row.items():
            flat[f"{layer}.{field}"] = value
    service = result.get("service") or {}
    for field in ("feed_s", "drain_s", "coordinator_cpu_s", "worker_cpu_s",
                  "worker_peak_rss_mib", "speedup_vs_single"):
        flat[f"service.{field}"] = service.get(field, 0.0)
    for field, value in result["setup"].items():
        flat[f"setup.{field}"] = value
    batch = histograms.get("detector.score_batch_size", {})
    flat.update({
        "net.packets.error_frac":
            _ratio(counters, "decode.errors", "decode.packets"),
        "detection.live.dropped_frac":
            _ratio(counters, "decode.dropped", "decode.packets"),
        "detection.live.evicted_connections":
            counters.get("decode.evicted_connections", 0),
        "ops.p50_us": result["end_to_end"]["op_p50_us"],
        "ops.tail_us": result["end_to_end"]["op_tail_us"],
        "detection.live.decision_p999_us":
            result["end_to_end"]["op_p999_us"],
        "net.reassembly.overflows": counters.get("reassembly.overflows", 0),
        "net.flows.orphan_frac":
            _ratio(counters, "http.orphan_responses", "http.responses"),
        "net.flows.txn_per_pkt":
            _ratio(counters, "http.transactions", "decode.packets"),
        "net.http1.feeds_per_pkt":
            _ratio(counters, "http.parser_feeds", "decode.packets"),
        "detection.detector.scores_per_txn":
            _ratio(counters, "detector.scores_requested",
                   "detector.transactions"),
        "detection.detector.batch_rows_mean": batch.get("mean") or 0.0,
        "detection.detector.weeded_frac":
            _ratio(counters, "detector.weeded", "detector.transactions"),
        "detection.clues.fired_per_ktxn":
            _ratio(counters, "detection.clues_fired",
                   "detector.transactions", scale=1000.0),
        "detection.monitor.watches_opened":
            counters.get("session.watches_opened", 0),
        "detection.monitor.watches_pruned":
            counters.get("session.watches_pruned", 0),
        "features.topology_cache_hit_frac":
            _hit_frac(counters, "features.topology_cache"),
        "features.vector_cache_hit_frac":
            _hit_frac(counters, "features.vector_cache"),
        "core.builder.out_of_order_replays":
            counters.get("wcg.out_of_order_replays", 0),
        "process.rss_growth_mib": result["rss_growth_mib"],
        "trace.coverage": layers["coverage"],
        "trace.overhead_frac": layers["overhead_frac"],
        "trace.layers_missing": len(layers["missing"]),
        "quality.alerts": result["alerts"],
    })
    quality = result["quality"]
    for name in ("episode_recall", "benign_alert_frac",
                 "alert_progress_p50", "cv_tpr", "cv_fpr"):
        flat[f"quality.{name}"] = quality.get(name, 0.0)
    return flat


def gates(result: dict[str, Any], full_size: bool) -> list[str]:
    """Reasons this run's outputs are not valid (empty = valid)."""
    workload = result["workload"]
    reasons = []
    if result["failed"]:
        reasons.append(f"{result['failed']} of {result['attempted']} "
                       "operations failed or were unaccounted")
    if not result["deterministic"]:
        reasons.append("alert digest differs between passes of one input")
    reference = result.get("reference")
    if reference and reference["digest"] != result["digest"]:
        reasons.append("merged fleet digest differs from the "
                       "single-process tap's on the same pcap")
    counters = result.get("counters")
    if counters is not None and workload.startswith("tap_"):
        if counters.get("decode.packets") != result["items"]:
            reasons.append(
                f"decode.packets {counters.get('decode.packets')} != "
                f"{result['items']} packets fed"
            )
        if counters.get("http.transactions", 0) != result["transactions"]:
            reasons.append(
                f"http.transactions {counters.get('http.transactions')} "
                f"!= {result['transactions']} transactions emitted"
            )
    if not full_size:
        return reasons  # a smoke input is too small to alert or shed
    if workload in ("tap_mixed", "tap_sharded", "proxy_dense") \
            and not result["alerts"]:
        reasons.append("the workload never alerted")
    if workload == "tap_hostile" and counters is not None:
        quiet = [c for c in _HOSTILE_COUNTERS if not counters.get(c)]
        if quiet:
            reasons.append(f"degradation counters never fired: {quiet}")
        shed = _ratio(counters, "decode.dropped", "decode.packets")
        if not SHED_WINDOW[0] < shed < SHED_WINDOW[1]:
            reasons.append(f"shed fraction {shed:.4f} outside "
                           f"{SHED_WINDOW}: the cap fell off its cliff")
    quality = result["quality"]
    for name, floor in QUALITY_FLOORS.items():
        if name in quality and quality[name] < floor:
            reasons.append(f"{name} {quality[name]:.4f} < {floor}")
    for name, ceiling in QUALITY_CEILINGS.items():
        if name in quality and quality[name] > ceiling:
            reasons.append(f"{name} {quality[name]:.4f} > {ceiling}")
    return reasons


def _run_child(command: list[str], env: dict[str, str]) -> None:
    """Run the measured child to completion in its own process group,
    so that a timeout takes its shard workers down with it."""
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code:
        raise subprocess.CalledProcessError(code, command)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 shrink: int = 1, setups: int = SETUPS) -> dict[str, Any]:
    """Set up, measure in a child, gate; the run's full result."""
    workdir = os.path.join(ROOT, ".ledger_tmp",
                           f"{workload}-{seed}-{os.getpid()}")
    try:
        builds = []
        for _ in range(setups):
            shutil.rmtree(workdir, ignore_errors=True)
            builds.append(workloads.build(workload, seed, workdir, shrink))
        out = os.path.join(workdir, "result.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        _run_child(
            [sys.executable, "-m", "benchmarks.ledger.run_one",
             "--workload", workload, "--seed", str(seed),
             "--workdir", workdir, "--seconds", str(seconds),
             "--trace", str(int(trace)), "--out", out,
             "--spawned-at", repr(time.time())],
            env,
        )
        with open(out) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup"] = {
        "import_s": IMPORT_S,
        "train_s": statistics.median(b["train_s"] for b in builds),
        "generate_s": statistics.median(b["generate_s"] for b in builds),
        "start_s": result.pop("start_s"),
    }
    result["end_to_end"]["setup_s"] = (
        statistics.median(b["train_s"] + b["generate_s"] for b in builds)
        + result["setup"]["start_s"]
    )
    result["reasons"] = gates(result, full_size=shrink == 1)
    result["correct"] = not result["reasons"]
    result["metrics"] = (layer_metrics(result) if trace
                         else dict(result["end_to_end"]))
    return result


def render(result: dict[str, Any], spec: dict[str, Any]) -> str:
    """The run as text: every metric by name with its unit."""
    section = "per_layer" if result["trace"] else "end_to_end"
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']}: {result['items']} {result['item']}s "
        f"per pass, {result['transactions']} transactions, "
        f"{result['alerts']} alerts, digest {result['digest'][:16]}",
    ]
    for index, one in enumerate(result["passes"]):
        lines.append(
            f"   pass {index} {'traced' if one['traced'] else 'plain '} "
            f"{one['items_per_s']:12.1f} {result['item']}s/s whole-pass "
            f"({one['wall_s']:.3f} s)"
        )
    e2e = result["end_to_end"]
    lines.append(f"   op latency over {e2e['op_samples']} {result['item']}s, "
                 f"each its fastest of the plain passes: p50 "
                 f"{e2e['op_p50_us']:.4f} us, "
                 f"p{e2e['op_tail_percentile']:g} {e2e['op_tail_us']:.4f} us")
    for metric in spec[section]:
        name = metric["name"]
        value = result["metrics"][name]
        if section == "per_layer" and not value:
            continue  # layers this workload never enters
        lines.append(f"   {name:42s} {value:16.4f} {metric['unit']}")
    if result["trace"]:
        rows = result["layers"]["rows"]
        quiet = sorted(layer for layer in shim.LAYERS
                       if not rows[layer]["calls"])
        lines.append(f"   layers with 0 calls: {', '.join(quiet) or '-'}")
        lines.append("   layers_missing: "
                     f"{', '.join(result['layers']['missing']) or '-'}")
    for reason in result["reasons"]:
        lines.append(f"   INVALID: {reason}")
    return "\n".join(lines)


def contract_line(result: dict[str, Any], spec: dict[str, Any]) -> str:
    """The last stdout line the driver parses."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {
        metric["name"]: {"value": result["metrics"][metric["name"]],
                         "unit": metric["unit"]}
        for metric in spec[section]
    }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(render(result, spec))
    print(contract_line(result, spec), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
