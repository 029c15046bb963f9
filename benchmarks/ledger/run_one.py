"""The measured child: one fresh process per run.

``python -m benchmarks.ledger.run_one --workload W --seed N --workdir D
--seconds S --trace 0|1 --out FILE`` loads the model and input that
:func:`benchmarks.ledger.workloads.build` wrote to ``D``, collects
garbage, then repeats whole passes over the input — a fresh detector
each — until ``S`` seconds have been measured (and at least
:data:`MIN_PASSES` passes of each kind).  Metrics and tracing are
**off** in a plain pass.  With ``--trace 1`` traced passes (shim spans +
a ``MetricsRegistry``) alternate with plain ones, so the same run yields
the per-layer rows and, from equally many passes of each kind, the
tracing overhead.

Why passes repeat and how they combine: this class of VM shows
one-sided noise — bursts in which a pass runs 10–30% slow — so whole-pass
rates of the same process span 10.6k–14.5k pkt/s.  Every pass does the
same work in the same order, so each window of operations is timed once
per pass and the run keeps each window's *fastest* time
(:func:`composite`); likewise each operation's fastest latency.  The sum
over windows repeated to ±0.5% where pass medians moved ±5%.  Per-pass
rates are reported beside it so the noise stays visible.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any

from benchmarks.ledger import shim, stats, workloads
from repro.obs import MetricsRegistry, NullRegistry, use_registry

#: Passes of each kind (plain, traced) a run makes even when they
#: outlast ``--seconds``.
MIN_PASSES = {False: 3, True: 2}

_MIB = 1024.0  # KiB per MiB


def peak_rss_kib() -> int:
    """This process's own resident-set high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the parent's
    ``ru_maxrss`` across fork + exec, so a child spawned by a parent
    that just trained a model would report the parent's peak.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def composite(rows: list[list[float]]) -> float:
    """Sum over windows of the fastest time any pass took for it."""
    return sum(min(column) for column in zip(*rows))


def _rate(record: dict[str, Any]) -> float:
    return record["items"] / sum(record["walls"])


def _end_to_end(plain: list[dict[str, Any]]) -> dict[str, float]:
    """The composite end-to-end numbers of a run's plain passes."""
    items = plain[0]["items"]
    wall = composite([r["walls"] for r in plain])
    cpu = composite([r["cpus"] for r in plain])
    cpu += min(r.get("children_cpu", 0.0) for r in plain)
    fastest = sorted(min(column) for column in
                     zip(*(r["latencies"] for r in plain)))

    tail = stats.tail_percentile(len(fastest))
    return {
        "items_per_s": items / wall,
        "cpu_us_per_item": cpu / items * 1e6,
        "op_p50_us": stats.percentile(fastest, 50.0) * 1e6,
        "op_tail_us": stats.percentile(fastest, tail) * 1e6,
        "op_tail_percentile": tail,
        # A layer metric, reported only where the sample supports it.
        "op_p999_us": (stats.percentile(fastest, 99.9) * 1e6
                       if stats.supports(len(fastest), 99.9) else 0.0),
        "op_samples": len(fastest),
    }


def _layer_rows(record: dict[str, Any], spans: shim.Spans) -> dict[str, Any]:
    """Per-layer rows of one traced pass; they sum to ``coverage``."""
    wall_ns = sum(record["walls"]) * 1e9
    rows = {}
    for layer in shim.LAYERS:
        self_ns = spans.self_ns(layer)
        rows[layer] = {
            "self_s": self_ns / 1e9,
            "share": self_ns / wall_ns,
            "calls": spans.calls(layer),
            "self_ns_per_item": self_ns / record["items"],
        }
    return {"rows": rows, "coverage": spans.total_ns() / wall_ns,
            "missing": spans.missing}


def measure(workload: str, seed: int, workdir: str, seconds: float,
            trace: bool, spawned_at: float) -> dict[str, Any]:
    ctx = workloads.load(workload, seed, workdir)
    gc.collect()
    start_s = time.time() - spawned_at
    rss_before = peak_rss_kib()

    reference = None
    if workload == "tap_sharded":
        # The same pcap and model through the single-process tap: the
        # digest the merged fleet must reproduce, and the rate the
        # transport is taxed against.  Not part of the measured time.
        single = workloads.open_pass(ctx, workload="tap_mixed").run()
        reference = {"digest": single["digest"], "alerts": single["alerts"],
                     "items_per_s": _rate(single)}

    plain: list[dict[str, Any]] = []
    traced: list[tuple[dict[str, Any], shim.Spans, dict]] = []
    pass_setup: list[float] = []
    summaries = []
    deadline = time.perf_counter() + seconds
    index = 0
    while (len(plain) < MIN_PASSES[trace]
           or len(traced) < trace * MIN_PASSES[trace]
           or time.perf_counter() < deadline):
        tracing = trace and index % 2 == 0
        registry = MetricsRegistry() if tracing else NullRegistry()
        spans = shim.Spans()
        gc.collect()
        with use_registry(registry):
            opened = time.perf_counter()
            one = workloads.open_pass(ctx, metrics=tracing)
            pass_setup.append(time.perf_counter() - opened)
            with shim.installed(spans) if tracing else nullcontext():
                record = one.run()
            # The sharded pass's counters live in its workers.
            snapshot = record.pop("snapshot", None) or registry.snapshot()
        summaries.append({
            "traced": tracing, "items_per_s": _rate(record),
            "wall_s": sum(record["walls"]), "alerts": record["alerts"],
            "digest": record["digest"], "failed": record["failed"],
        })
        if tracing:
            traced.append((record, spans, snapshot))
        else:
            plain.append(record)
        index += 1

    records = plain + [t[0] for t in traced]
    result: dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "item": workloads.ITEM[workload], "items": records[0]["items"],
        "transactions": records[0]["transactions"],
        "alerts": records[0]["alerts"], "digest": records[0]["digest"],
        "deterministic": len({r["digest"] for r in records}) == 1,
        "attempted": sum(r["items"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "passes": summaries, "reference": reference,
        "quality": records[0].get("quality", {}),
        "start_s": start_s + statistics.median(pass_setup),
        "end_to_end": _end_to_end(plain),
    }
    result["end_to_end"]["peak_rss_mib"] = peak_rss_kib() / _MIB
    result["rss_growth_mib"] = (peak_rss_kib() - rss_before) / _MIB
    if workload == "tap_sharded":
        best = min(plain, key=lambda r: sum(r["walls"]))
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["service"] = {
            "feed_s": best["feed_s"], "drain_s": best["drain_s"],
            "coordinator_cpu_s": sum(best["cpus"]),
            "worker_cpu_s": best["children_cpu"],
            "worker_peak_rss_mib": children.ru_maxrss / _MIB,
            "speedup_vs_single": (result["end_to_end"]["items_per_s"]
                                  / reference["items_per_s"]),
        }
    if traced:
        record, spans, snapshot = min(traced,
                                      key=lambda t: sum(t[0]["walls"]))
        result["layers"] = _layer_rows(record, spans)
        result["counters"] = snapshot.get("counters", {})
        result["histograms"] = {
            name: {k: v for k, v in hist.items() if k != "samples"}
            for name, hist in snapshot.get("histograms", {}).items()
        }
        traced_rate = record["items"] / composite(
            [t[0]["walls"] for t in traced]
        )
        result["layers"]["overhead_frac"] = (
            1.0 - traced_rate / result["end_to_end"]["items_per_s"]
        )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent spawned us")
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at else time.time()
    result = measure(args.workload, args.seed, args.workdir, args.seconds,
                     bool(args.trace), spawned_at)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
