"""The whole ledger in one command.

    PYTHONPATH=src python -m benchmarks.ledger --seed 11 --repeats 5

builds every workload's input, runs the five workloads round-robin
(w1 w2 w3 w4 w5, w1 ...) so machine drift spreads evenly over them,
each run a fresh child process, then one traced run per workload; prints
every metric by name with its unit as median / q1 / q3 / n, checks the
outputs, and exits non-zero on any validity failure.

    --out FILE            also write the result (with its environment block) as JSON
    --compare A.json B.json   verdict per (workload, metric) row of two results
    --aa                  run two full sets back to back and compare them
    --smoke               sizes / 20, one repeat: a plumbing check, < 1 min
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any

import numpy

from benchmarks.ledger import run, stats, workloads

SMOKE_SHRINK = 20
SMOKE_SECONDS = 0.2


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=run.ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict[str, Any]:
    cores = os.cpu_count() or 1
    env = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": _git("status", "--porcelain") not in ("", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": cores,
        "loadavg_before": os.getloadavg(),
    }
    if cores < workloads.SHARD_WORKERS + 1:
        env["note"] = (
            f"workers share cores: {workloads.SHARD_WORKERS} workers + "
            f"coordinator on {cores} cores, so tap_sharded wall-clock "
            "scaling is a floor; read its cpu_us_per_item"
        )
    return env


def run_set(seed: int, repeats: int, seconds: float, shrink: int,
            spec: dict[str, Any]) -> dict[str, Any]:
    """``repeats`` plain runs per workload, round-robin, then one traced
    run each; the result document."""
    env = environment()
    names = workloads.WORKLOADS
    setups = run.SETUPS if shrink == 1 else 1
    samples: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    digests: dict[str, set[str]] = {w: set() for w in names}
    per_layer: dict[str, dict[str, float]] = {}
    reasons: list[str] = []
    order: list[str] = []
    for trace, rounds in ((False, repeats), (True, 1)):
        for _ in range(rounds):
            for name in names:
                result = run.run_workload(name, seed, seconds, trace,
                                          shrink=shrink, setups=setups)
                print(run.render(result, spec), flush=True)
                order.append(f"{name}:{int(trace)}")
                digests[name].add(result["digest"])
                reasons += [f"{name}: {r}" for r in result["reasons"]]
                if trace:
                    per_layer[name] = result["metrics"]
                    continue
                for metric in spec["end_to_end"]:
                    samples[name].setdefault(metric["name"], []).append(
                        result["metrics"][metric["name"]]
                    )
    for name, seen in digests.items():
        if len(seen) > 1:
            reasons.append(f"{name}: digest differs between repeats")
    if digests["tap_mixed"] != digests["tap_sharded"]:
        reasons.append("tap_sharded's merged digest differs from tap_mixed's")
    env["loadavg_after"] = os.getloadavg()
    return {
        "schema": "bench.ledger.v1", "env": env, "seed": seed,
        "repeats": repeats, "seconds": seconds,
        "sizes": workloads.sizes(shrink), "order": order,
        "digests": {w: sorted(d) for w, d in digests.items()},
        "end_to_end": {
            w: {m: stats.summary(v) for m, v in metrics.items()}
            for w, metrics in samples.items()
        },
        "per_layer": per_layer, "valid": not reasons, "reasons": reasons,
    }


def print_summary(doc: dict[str, Any], spec: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"\n== ledger seed={doc['seed']} repeats={doc['repeats']} "
          f"commit={doc['env']['commit'][:12]}"
          f"{'+dirty' if doc['env']['dirty'] else ''} "
          f"nproc={doc['env']['nproc']}")
    if "note" in doc["env"]:
        print(f"   note: {doc['env']['note']}")
    print(f"   {'workload':14s} {'metric':18s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'n':>3s} unit")
    for name, metrics in doc["end_to_end"].items():
        for metric, s in metrics.items():
            print(f"   {name:14s} {metric:18s} {s['median']:14.4f} "
                  f"{s['q1']:14.4f} {s['q3']:14.4f} {s['n']:3d} "
                  f"{units[metric]}")
    for name in doc["digests"]:
        print(f"   digest {name:14s} {' '.join(doc['digests'][name])}")
    for reason in doc["reasons"]:
        print(f"   INVALID: {reason}")


def print_comparison(base: dict[str, Any], other: dict[str, Any],
                     spec: dict[str, Any]) -> bool:
    """Print one row per (workload, metric); true when no row regressed
    or stayed unresolved."""
    rows = stats.compare(base["end_to_end"], other["end_to_end"],
                         {m["name"]: m for m in spec["end_to_end"]})
    print(f"   {'workload':14s} {'metric':18s} {'base':>14s} "
          f"{'other':>14s} {'ratio':>8s} {'bound':>6s} {'spread':>7s} verdict")
    for row in rows:
        print(f"   {row['workload']:14s} {row['metric']:18s} "
              f"{row['base']:14.4f} {row['other']:14.4f} "
              f"{row['ratio']:8.4f} {row['bound']:6.2f} "
              f"{row['spread']:7.4f} {row['verdict']} ({row['unit']})")
    return all(r["verdict"] in ("ok", "improved") for r in rows)


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as handle:
                documents.append(json.load(handle))
        return 0 if print_comparison(*documents, spec) else 1

    if args.smoke:
        repeats, seconds, shrink = 1, SMOKE_SECONDS, SMOKE_SHRINK
    else:
        if args.repeats < 5:
            parser.error("--repeats must be at least 5")
        repeats, seconds, shrink = args.repeats, args.seconds, 1

    documents = []
    for _ in range(2 if args.aa else 1):
        doc = run_set(args.seed, repeats, seconds, shrink, spec)
        print_summary(doc, spec)
        documents.append(doc)
    ok = all(doc["valid"] for doc in documents)
    if args.aa:
        print("\n== A/A: the same code twice")
        ok = print_comparison(*documents, spec) and ok
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(documents if args.aa else documents[0], handle,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
