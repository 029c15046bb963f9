"""Bench latency: time-to-alert across the infection corpus.

Reproduction contract (the on-the-wire claim, quantified): the detector
alerts on the large majority of non-stealth episodes, most alerts fire
*mid-conversation* (before the episode's final transaction), and the
median alert lands within the episode's machine-paced lifetime — i.e.
in time to terminate the session, which is what Section V-B's
"the corresponding session is terminated" requires.
"""

import numpy as np

from repro.experiments.context import cached_ground_truth, trained_classifier
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from tests.conftest import first_alert


def _first_alerts(classifier, episodes):
    return [first_alert(classifier, trace) for trace in episodes]


def test_bench_detection_latency(benchmark, save_artifact):
    classifier = trained_classifier(BENCH_SEED, BENCH_SCALE)
    corpus = cached_ground_truth(BENCH_SEED, BENCH_SCALE)
    episodes = [
        t for t in corpus.infections if not t.meta.get("stealth")
    ][:120]

    latencies = benchmark.pedantic(
        _first_alerts, args=(classifier, episodes), rounds=1, iterations=1,
    )
    seconds, progress = map(np.array, zip(*filter(None, latencies)))
    summary = {
        "episodes": len(latencies),
        "detection_rate": len(seconds) / len(latencies),
        "median_seconds": float(np.median(seconds)),
        "p90_seconds": float(np.percentile(seconds, 90)),
        "median_progress": float(np.median(progress)),
        "mid_stream_fraction": float((progress < 1.0).mean()),
    }

    assert summary["detection_rate"] > 0.9
    assert summary["mid_stream_fraction"] > 0.5
    # Median alert within the average episode lifetime (~70 s measured).
    assert summary["median_seconds"] < 120.0

    lines = ["Detection latency (time-to-alert) over "
             f"{summary['episodes']} infection episodes:"]
    for key in ("detection_rate", "median_seconds", "p90_seconds",
                "median_progress", "mid_stream_fraction"):
        lines.append(f"  {key:20s} = {summary[key]:.3f}")
    save_artifact("latency", "\n".join(lines))
