"""Bench cs1: regenerate the forensic case study (Section VI-C).

Reproduction contract: the replayed streaming session carries 3,011
transactions and ~32 downloads; DynaMiner (redirect threshold 3) raises
around 5 alerts covering the infectious episodes; VirusTotal flags most
but not all alerted payloads at capture time; the content-borne PDF goes
0/56 at capture and >=3/56 after 11 days — DynaMiner's 11-day lead.
"""

from repro.experiments import case_study1
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def test_bench_case_study1(benchmark, save_artifact):
    results = benchmark.pedantic(
        case_study1.run, args=(BENCH_SEED, BENCH_SCALE), rounds=1,
        iterations=1,
    )
    assert results["detector"].transactions_seen == 3011  # paper: 3,011
    assert 20 <= results["downloads"] <= 32     # paper: 32
    assert results["infectious_episodes"] == 5  # paper: 5 alerts
    assert 3 <= len(results["alerts"]) <= 8

    # VirusTotal at capture: flags some but not all (paper: 4 of 5).
    assert 1 <= results["vt_flagged_at_capture"] <= results["downloads"]

    # The 11-day story.
    pdf = results["pdf_story"]
    assert pdf is not None
    assert pdf["day0"] == 0    # 0/56 at capture
    assert pdf["day11"] >= 3   # 3/56 after 11 days

    save_artifact("case_study1",
                  case_study1.report(BENCH_SEED, BENCH_SCALE))
