"""Integration tests for the experiment runners (reduced scale).

These assert the *shape* contract of each paper artifact — who wins, by
roughly what factor — on a small corpus so the suite stays fast.  The
full-scale regeneration lives in ``benchmarks/``.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments import (
    ablations,
    case_study1,
    evasion,
    fig10,
    figures,
    table1,
    table3,
    table4,
    table5,
    table6,
)
from repro.features.registry import FeatureGroup, spec_by_name

SEED = 7
SCALE = 0.12


@pytest.fixture(scope="module", autouse=True)
def _warm_cache():
    """Pre-build the shared corpus/features once for this module."""
    from repro.experiments.context import cached_features
    cached_features(SEED, SCALE)


class TestTable1:
    def test_rows_and_globals(self):
        results = table1.run(SEED, SCALE)
        assert len(results["rows"]) == 11
        assert results["callback_prevalence"] > 0.8
        assert results["global"].nodes_min >= 2

    def test_report_renders(self):
        text = table1.report(SEED, SCALE)
        assert "Table I" in text
        assert "Angler" in text


class TestFigures:
    def test_fig1_distribution(self):
        dist = figures.run_fig1(SEED, SCALE)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["google"] > dist["bing"] * 0.7

    def test_fig2_per_family(self):
        per_family = figures.run_fig2(SEED, SCALE)
        assert len(per_family) == 10

    def test_fig3_contrast(self):
        data = figures.run_fig3(SEED, SCALE)
        assert data["order"]["infection"] > data["order"]["benign"]

    def test_fig4_contrast(self):
        data = figures.run_fig4(SEED, SCALE)
        assert data["post"]["infection"] > data["post"]["benign"]

    def test_fig789_histograms(self):
        data = figures.run_fig7_8_9(SEED, SCALE)
        assert set(data) == set(figures.FIG789_FEATURES)

    def test_reports_render(self):
        assert "Fig. 1" in figures.report_fig1(SEED, SCALE)
        assert "Fig. 3" in figures.report_fig3(SEED, SCALE)
        assert "Fig. 4" in figures.report_fig4(SEED, SCALE)


class TestTable3:
    def test_ablation_ordering(self):
        results = table3.run(SEED, SCALE, k=5)
        assert set(results) == {"All", "GFs", "HLFs+HFs+TFs"}
        # The paper's headline ordering: all features beat either subset
        # on F-score (at this reduced test scale, allow a noise margin;
        # the bench asserts strictly at the full bench scale).
        assert results["All"]["f_score"] >= \
            results["GFs"]["f_score"] - 0.01
        assert results["All"]["f_score"] >= \
            results["HLFs+HFs+TFs"]["f_score"]
        assert results["All"]["tpr"] > 0.9
        assert results["All"]["fpr"] < 0.1


class TestTable4:
    def test_top20_graph_heavy(self):
        ranked = table4.run(SEED, SCALE, k=5, top=20)
        assert len(ranked) == 20
        # Paper: graph features are 15 of the top 20; require a majority.
        assert table4.graph_features_in_top(ranked) >= 10
        # Paper: 15 of the top 20 are novel features.
        assert table4.novel_features_in_top(ranked) >= 10

    def test_ranks_ascend(self):
        ranked = table4.run(SEED, SCALE, k=5, top=20)
        means = [r.rank_mean for r in ranked]
        assert means == sorted(means)


class TestFig10:
    def test_roc_high_auc(self):
        data = fig10.run(SEED, SCALE, k=5)
        assert data["auc"] > 0.95  # paper ROC area 0.978
        assert data["fpr"][0] == 0.0
        assert data["tpr"][-1] == 1.0


class TestTable5:
    def test_dynaminer_beats_virustotal(self):
        results = table5.run(SEED, SCALE)
        dm = results["dynaminer"]
        vt = results["virustotal"]
        assert dm["infection_rate"] > vt["infection_rate"]
        assert dm["infection_rate"] > 0.9   # paper: 97.38%
        assert vt["infection_rate"] < 0.95  # paper: 84.3%
        assert dm["benign_rate"] > 0.9      # paper: 98.1%

    def test_report_renders(self):
        assert "Table V" in table5.report(SEED, SCALE)


class TestCaseStudy1:
    def test_forensic_shape(self):
        results = case_study1.run(SEED, SCALE)
        assert results["detector"].transactions_seen == 3011
        # 5 infectious episodes; DynaMiner alerts on most of them.
        assert results["infectious_episodes"] == 5
        assert 3 <= len(results["alerts"]) <= 8
        # The content-borne PDF: clean at capture, flagged by day 11.
        assert results["pdf_story"]["day0"] == 0
        assert results["pdf_story"]["day11"] >= 3

    def test_forensic_numbers_ignore_the_hash_seed(self):
        """Sample ids once came from builtin ``hash()`` of strings, so
        which engines flagged the PDF — and ~1 run in 4 whether the
        shape above held — changed with the interpreter's hash salt."""
        script = (
            "from repro.experiments import case_study1\n"
            f"r = case_study1.run({SEED}, {SCALE})\n"
            "print(sorted(d.sha256 for d in r['session'].downloads),"
            " r['pdf_story'], r['vt_flagged_at_capture'],"
            " len(r['alerts']))\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1
        assert "'day0': 0" in outputs.pop()


class TestTable6:
    def test_live_shape(self):
        results = table6.run(SEED, SCALE)
        alerts = results["per_host_alerts"]
        # Table VI: 4 / 3 / 1 alerts; windows strictly the most.
        assert alerts["win-host"] >= alerts["macos-host"]
        assert results["total_alerts"] >= 5
        assert results["content_pdf_flagged_by_vt"] >= 1


class TestEvasion:
    def test_ordering(self):
        results = evasion.run(SEED, SCALE, episodes_per_mode=24)
        scores = {m: v["mean_score"] for m, v in results.items()}
        assert scores["baseline"] >= scores["full-stealth"]
        assert scores["full-stealth"] == min(scores.values())

    def test_all_modes_present(self):
        assert set(evasion.EVASION_MODES) == {
            "baseline", "cloaked-redirects", "no-post-download",
            "compressed-payload", "full-stealth",
        }


class TestAblations:
    def test_voting(self):
        results = ablations.run_voting(SEED, SCALE, k=5)
        assert set(results) == {"average", "majority"}
        # Averaging should not lose to majority voting on F-score.
        assert results["average"]["f_score"] >= \
            results["majority"]["f_score"] - 0.02

    def test_threshold_sweep_monotone_work(self):
        results = ablations.run_threshold_sweep(SEED, SCALE,
                                                thresholds=(1, 3, 8))
        # Lower thresholds cannot classify less than higher ones.
        assert results[1]["classifications"] >= \
            results[8]["classifications"]

    def test_whitelist_reduces_work(self):
        results = ablations.run_whitelist(SEED, SCALE)
        assert results["on"]["weeded"] > 0
        assert results["off"]["weeded"] == 0


class TestOperatingPoints:
    def test_monotone_tradeoff(self):
        points = fig10.operating_points(SEED, SCALE)
        thresholds = sorted(points)
        tprs = [points[t]["tpr"] for t in thresholds]
        fprs = [points[t]["fpr"] for t in thresholds]
        # Raising the threshold never raises TPR or FPR.
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))

    def test_bounds(self):
        for point in fig10.operating_points(SEED, SCALE).values():
            assert 0.0 <= point["tpr"] <= 1.0
            assert 0.0 <= point["fpr"] <= 1.0
