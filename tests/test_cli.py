"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.cli import EXPERIMENTS, main
from tests.learning.model_payloads import MALFORMED_EDITS, malformed_model
from tests.net.test_pcapng import MALFORMED_CAPTURES


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "table5" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert main(["run", "fig1", "--scale", "0.05", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "nonexistent"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_complete(self):
        expected = {"table1", "fig1", "fig2", "fig3", "fig4", "table3", "table4",
                    "fig10", "table5", "cs1", "table6", "evasion", "baselines", "families",
                    "ablation-voting", "ablation-forest"}
        assert expected == set(EXPERIMENTS)


class TestToolWorkflow:
    """train -> synth -> detect, the deployment path."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "model.json")
        assert main(["train", "--out", path, "--scale", "0.05",
                     "--seed", "11"]) == 0
        return path

    def test_train_writes_model(self, model_path):
        import json
        with open(model_path) as handle:
            payload = json.load(handle)
        assert payload["model"] == "EnsembleRandomForest"
        assert len(payload["trees"]) == 20

    def test_synth_benign(self, tmp_path, capsys):
        pcap = str(tmp_path / "b.pcap")
        assert main(["synth", pcap, "--kind", "benign", "--seed", "3"]) == 0
        assert "benign" in capsys.readouterr().out

    def test_synth_unknown_family(self, tmp_path, capsys):
        pcap = str(tmp_path / "x.pcap")
        assert main(["synth", pcap, "--kind", "NotAKit"]) == 2

    def test_detect_infection_pcap(self, model_path, tmp_path, capsys):
        pcap = str(tmp_path / "angler.pcap")
        assert main(["synth", pcap, "--kind", "Angler", "--seed", "5"]) == 0
        code = main(["detect", pcap, "--model", model_path,
                     "--threshold", "0.5"])
        out = capsys.readouterr().out
        assert code == 1  # alert raised -> nonzero exit
        assert "ALERT" in out

    def test_detect_benign_pcap(self, model_path, tmp_path, capsys):
        pcap = str(tmp_path / "benign.pcap")
        assert main(["synth", pcap, "--kind", "benign", "--seed", "9"]) == 0
        code = main(["detect", pcap, "--model", model_path])
        assert code == 0
        assert "0 alert(s)" in capsys.readouterr().out

    def test_detect_workers_matches_single_process(self, model_path,
                                                   tmp_path, capsys):
        """``detect --workers 2`` runs the sharded daemon and must
        print the identical alert lines and summary counts the
        single-process path prints (the CLI face of the parity
        contract)."""
        pcap = str(tmp_path / "angler2.pcap")
        assert main(["synth", pcap, "--kind", "Angler", "--seed", "7"]) == 0
        capsys.readouterr()  # drop the synth line
        single_code = main(["detect", pcap, "--model", model_path,
                            "--threshold", "0.5"])
        single_out = capsys.readouterr().out
        sharded_code = main(["detect", pcap, "--model", model_path,
                             "--threshold", "0.5", "--workers", "2"])
        sharded_out = capsys.readouterr().out
        assert sharded_code == single_code == 1
        assert sharded_out == single_out
        assert "ALERT" in sharded_out


@pytest.fixture(scope="module")
def cli_model(tmp_path_factory):
    """One trained model JSON shared by the error/metrics tests."""
    path = str(tmp_path_factory.mktemp("cli-model") / "model.json")
    assert main(["train", "--out", path, "--scale", "0.05",
                 "--seed", "11"]) == 0
    return path


class TestCliErrors:
    """Actionable errors, not tracebacks, for operator mistakes."""

    def _pcap(self, tmp_path):
        pcap = str(tmp_path / "b.pcap")
        assert main(["synth", pcap, "--kind", "benign", "--seed", "3"]) == 0
        return pcap

    def test_detect_missing_model(self, tmp_path, capsys):
        pcap = self._pcap(tmp_path)
        missing = str(tmp_path / "nope.json")
        assert main(["detect", pcap, "--model", missing]) == 2
        err = capsys.readouterr().err
        assert "model file not found" in err
        assert "Traceback" not in err

    def test_detect_corrupt_model(self, tmp_path, capsys):
        pcap = self._pcap(tmp_path)
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json at all")
        assert main(["detect", pcap, "--model", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err
        assert "Traceback" not in err

    def test_detect_wrong_payload_model(self, tmp_path, capsys):
        pcap = self._pcap(tmp_path)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"model": "SomethingElse"}')
        assert main(["detect", pcap, "--model", str(wrong)]) == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_detect_format_v1_model_says_how_to_fix(self, tmp_path, capsys):
        pcap = self._pcap(tmp_path)
        old = tmp_path / "v1.json"
        old.write_text(
            '{"model": "EnsembleRandomForest", "format_version": 1}'
        )
        assert main(["detect", pcap, "--model", str(old)]) == 2
        err = capsys.readouterr().err
        assert "unsupported model format version: 1" in err
        assert "dynaminer train" in err

    @pytest.mark.parametrize("defect", sorted(MALFORMED_EDITS))
    def test_detect_malformed_model(self, defect, tmp_path, capsys):
        """A model file that is JSON but not a forest (a child cycle, a
        child or feature index out of range, ...) is one ERROR line and
        exit 2 — it used to hang, traceback, or load and raise later."""
        pcap = self._pcap(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malformed_model(defect)))
        started = time.perf_counter()
        assert main(["detect", pcap, "--model", str(bad)]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot load model" in err
        assert "Traceback" not in err

    def test_detect_with_an_unknown_trace_sample_env(self, cli_model,
                                                     tmp_path):
        """``REPRO_TRACE_SAMPLE`` is read at import, so only a fresh
        process sees it: one ``repro.cli`` error line and exit 2."""
        pcap = self._pcap(tmp_path)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "detect", pcap,
             "--model", cli_model],
            env={**os.environ, "PYTHONPATH": str(src), "REPRO_TRACE": "1",
                 "REPRO_TRACE_SAMPLE": "bogus"},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "repro.cli" in lines[0]
        assert "unknown trace sampling mode 'bogus'" in lines[0]
        assert result.stdout == ""

    def test_detect_missing_capture(self, cli_model, tmp_path, capsys):
        assert main(["detect", str(tmp_path / "missing.pcap"),
                     "--model", cli_model]) == 2
        assert "capture file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(MALFORMED_CAPTURES))
    def test_detect_malformed_capture(self, defect, cli_model, tmp_path,
                                      capsys):
        bad = tmp_path / "bad.pcapng"
        bad.write_bytes(MALFORMED_CAPTURES[defect][0])
        assert main(["detect", str(bad), "--model", cli_model]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "ERROR" in line or "Traceback" in line]
        assert len(errors) == 1 and "cannot read capture" in errors[0]

    def test_train_unwritable_out(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "dir" / "model.json")
        assert main(["train", "--out", out, "--scale", "0.05",
                     "--seed", "11"]) == 2
        assert "cannot write model" in capsys.readouterr().err


class TestCliTracing:
    def _traced_detect(self, cli_model, tmp_path, extra=()):
        from repro.obs import get_registry

        pcap = str(tmp_path / "angler.pcap")
        trace = str(tmp_path / "trace.jsonl")
        assert main(["synth", pcap, "--kind", "Angler", "--seed", "5"]) == 0
        previous = get_registry()
        code = main(["detect", pcap, "--model", cli_model,
                     "--threshold", "0.5", "--trace-out", trace, *extra])
        assert get_registry() is previous  # the flags select in scope
        assert code == 1  # the Angler capture alerts
        return trace

    def test_detect_trace_out_writes_jsonl(self, cli_model, tmp_path):
        from repro.obs import read_jsonl

        trace = self._traced_detect(cli_model, tmp_path)
        events = read_jsonl(trace)
        assert events
        kinds = {event["kind"] for event in events}
        assert {"watch", "clue", "score", "verdict"} <= kinds
        alerts = [e for e in events
                  if e["kind"] == "verdict"
                  and e["data"]["decision"] == "alert"]
        assert alerts and all("provenance" in a["data"] for a in alerts)

    def test_sharded_trace_matches_single_process(self, cli_model,
                                                  tmp_path):
        from repro.obs import read_jsonl

        def canon(path):
            events = read_jsonl(path)
            for event in events:
                event.pop("mono", None)
                event["data"].pop("latency_s", None)
                event["data"].pop("batch", None)
            return events

        # The workers trace with the sample mode the flags set.
        for sample in ("full", "alerts"):
            flags = ("--trace-sample", sample)
            single_dir = tmp_path / sample
            sharded_dir = single_dir / "sharded"
            sharded_dir.mkdir(parents=True)
            single = self._traced_detect(cli_model, single_dir, extra=flags)
            sharded = self._traced_detect(cli_model, sharded_dir,
                                          extra=(*flags, "--workers", "2"))
            assert canon(sharded) == canon(single)

    def test_explain_walks_alert_provenance(self, cli_model, tmp_path,
                                            capsys):
        trace = self._traced_detect(cli_model, tmp_path)
        capsys.readouterr()
        assert main(["explain", trace]) == 0
        out = capsys.readouterr().out
        assert "alert #0" in out
        assert "clue chain" in out
        assert "time to detection" in out
        assert "wcg at verdict" in out
        assert "forest vote" in out
        assert "top decision-path features" in out

    def test_explain_missing_file(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err
        assert "Traceback" not in err

    def test_explain_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["explain", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stats_summarizes_snapshots(self, cli_model, tmp_path, capsys):
        pcap = str(tmp_path / "angler.pcap")
        stats = str(tmp_path / "stats.jsonl")
        assert main(["synth", pcap, "--kind", "Angler", "--seed", "5"]) == 0
        assert main(["detect", pcap, "--model", cli_model,
                     "--threshold", "0.5", "--metrics",
                     "--stats-out", stats]) == 1
        capsys.readouterr()
        assert main(["stats", stats]) == 0
        out = capsys.readouterr().out
        assert "snapshot(s)" in out
        assert "decode.packets" in out
        assert "histograms:" in out
        # The table's memory, side by side: watches held, transactions
        # held in them, and how many arrived past the retirement
        # allowance.  The capture finished, so nothing is held.
        assert "  session.late_transactions: 0\n" in out
        assert "gauges (last snapshot):" in out
        assert "  session.active_watches: 0\n" in out
        assert "  session.retained_transactions: 0\n" in out

    def test_stats_handles_fleet_lines(self, tmp_path, capsys):
        import json

        stats = tmp_path / "fleet.jsonl"
        stats.write_text(json.dumps({"fleet": {
            "enabled": True, "shards": 2,
            "counters": {"decode.packets": 10},
            "gauges": {}, "histograms": {},
        }}) + "\n")
        assert main(["stats", str(stats)]) == 0
        assert "decode.packets: 10" in capsys.readouterr().out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "stats file not found" in capsys.readouterr().err


class TestCliMetrics:
    def test_detect_with_metrics_writes_snapshots(self, cli_model, tmp_path):
        from repro.obs import get_registry, read_jsonl

        pcap = str(tmp_path / "angler.pcap")
        stats = str(tmp_path / "stats.jsonl")
        assert main(["synth", pcap, "--kind", "Angler", "--seed", "5"]) == 0
        previous = get_registry()
        code = main(["detect", pcap, "--model", cli_model,
                     "--threshold", "0.5", "--metrics",
                     "--stats-out", stats])
        assert get_registry() is previous  # --metrics selects in scope
        assert code in (0, 1)
        snapshots = read_jsonl(stats)
        assert len(snapshots) >= 1
        final = snapshots[-1]
        assert final["reason"] == "finalize"
        assert final["counters"]["decode.packets"] > 0
        assert final["counters"]["http.transactions"] > 0
