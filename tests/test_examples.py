"""The examples run on the current API and print what they always did."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_angler_wcg_prints_the_three_stages():
    lines = _run("angler_wcg.py").splitlines()
    assert "WCG: 6 nodes, 35 edges, origin = 'empty'" in lines
    assert "pre-download  (redirection run-up): 4 edges" in lines
    assert "download      (exploit delivery): 17 edges" in lines
    assert "post-download (C&C call-backs): 14 edges" in lines


def test_pcap_roundtrip_recovers_the_episode(tmp_path):
    lines = _run("pcap_roundtrip.py", str(tmp_path / "rig.pcap")).splitlines()
    assert "   53 packets, 26589 bytes on disk" in lines
    assert ("   linktype=1, 13 transactions recovered (HTTP parsed from "
            "reassembled TCP streams)") in lines
    assert "   post-download dynamics: True" in lines
    assert "   ERF score = 1.000  ->  INFECTION" in lines
