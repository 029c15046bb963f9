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
