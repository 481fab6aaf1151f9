"""Exit-code contract of ``scripts/perf_gate.py``.

The gate is fed synthetic perfbench output on stdin; nothing is
simulated.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[2] / "scripts" / "perf_gate.py"


def _line(rate=1e9, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 6, "failed": failed,
        "metrics": {"wall_s": {"value": 0.6, "unit": "s"},
                    "sim_instr_per_s": {"value": rate, "unit": "1/s"}}})


def _gate(stdin):
    return subprocess.run([sys.executable, str(GATE)], input=stdin,
                          capture_output=True, text=True,
                          timeout=60).returncode


def test_passing_run_exits_0():
    # The tables perfbench prints before its result line are skipped.
    assert _gate("table row\n(full result in x.json)\n" + _line() + "\n") == 0


def test_run_below_the_floor_exits_2():
    assert _gate(_line(rate=1.0)) == 2


@pytest.mark.parametrize("stdin", [
    _line(correct=False), _line(failed=1), "", "perfbench: set-up failed"],
    ids=["incorrect", "failed-samples", "empty", "not-json"])
def test_unusable_run_exits_1(stdin):
    assert _gate(stdin) == 1
