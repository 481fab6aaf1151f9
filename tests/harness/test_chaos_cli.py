"""``aikido-repro chaos``: the grid verb's report, resume and exit codes.

The contracts:

* ``--json`` is byte-identical for ``--jobs 1``, ``--jobs 2`` and a run
  SIGKILLed (process group, pool workers included) and rerun with
  ``--journal --resume``;
* a ``--resume`` rerun simulates zero journaled jobs, also when the
  journaled run had already finished;
* a sweep served from the result cache writes the same ``--json`` as a
  simulated one, and a failed cell stays in it with its failure record;
* exit 3 when a schedule-neutral cell failed or its races differ from
  the chaos-free baseline, 2 on a harness or workload error.
"""

import copy
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import cli, experiments
from repro.harness.experiments import ChaosCell, ChaosSweep
from repro.harness.journal import RunJournal
from repro.harness.parallel import (CachedRace, Job, JobFailure,
                                    ParallelRunner)

SRC = Path(__file__).resolve().parents[2] / "src"

#: One benchmark, three recovery seeds plus the hostile plan: five jobs,
#: each long enough that a kill lands mid-sweep.
GRID = ["chaos", "--chaos", "--benchmark", "canneal", "--threads", "2",
        "--scale", "5", "--quantum", "100", "--no-cache"]
GRID_JOBS = 5

SMALL = ["chaos", "--benchmark", "canneal", "--threads", "2", "--scale",
         "0.05", "--quantum", "100", "--no-cache"]
CACHED = [arg for arg in SMALL if arg != "--no-cache"]


def wait_for(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def footer(stderr: str) -> str:
    return stderr.strip().splitlines()[-1]


def stats(stderr: str):
    """(simulated, replayed from journal) from a run's footer line."""
    footer = stderr.strip().splitlines()[-1]
    simulated = int(re.search(r"(\d+) simulated", footer).group(1))
    replayed = re.search(r"(\d+) replayed from journal", footer)
    return simulated, int(replayed.group(1)) if replayed else 0


def _env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class TestKillAndResume:
    def test_sigkill_then_resume(self, tmp_path, capsys):
        """Kill the sweep (and its pool) after its first journaled job,
        then resume: no journaled job is simulated again, and the report
        matches an uninterrupted serial run byte for byte."""
        journal = tmp_path / "chaos.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", *GRID,
             "--jobs", "2", "--journal", str(journal),
             "--json", str(tmp_path / "killed.json")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(), start_new_session=True)
        try:
            wait_for(lambda: journal.exists() and journal.stat().st_size,
                     message="the first journaled job")
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        journaled = len(RunJournal(journal, resume=True))
        assert journaled >= 1

        resumed = tmp_path / "resumed.json"
        assert cli.main([*GRID, "--jobs", "2", "--journal", str(journal),
                         "--resume", "--json", str(resumed)]) == 0
        simulated, replayed = stats(capsys.readouterr().err)
        assert replayed == journaled
        assert simulated == GRID_JOBS - journaled

        reference = tmp_path / "reference.json"
        assert cli.main([*GRID, "--jobs", "1", "--json",
                         str(reference)]) == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_resume_of_finished_sweep_simulates_nothing(self, tmp_path,
                                                        capsys):
        journal = str(tmp_path / "chaos.jsonl")
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        base = [*SMALL, "--jobs", "1", "--journal", journal]
        assert cli.main(base + ["--json", str(first)]) == 0
        capsys.readouterr()
        assert cli.main(base + ["--resume", "--json", str(again)]) == 0
        assert stats(capsys.readouterr().err) == (0, 4)
        assert first.read_bytes() == again.read_bytes()


class TestReport:
    def test_jobs_1_and_2_write_identical_json(self, tmp_path):
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        base = [*SMALL, "--chaos"]
        assert cli.main(base + ["--jobs", "1", "--json", str(serial)]) == 0
        assert cli.main(base + ["--jobs", "2", "--json", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_cache_served_sweep_writes_identical_json(self, tmp_path,
                                                      capsys):
        """A sweep served from the result cache reports exactly like a
        simulated one, and like a run that never touched the cache."""
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        fresh = tmp_path / "fresh.json"
        assert cli.main(CACHED + ["--json", str(cold)]) == 0
        capsys.readouterr()
        assert cli.main(CACHED + ["--json", str(warm)]) == 0
        assert "0 simulated, 4 served from cache" in footer(
            capsys.readouterr().err)
        assert cli.main(SMALL + ["--json", str(fresh)]) == 0
        assert cold.read_bytes() == warm.read_bytes() == fresh.read_bytes()

    def test_failed_cell_is_a_failure_entry_in_json(self, monkeypatch,
                                                    tmp_path):
        """A failed cell stays in the archive with its error record."""
        failure = JobFailure(job=Job("canneal", "aikido-fasttrack"),
                             kind="simulated",
                             error_type="SegmentationFaultError",
                             message="thread 1 touched unmapped memory")
        monkeypatch.setattr(experiments, "chaos_sweep",
                            lambda **kwargs: _sweep_with(failure))
        archive = tmp_path / "chaos.json"
        assert cli.main(SMALL + ["--json", str(archive)]) == 3
        (cell,) = json.loads(archive.read_text())["cells"]
        assert cell["survived"] is False
        assert cell["races_match"] is False
        assert cell["failure"]["kind"] == "simulated"
        assert cell["failure"]["error_type"] == "SegmentationFaultError"
        assert "races" not in cell


def _sweep_with(run, *, schedule_neutral=True):
    """A one-cell sweep whose cell ran as ``run`` (next to a real
    chaos-free baseline)."""
    job = Job("canneal", "aikido-fasttrack", threads=2, scale=0.05,
              quantum=100)
    baseline = ParallelRunner(1).run([job])[0]
    if run == "extra-race":
        run = copy.copy(baseline)
        run.races = [*baseline.races, CachedRace("planted race")]
    sweep = ChaosSweep(threads=2, scale=0.05, seed=1, intensity=0.05)
    sweep.cells.append(ChaosCell(
        benchmark="canneal",
        plan="recovery" if schedule_neutral else "hostile",
        chaos_seed=11, schedule_neutral=schedule_neutral,
        baseline=baseline, run=run))
    return sweep


class TestExitCodes:
    def _exit_code(self, monkeypatch, sweep):
        monkeypatch.setattr(experiments, "chaos_sweep",
                            lambda **kwargs: sweep)
        return cli.main(SMALL)

    def test_failed_recovery_cell_exits_3(self, monkeypatch, capsys):
        failure = JobFailure(job=Job("canneal", "aikido-fasttrack"),
                             kind="simulated",
                             error_type="InvariantViolationError",
                             message="shadow table desync",
                             invariant="shadow_subset")
        assert self._exit_code(monkeypatch, _sweep_with(failure)) == 3
        captured = capsys.readouterr()
        assert "violation:shadow_subset" in captured.out
        assert "schedule-neutral chaos cell" in captured.err

    def test_race_changed_recovery_cell_exits_3(self, monkeypatch):
        assert self._exit_code(monkeypatch,
                               _sweep_with("extra-race")) == 3

    def test_race_changed_hostile_cell_exits_0(self, monkeypatch):
        """Hostile preemption may change races; only recovery cells
        carry the bit-identity guarantee."""
        sweep = _sweep_with("extra-race", schedule_neutral=False)
        assert self._exit_code(monkeypatch, sweep) == 0

    def test_chaos_resume_requires_journal(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["chaos", "--resume"])
        assert excinfo.value.code == 2  # argparse usage error

    def test_unknown_benchmark_exits_2(self, capsys):
        assert cli.main(["chaos", "--benchmark", "blackscholez",
                         "--no-cache"]) == 2
        assert "error:" in capsys.readouterr().err
