"""End-to-end ``fleet run``: real pool workers, real SIGKILLs, real resume.

The contracts of the single campaign executor:

* ``--workers 2 --json`` is byte-identical to ``--workers 1``, also when
  a pool worker is SIGKILLed mid-campaign;
* a campaign SIGKILLed mid-run and rerun with ``--journal --resume``
  re-simulates zero journaled jobs, and its report is byte-identical to
  an uninterrupted one.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.journal import RunJournal

#: 3 benchmarks x 4 seeds, each job long enough that a kill lands
#: mid-campaign.
GRID = ["--benchmarks", "blackscholes,canneal,swaptions",
        "--seeds", "1,2,3,4", "--scale", "3"]


def wait_for(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def stats(stderr: str):
    """(simulated, replayed from journal) from a run's footer line."""
    footer = stderr.strip().splitlines()[-1]
    simulated = int(re.search(r"(\d+) simulated", footer).group(1))
    replayed = re.search(r"(\d+) replayed from journal", footer)
    return simulated, int(replayed.group(1)) if replayed else 0


class TestWorkerLoss:
    def test_sigkill_one_of_two_workers(self, tmp_path, monkeypatch):
        """The kill-worker diagnostic SIGKILLs its pool worker once; the
        runner recovers and the report matches an inline run."""
        flag = tmp_path / "kill.flag"
        monkeypatch.setenv("AIKIDO_CHAOS_KILL_FILE", str(flag))
        base = ["fleet", "run", "--benchmarks", "kill-worker,blackscholes",
                "--mode", "native", "--threads", "1", "--seeds", "2,3",
                "--no-cache"]
        pooled, inline = tmp_path / "pooled.json", tmp_path / "inline.json"
        assert cli_main(base + ["--workers", "2", "--json",
                                str(pooled)]) == 0
        assert flag.exists()  # a worker really died
        assert cli_main(base + ["--workers", "1", "--json",
                                str(inline)]) == 0
        assert pooled.read_bytes() == inline.read_bytes()


class TestCoordinatorLoss:
    def test_sigkill_coordinator_then_resume(self, tmp_path, capsys):
        """Kill the campaign process (and its pool) mid-run, then resume
        from the journal: no journaled job is simulated again."""
        journal = tmp_path / "grid.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "fleet", "run",
             *GRID, "--workers", "2", "--no-cache",
             "--journal", str(journal)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            wait_for(lambda: journal.exists() and journal.stat().st_size,
                     message="the first journaled job")
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        journaled = len(RunJournal(journal, resume=True))
        assert journaled >= 1

        resumed = tmp_path / "resumed.json"
        assert cli_main(["fleet", "run", *GRID, "--workers", "2",
                         "--no-cache", "--journal", str(journal),
                         "--resume", "--json", str(resumed)]) == 0
        simulated, replayed = stats(capsys.readouterr().err)
        assert replayed == journaled
        assert simulated == 12 - journaled

        reference = tmp_path / "reference.json"
        assert cli_main(["fleet", "run", *GRID, "--workers", "1",
                         "--no-cache", "--json", str(reference)]) == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_resume_completed_campaign_executes_nothing(self, tmp_path,
                                                        capsys):
        journal = str(tmp_path / "grid.jsonl")
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        base = ["fleet", "run", "--seeds", "4,5", "--no-cache",
                "--journal", journal]
        assert cli_main(base + ["--json", str(first)]) == 0
        capsys.readouterr()
        assert cli_main(base + ["--resume", "--json", str(again)]) == 0
        assert stats(capsys.readouterr().err) == (0, 2)
        assert first.read_bytes() == again.read_bytes()


class TestCliContract:
    def test_serial_and_fleet_reports_are_byte_identical(self, tmp_path):
        serial_json = tmp_path / "serial.json"
        fleet_json = tmp_path / "fleet.json"
        base = ["fleet", "run", "--benchmarks", "blackscholes,canneal",
                "--seeds", "1,2", "--chaos-seeds", "11", "--no-cache"]
        assert cli_main(base + ["--workers", "1", "--json",
                                str(serial_json)]) == 0
        assert cli_main(base + ["--workers", "2", "--json",
                                str(fleet_json)]) == 0
        assert serial_json.read_bytes() == fleet_json.read_bytes()

    def test_unit_failures_exit_3(self, capsys):
        code = cli_main(["fleet", "run", "--benchmarks", "segfault",
                         "--mode", "native", "--threads", "1", "--seeds",
                         "2", "--no-cache"])
        assert code == 3
        out = capsys.readouterr().out
        assert "1 unit failure(s)" in out
        assert "SegmentationFaultError" in out

    def test_invalid_campaign_exits_2(self, capsys):
        code = cli_main(["fleet", "run", "--benchmarks", "blackscholez"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fleet", "run", "--resume"])
        assert excinfo.value.code == 2  # argparse usage error
