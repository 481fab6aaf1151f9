"""The crash-tolerant harness: failure isolation, timeouts, retries,
worker-death recovery, journaled resume, and degraded-cache operation.

The diagnostic workloads these tests drive live in
:mod:`repro.workloads.faulty`; they are registered by name (so pool
workers rebuild them like any benchmark) but hidden from the experiment
sweeps.
"""

import json
import warnings

import pytest

from repro.errors import (
    DeadlockError,
    HarnessError,
    SegmentationFaultError,
    SuiteFailureError,
)
from repro.harness import cli, experiments
from repro.harness.journal import RunJournal
from repro.harness.parallel import Job, JobFailure, ParallelRunner
from repro.harness.resultcache import ResultCache
from repro.harness.runner import RunResult, run_mode
from repro.workloads.faulty import build_deadlock, build_segfault
from repro.workloads.parsec import benchmark_names

_FAST = dict(threads=2, scale=0.05, seed=2, quantum=100)

GOOD = Job("blackscholes", "native", **_FAST)
GOOD2 = Job("canneal", "native", **_FAST)
DEADLOCK = Job("deadlock", "native", threads=2, seed=2, quantum=100)
SEGFAULT = Job("segfault", "native", threads=1, seed=2, quantum=100)
#: ~10s of simulation at scale 1.0 — only ever run under a timeout.
SPIN = Job("spin", "native", threads=1, scale=1.0, seed=2, quantum=100)
KILLER = Job("kill-worker", "native", threads=1, seed=2, quantum=100)


def test_diagnostics_hidden_from_sweeps():
    for name in ("deadlock", "segfault", "spin", "kill-worker"):
        assert name not in benchmark_names()


class TestSimulatedErrorsSurface:
    """run_mode raises the structured errors; the runner records them."""

    def test_deadlock_raises_directly(self):
        with pytest.raises(DeadlockError, match="lock cycle"):
            run_mode(build_deadlock(), "native", seed=2, quantum=100)

    def test_segfault_raises_with_structured_fields(self):
        with pytest.raises(SegmentationFaultError) as excinfo:
            run_mode(build_segfault(), "native", seed=2, quantum=100)
        assert excinfo.value.address == 0x18
        assert excinfo.value.thread_id is not None


class TestFailureIsolation:
    BATCH = [GOOD, DEADLOCK, SEGFAULT, GOOD2]

    def _check(self, results):
        ok_a, dead, segv, ok_b = results
        assert isinstance(ok_a, RunResult) and isinstance(ok_b, RunResult)
        assert isinstance(dead, JobFailure) and isinstance(segv, JobFailure)
        assert dead.kind == "simulated"
        assert dead.error_type == "DeadlockError"
        assert segv.kind == "simulated"
        assert segv.error_type == "SegmentationFaultError"
        assert segv.address == 0x18
        assert segv.thread_id is not None
        assert "addr=0x18" in segv.describe()

    def test_inline_batch_keeps_good_results(self):
        runner = ParallelRunner(jobs=1)
        self._check(runner.run(self.BATCH, strict=False))
        assert runner.simulations == 4

    def test_pool_batch_keeps_good_results(self):
        runner = ParallelRunner(jobs=2)
        self._check(runner.run(self.BATCH, strict=False))

    def test_simulated_failures_never_retry(self):
        runner = ParallelRunner(jobs=1, retries=3)
        results = runner.run([SEGFAULT], strict=False)
        assert results[0].attempts == 1
        assert runner.retries_performed == 0

    def test_strict_raises_with_everything_attached(self):
        runner = ParallelRunner(jobs=1)
        with pytest.raises(SuiteFailureError) as excinfo:
            runner.run(self.BATCH)  # strict defaults to True
        err = excinfo.value
        assert "2 of 4 jobs failed" in str(err)
        assert len(err.failures) == 2
        assert len(err.results) == 4
        self._check(err.results)


@pytest.mark.parametrize("knobs", [
    {"timeout": 0}, {"timeout": -1}, {"timeout": float("nan")},
    {"timeout": float("inf")}, {"retries": -1}],
    ids=["timeout=0", "timeout=-1", "timeout=nan", "timeout=inf",
         "retries=-1"])
def test_runner_rejects_out_of_range_knobs(knobs):
    with pytest.raises(HarnessError):
        ParallelRunner(jobs=1, **knobs)


class TestTimeouts:
    def test_inline_timeout_becomes_failure_record(self):
        runner = ParallelRunner(jobs=1, timeout=0.4)
        results = runner.run([SPIN, GOOD], strict=False)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "timeout"
        assert "0.4" in results[0].message
        assert isinstance(results[1], RunResult)
        assert runner.timeouts == 1

    def test_pool_timeout_becomes_failure_record(self):
        runner = ParallelRunner(jobs=2, timeout=0.4)
        results = runner.run([SPIN, GOOD], strict=False)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "timeout"
        assert isinstance(results[1], RunResult)

    def test_timeouts_are_retried_with_budget(self):
        runner = ParallelRunner(jobs=1, timeout=0.3, retries=1)
        results = runner.run([SPIN], strict=False)
        assert isinstance(results[0], JobFailure)
        assert results[0].attempts == 2
        assert runner.retries_performed == 1
        assert runner.timeouts == 2


class TestWorkerDeathRecovery:
    def test_killed_worker_batch_still_completes(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("AIKIDO_CHAOS_KILL_FILE",
                           str(tmp_path / "kill.flag"))
        runner = ParallelRunner(jobs=2, retries=1)
        results = runner.run([KILLER, GOOD, GOOD2], strict=False)
        assert all(isinstance(r, RunResult) for r in results)
        assert runner.pool_recoveries >= 1
        assert (tmp_path / "kill.flag").exists()  # it really died once

    def test_no_retry_budget_falls_back_inline(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("AIKIDO_CHAOS_KILL_FILE",
                           str(tmp_path / "kill.flag"))
        runner = ParallelRunner(jobs=2, retries=0)
        results = runner.run([KILLER, GOOD], strict=False)
        assert all(isinstance(r, RunResult) for r in results)
        # The casualty ran inline in the suite process (where the
        # kill-worker workload is inert by design).
        assert runner.inline_fallbacks >= 1


class TestJournalResume:
    BATCH = [GOOD, GOOD2, Job("swaptions", "native", **_FAST)]

    def test_resume_performs_zero_simulations(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        first = ParallelRunner(jobs=1, journal=RunJournal(path))
        before = first.run(self.BATCH)
        assert first.simulations == 3

        resumed = ParallelRunner(
            jobs=1, journal=RunJournal(path, resume=True))
        after = resumed.run(self.BATCH)
        assert resumed.simulations == 0
        assert resumed.journal_hits == 3
        assert [r.cycles for r in after] == [r.cycles for r in before]

    def test_journal_beats_cache_in_lookup_order(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(jobs=1, cache=cache,
                       journal=RunJournal(path)).run([GOOD])
        resumed = ParallelRunner(jobs=1, cache=cache,
                                 journal=RunJournal(path, resume=True))
        resumed.run([GOOD])
        assert resumed.journal_hits == 1 and resumed.cache_hits == 0

    def test_cache_hits_backfill_the_journal(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(jobs=1, cache=cache).run(self.BATCH)
        path = tmp_path / "suite.jsonl"
        warm = ParallelRunner(jobs=1, cache=cache,
                              journal=RunJournal(path))
        warm.run(self.BATCH)
        assert warm.cache_hits == 3 and warm.simulations == 0
        # Resumed without the cache, every job replays from the journal.
        resumed = ParallelRunner(jobs=1,
                                 journal=RunJournal(path, resume=True))
        resumed.run(self.BATCH)
        assert resumed.journal_hits == 3
        assert resumed.simulations == 0

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        ParallelRunner(jobs=1, journal=RunJournal(path)).run(self.BATCH)
        with open(path, "a") as handle:
            handle.write('{"key": "half-written entr')  # crash mid-write
        journal = RunJournal(path, resume=True)
        assert journal.replayed == 3
        assert journal.dropped_lines == 1
        resumed = ParallelRunner(jobs=1, journal=journal)
        resumed.run(self.BATCH)
        assert resumed.simulations == 0

    def test_fresh_journal_truncates_stale_content(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text(json.dumps({"key": "stale", "payload": {}}) + "\n")
        journal = RunJournal(path)  # resume=False
        assert len(journal) == 0
        assert journal.get("stale") is None


class TestDegradedCache:
    def test_unwritable_cache_warns_once_and_continues(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir's parent should be")
        cache = ResultCache(blocker / "cache")  # every mkdir will fail
        runner = ParallelRunner(jobs=1, cache=cache)
        with pytest.warns(RuntimeWarning, match="result cache"):
            results = runner.run([GOOD, GOOD2], strict=False)
        assert all(isinstance(r, RunResult) for r in results)
        assert cache.put_errors == 2  # counted per put, warned once
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            runner.run([Job("swaptions", "native", **_FAST)], strict=False)
        assert cache.put_errors == 3


class TestCliExitCodes:
    def test_suite_failure_exits_3(self, monkeypatch, capsys):
        def boom(**kwargs):
            failure = JobFailure(job=SEGFAULT, kind="simulated",
                                 error_type="SegmentationFaultError",
                                 message="unhandled fault at 0x18",
                                 address=0x18, thread_id=2)
            raise SuiteFailureError("1 of 6 jobs failed",
                                    failures=[failure], results=[failure])

        monkeypatch.setattr(experiments, "run_suite", boom)
        assert cli.main(["fig5"]) == 3
        err = capsys.readouterr().err
        assert "segfault/native" in err and "addr=0x18" in err

    def test_harness_error_exits_2(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise HarnessError("no such artifact input")

        monkeypatch.setattr(experiments, "run_suite", boom)
        assert cli.main(["fig5"]) == 2
        assert "no such artifact input" in capsys.readouterr().err

    def test_fuzz_zero_timeout_exits_2(self, capsys):
        assert cli.main(["fuzz", "--count", "1", "--quick", "--jobs", "1",
                         "--no-cache", "--timeout", "0"]) == 2
        assert "timeout must be a positive" in capsys.readouterr().err

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig5", "--resume"])
        assert excinfo.value.code == 2  # argparse usage error
