"""The parallel runner and result cache: determinism (parallel == serial
metric-for-metric), cache round-trips, keying, and invalidation."""

import json

import pytest

from repro.errors import HarnessError
from repro.harness import experiments
from repro.harness.costmodel import CostModel
from repro.harness.parallel import (
    Job,
    ParallelRunner,
    execute_job,
    fingerprint,
    job_key,
    result_from_dict,
    result_to_dict,
)
from repro.harness.report import suite_to_dict
from repro.harness.resultcache import ResultCache

#: A fast two-benchmark configuration (canneal included so cached race
#: reports get exercised).
SUITE = dict(threads=2, scale=0.05, quantum=100, seed=3,
             benchmarks=["blackscholes", "canneal"])


class TestJob:
    def test_rejects_unknown_mode(self):
        with pytest.raises(HarnessError, match="unknown mode"):
            Job("vips", "valgrind")

    def test_canonical_is_json_serializable(self):
        job = Job("vips", "aikido-fasttrack", threads=4, scale=0.5)
        json.dumps(job.canonical())

    def test_key_depends_on_every_field(self):
        base = Job("vips", "native", threads=2, scale=0.1, seed=1,
                   quantum=100)
        fp = fingerprint()
        variants = [
            Job("x264", "native", threads=2, scale=0.1, seed=1, quantum=100),
            Job("vips", "fasttrack", threads=2, scale=0.1, seed=1,
                quantum=100),
            Job("vips", "native", threads=4, scale=0.1, seed=1, quantum=100),
            Job("vips", "native", threads=2, scale=0.2, seed=1, quantum=100),
            Job("vips", "native", threads=2, scale=0.1, seed=2, quantum=100),
            Job("vips", "native", threads=2, scale=0.1, seed=1, quantum=150),
        ]
        keys = {job_key(v, fp) for v in variants}
        assert job_key(base, fp) not in keys
        assert len(keys) == len(variants)

    def test_cost_model_changes_fingerprint(self):
        before = fingerprint()
        with CostModel(VMEXIT=123_456):
            assert fingerprint() != before
        assert fingerprint() == before


class TestResultRoundTrip:
    def test_run_result_survives_serialization(self):
        job = Job("canneal", "fasttrack", threads=2, scale=0.05, seed=2,
                  quantum=100)
        live = execute_job(job)
        replayed = result_from_dict(
            json.loads(json.dumps(result_to_dict(live))))
        assert replayed.cycles == live.cycles
        assert replayed.run_stats == live.run_stats
        assert replayed.cycle_breakdown == live.cycle_breakdown
        assert replayed.detector_profile == live.detector_profile
        assert len(replayed.races) == len(live.races)
        assert [r.describe() for r in replayed.races] \
            == [r.describe() for r in live.races]
        # summary() must keep working on a replayed result
        assert "races" in replayed.summary()
        # An archive written while runs could carry a static-elision
        # payload still loads; re-serialising it drops the key.
        archived = dict(result_to_dict(live), elision={
            "plan": {}, "checks_elided": 3, "fast_path_instructions": 9,
            "retired_uids": [1]})
        loaded = result_from_dict(json.loads(json.dumps(archived)))
        assert result_to_dict(loaded) == result_to_dict(live)
        assert "elision" not in result_to_dict(loaded)


class TestDeterminism:
    def test_parallel_suite_matches_serial_metric_for_metric(self):
        serial = experiments.run_suite(**SUITE)  # ParallelRunner(1)
        parallel = experiments.run_suite(runner=ParallelRunner(2), **SUITE)
        assert suite_to_dict(serial) == suite_to_dict(parallel)

    def test_jobs_zero_means_auto(self):
        runner = ParallelRunner(jobs=0)
        assert runner.jobs >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(HarnessError, match="jobs"):
            ParallelRunner(jobs=-2)


class TestResultCache:
    def test_warm_rerun_performs_zero_simulations(self, tmp_path):
        cold = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        first = experiments.run_suite(runner=cold, **SUITE)
        assert cold.simulations == 6
        assert cold.cache_hits == 0

        warm = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        second = experiments.run_suite(runner=warm, **SUITE)
        assert warm.simulations == 0
        assert warm.cache_hits == 6
        assert suite_to_dict(first) == suite_to_dict(second)

    def test_serial_runner_also_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        job = Job("blackscholes", "native", threads=2, scale=0.05,
                  seed=2, quantum=100)
        runner.run_one(job)
        assert runner.simulations == 1
        assert len(cache) == 1
        again = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        again.run_one(job)
        assert again.simulations == 0 and again.cache_hits == 1

    def test_cost_model_override_invalidates_cache(self, tmp_path):
        job = Job("blackscholes", "native", threads=2, scale=0.05,
                  seed=2, quantum=100)
        ParallelRunner(jobs=1, cache=ResultCache(tmp_path)).run_one(job)
        with CostModel(VMEXIT=123_456):
            runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
            runner.run_one(job)
            assert runner.cache_hits == 0 and runner.simulations == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job("blackscholes", "native", threads=2, scale=0.05,
                  seed=2, quantum=100)
        ParallelRunner(jobs=1, cache=cache).run_one(job)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{truncated")
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run_one(job)
        assert runner.simulations == 1  # re-simulated, not crashed

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run_one(Job("blackscholes", "native", threads=2,
                           scale=0.05, seed=2, quantum=100))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_table1_served_from_cache(self, tmp_path):
        kwargs = dict(scale=0.05, seed=2, quantum=100)
        cold = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        first = experiments.table1(runner=cold, **kwargs)
        assert cold.simulations == 18
        warm = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        second = experiments.table1(runner=warm, **kwargs)
        assert warm.simulations == 0 and warm.cache_hits == 18
        assert first == second
