"""Suite-grid campaigns: job expansion and the deterministic report."""

import pytest

from repro.errors import HarnessError, WorkloadError
from repro.fleet.campaign import CampaignSpec, campaign_report
from repro.harness.parallel import ParallelRunner
from repro.harness.resultcache import ResultCache

SUITE = CampaignSpec(benchmarks=("blackscholes",), seeds=(1, 2),
                     chaos_seeds=(None, 7))


class TestCampaignSpec:
    def test_suite_units_cross_product(self):
        jobs = SUITE.jobs()
        assert len(jobs) == 1 * 2 * 2  # benchmarks x seeds x chaos
        # Chaos-free cells carry config None; chaos cells a full config.
        configs = [job.config for job in jobs]
        assert configs.count(None) == 2
        assert sum(1 for c in configs if c is not None) == 2
        assert [job.seed for job in jobs] == [1, 1, 2, 2]

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            CampaignSpec(benchmarks=("blackscholez",))

    def test_rejects_empty_grid(self):
        with pytest.raises(HarnessError, match="at least one benchmark"):
            CampaignSpec(benchmarks=())


class TestReport:
    def test_cached_and_fresh_units_are_identical(self, tmp_path):
        """A cache-served job reports exactly like a simulated one."""
        spec = CampaignSpec(seeds=(1, 2))
        cache = ResultCache(tmp_path)
        cold = campaign_report(spec, ParallelRunner(1, cache))
        warm_runner = ParallelRunner(1, cache)
        warm = campaign_report(spec, warm_runner)
        assert warm_runner.cache_hits == 2
        assert warm_runner.simulations == 0
        assert cold == warm
        assert cold == campaign_report(spec, ParallelRunner(1))

    def test_report_is_deterministic(self):
        spec = CampaignSpec(seeds=(3,), chaos_seeds=(None, 11))
        first = campaign_report(spec, ParallelRunner(1))
        second = campaign_report(spec, ParallelRunner(2))
        assert first == second
        assert first["units"] == 2 and first["failures"] == 0
        assert [o["status"] for o in first["outcomes"]] == ["ok", "ok"]

    def test_failed_job_is_an_error_outcome(self):
        spec = CampaignSpec(benchmarks=("segfault", "blackscholes"),
                            mode="native", threads=1, seeds=(2,))
        report = campaign_report(spec, ParallelRunner(1))
        assert report["failures"] == 1
        failed, ok = report["outcomes"]
        assert failed["status"] == "error"
        assert failed["error_type"] == "SegmentationFaultError"
        assert failed["unit"] == "segfault/native"
        assert ok["status"] == "ok"
