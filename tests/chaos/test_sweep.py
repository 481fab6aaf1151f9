"""The chaos-sweep experiment and its survivability report."""

import json

import pytest

from repro.harness import experiments
from repro.harness.parallel import ParallelRunner
from repro.harness.report import render_chaos


@pytest.fixture(scope="module")
def sweep():
    return experiments.chaos_sweep(
        threads=2, scale=0.25, seed=3, quantum=100,
        benchmarks=["canneal"], chaos_seeds=(11,), intensity=0.25,
        include_hostile=True, runner=ParallelRunner(jobs=1))


def test_sweep_shape(sweep):
    # One benchmark, one chaos seed, hostile included -> 2 cells.
    assert len(sweep.cells) == 2
    plans = {(cell.plan, cell.schedule_neutral) for cell in sweep.cells}
    assert plans == {("recovery", True), ("hostile", False)}
    for cell in sweep.cells:
        assert cell.benchmark == "canneal"
        assert cell.chaos_seed == 11
        assert cell.survived
        assert cell.injected > 0
        assert cell.recovered == cell.injected
        assert cell.invariant_checks > 0


def test_recovery_cells_are_clean(sweep):
    assert sweep.all_recovery_cells_clean()
    recovery = [c for c in sweep.cells if c.plan == "recovery"]
    assert recovery and all(c.races_match for c in recovery)
    assert sweep.delivered == sum(c.injected for c in sweep.cells)
    assert sweep.recovered == sweep.delivered


def test_to_dict_is_json_safe(sweep):
    payload = sweep.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["threads"] == 2
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        assert cell["survived"] and "failure" not in cell


def test_render_chaos_accepts_object_and_dict(sweep):
    from_object = render_chaos(sweep)
    from_dict = render_chaos(sweep.to_dict())
    assert from_object == from_dict
    assert "canneal" in from_object
    assert "recovery" in from_object and "hostile" in from_object
    assert "survived" in from_object


def test_unknown_benchmark_rejected():
    from repro.errors import WorkloadError
    with pytest.raises(WorkloadError):
        experiments.chaos_sweep(
            threads=2, scale=0.25, benchmarks=["no-such-benchmark"],
            chaos_seeds=(11,), runner=ParallelRunner(jobs=1))


def test_unknown_benchmark_rejected_before_any_job():
    from repro.errors import WorkloadError
    runner = ParallelRunner(jobs=1)
    with pytest.raises(WorkloadError, match="unknown benchmark"):
        experiments.chaos_sweep(
            threads=2, scale=0.05, benchmarks=["canneal", "blackscholez"],
            chaos_seeds=(11,), runner=runner)
    assert runner.simulations == 0


def test_report_is_independent_of_pool_width():
    def report(jobs):
        return experiments.chaos_sweep(
            threads=2, scale=0.05, seed=3, quantum=100,
            benchmarks=["canneal", "blackscholes"], chaos_seeds=(11,),
            runner=ParallelRunner(jobs=jobs))

    serial, pooled = report(1), report(2)
    assert serial.to_dict() == pooled.to_dict()
    assert len(serial.cells) == 2
    assert serial.all_recovery_cells_clean()
