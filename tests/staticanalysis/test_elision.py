"""Elision-plan construction, the analysis cache, and plan coverage on
the bundled workloads."""

import pytest

from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.staticanalysis.analysiscache import (
    analysis_for,
    cache_info,
    clear_cache,
    program_fingerprint,
)
from repro.staticanalysis.elision import (
    TIER_LOCKED,
    TIER_PRIVATE,
    ElisionPlan,
)
from repro.workloads.parsec import benchmark_names, build_benchmark


def _uid_of(program, opname, nth=0):
    found = [i for i in program.iter_instructions() if i.op.name == opname]
    return found[nth].uid


def _mixed_program():
    """Per-thread private stores + lock-protected shared counter +
    an unsynchronized shared flag."""
    b = ProgramBuilder("mixed")
    priv = b.segment("priv", PAGE_SIZE * 4)
    counter = b.segment("counter", PAGE_SIZE)
    flag = b.segment("flag", PAGE_SIZE)
    b.label("main")
    b.li(3, 1)
    b.spawn(5, "child", arg_reg=3)
    b.li(3, 2)
    b.spawn(6, "child", arg_reg=3)
    b.join(5)
    b.join(6)
    b.halt()
    b.label("child")
    b.li(4, PAGE_SIZE)
    b.mul(2, 1, 4)
    b.add(2, 2, imm=priv)
    b.store(7, base=2, disp=8)              # private tier
    b.lock(1)
    b.load(8, base=None, disp=counter)      # locked tier
    b.add(8, 8, imm=1)
    b.store(8, base=None, disp=counter)     # locked tier
    b.unlock(1)
    b.store(9, base=None, disp=flag)        # racy: never elidable
    b.halt()
    return b.build()


class TestPlanConstruction:
    def test_tiers(self):
        program = _mixed_program()
        plan = analysis_for(program).elision
        private_store = _uid_of(program, "STORE", 0)
        locked_store = _uid_of(program, "STORE", 1)
        locked_load = _uid_of(program, "LOAD", 0)
        flag_store = _uid_of(program, "STORE", 2)
        assert plan.tier(private_store) == TIER_PRIVATE
        assert plan.tier(locked_store) == TIER_LOCKED
        assert plan.tier(locked_load) == TIER_LOCKED
        assert flag_store not in plan
        assert len(plan) == 3

    def test_counts_coverage_and_render(self):
        plan = analysis_for(_mixed_program()).elision
        counts = plan.counts()
        assert counts == {"private": 1, "locked": 2}
        assert 0.0 < plan.coverage <= 1.0
        d = plan.as_dict()
        assert d["elidable"] == 3
        assert d["memory_instructions"] == 4
        assert "elidable" in plan.render()

    def test_incomplete_analysis_yields_empty_plan(self):
        plan = ElisionPlan("p", incomplete_reason="races incomplete")
        assert len(plan) == 0
        assert "EMPTY" in plan.render()


class TestAnalysisCache:
    def test_fingerprint_is_stable_and_content_sensitive(self):
        a = _mixed_program()
        b = _mixed_program()
        assert program_fingerprint(a) == program_fingerprint(b)
        c = ProgramBuilder("other")
        c.label("main")
        c.li(1, 1)
        c.halt()
        assert program_fingerprint(c.build()) != program_fingerprint(a)

    def test_identical_programs_share_one_entry(self):
        clear_cache()
        first = analysis_for(_mixed_program())
        second = analysis_for(_mixed_program())
        assert first is second
        assert cache_info()["entries"] == 1

    def test_all_products_memoized_on_one_entry(self):
        clear_cache()
        analysis = analysis_for(_mixed_program())
        assert analysis.cfg is analysis.cfg
        assert analysis.sharing is analysis.sharing
        assert analysis.locksets is analysis.locksets
        assert analysis.races is analysis.races
        assert analysis.elision is analysis.elision


BENCHES = tuple(benchmark_names())


class TestWorkloadCoverage:
    @pytest.mark.parametrize("name", BENCHES)
    def test_plans_are_complete(self, name):
        program = build_benchmark(name, threads=4, scale=0.5)
        plan = analysis_for(program).elision
        assert not plan.incomplete_reason

    def test_most_workloads_have_nonempty_plans(self):
        nonzero = 0
        for name in BENCHES:
            program = build_benchmark(name, threads=4, scale=0.5)
            if len(analysis_for(program).elision) > 0:
                nonzero += 1
        # fluidanimate's per-cell dynamic lock ids are statically
        # unresolvable; everything else must produce a plan.
        assert nonzero >= 8
