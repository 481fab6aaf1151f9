"""API-contract tests for AikidoSystem."""

import pytest

from repro.core.analysis import SharedDataAnalysis
from repro.core.config import AikidoConfig
from repro.core.system import AikidoSystem
from repro.errors import HarnessError
from repro.workloads import micro


class Counting(SharedDataAnalysis):
    def __init__(self):
        self.n = 0

    def on_shared_access(self, thread, instr, addr, is_write):
        self.n += 1


class TestConstruction:
    def test_accepts_analysis_instance(self):
        program, _ = micro.racy_counter(2, 5)
        system = AikidoSystem(program, Counting(), jitter=0.0)
        assert isinstance(system.analysis, Counting)

    def test_accepts_factory(self):
        program, _ = micro.racy_counter(2, 5)
        seen = {}

        def factory(kernel):
            seen["kernel"] = kernel
            return Counting()

        system = AikidoSystem(program, factory, jitter=0.0)
        assert seen["kernel"] is system.kernel

    def test_config_threaded_through(self):
        program, _ = micro.racy_counter(2, 5)
        config = AikidoConfig(mirror_pages=False)
        system = AikidoSystem(program, Counting(), config, jitter=0.0)
        assert system.sd.config is config
        assert not system.sd.mirror.enabled

    def test_default_config_created(self):
        program, _ = micro.racy_counter(2, 5)
        system = AikidoSystem(program, Counting(), jitter=0.0)
        assert system.config.mirror_pages


class TestRun:
    def test_run_returns_self_for_chaining(self):
        program, _ = micro.private_work(1, 5)
        system = AikidoSystem(program, Counting(), jitter=0.0)
        assert system.run() is system

    def test_max_instructions_enforced(self):
        from repro.machine.asm import ProgramBuilder
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("spin")
        b.jmp("spin")
        system = AikidoSystem(b.build(), Counting(), jitter=0.0)
        with pytest.raises(HarnessError, match="budget"):
            system.run(max_instructions=5_000)

    def test_result_properties_consistent(self):
        program, _ = micro.racy_counter(2, 8)
        system = AikidoSystem(program, Counting(), jitter=0.0,
                              seed=3, quantum=10).run()
        assert system.cycles == system.kernel.counter.total
        assert system.stats is system.sd.stats
        assert system.run_stats is system.engine.stats
        assert system.hypervisor_stats is system.hypervisor.stats
        assert system.analysis.n == system.stats.shared_accesses
