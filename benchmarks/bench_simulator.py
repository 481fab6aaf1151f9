"""Microbenchmarks of the *simulator itself* (host wall time).

Unlike the paper-artifact benchmarks (whose interesting output is
simulated cycles), these measure how fast the Python substrate runs —
execution-tier throughput, the full fault round trip, hypercall
dispatch, code-cache rebuilds — the numbers a developer extending the
simulator watches.

    pytest benchmarks/bench_simulator.py --benchmark-only

These pytest-benchmark rounds complement perfbench (``perfbench/run.py``),
which times the full stack end to end and per layer: this file gives
statistically solid per-round numbers when iterating on one spot.
"""

from __future__ import annotations

import pytest

from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.harness.runner import run_aikido_fasttrack, run_native
from repro.hypervisor.aikidovm import AikidoVM
from repro.hypervisor.hypercalls import HC_SET_PROT, PROT_CLEAR
from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SHIFT, PROT_NONE
from repro.workloads.parsec import build_benchmark


def spin_program(iters):
    b = ProgramBuilder()
    data = b.segment("data", 256)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
        b.xor(6, 5, imm=0x55)
    b.halt()
    return b.build()


class TestInterpreterThroughput:
    def test_native_interpreter(self, benchmark):
        def run():
            kernel = Kernel(jitter=0.0, quantum=1000)
            kernel.create_process(spin_program(2000))
            kernel.run()
            return kernel.driver.stats.instructions

        instructions = benchmark(run)
        benchmark.extra_info["instructions_per_round"] = instructions

    def test_full_aikido_stack(self, benchmark):
        def run():
            return run_aikido_fasttrack(
                build_benchmark("bodytrack", threads=2, scale=0.2),
                seed=1, quantum=150).run_stats["instructions"]

        benchmark(run)


class TestExecutionTiers:
    """Interpreter vs block-compiled tier on the bare DBR engine."""

    @staticmethod
    def _bare_run(compile_blocks, name="raytrace"):
        kernel = Kernel(seed=3, quantum=200, jitter=0.1)
        kernel.create_process(build_benchmark(name, threads=4, scale=0.5))
        engine = DBREngine(kernel, compile_blocks=compile_blocks)
        kernel.run()
        return engine.stats.instructions

    @pytest.mark.parametrize("compile_blocks", [False, True],
                             ids=["interp", "compiled"])
    def test_dbr_tier(self, benchmark, compile_blocks):
        instructions = benchmark(self._bare_run, compile_blocks)
        benchmark.extra_info["instructions_per_round"] = instructions

    @pytest.mark.parametrize("compile_blocks", [False, True],
                             ids=["interp", "compiled"])
    def test_aikido_tier(self, benchmark, compile_blocks):
        from repro.core.config import AikidoConfig

        def run():
            return run_aikido_fasttrack(
                build_benchmark("canneal", threads=4, scale=0.3),
                seed=3, quantum=200,
                config=AikidoConfig(
                    compile_blocks=compile_blocks)).run_stats[
                        "instructions"]

        benchmark(run)


class TestFaultRoundTrip:
    def test_protect_fault_unprotect_cycle(self, benchmark):
        """One full Aikido fault: protect -> access -> VM exit ->
        inject -> SIGSEGV -> handler -> hypercall unprotect -> retry."""
        from repro.guestos.signals import SIGSEGV, HandlerResult

        b = ProgramBuilder()
        data = b.segment("data", 256)
        b.label("main")
        b.halt()
        vm = AikidoVM()
        kernel = Kernel(platform=vm, jitter=0.0)
        kernel.create_process(b.build())
        from tests.hypervisor.test_aikidovm import register_fault_pages
        register_fault_pages(vm, kernel)
        thread = kernel.process.threads[1]
        vpn = data >> PAGE_SHIFT

        kernel.process.signal_handlers[SIGSEGV] = (
            lambda t, info: HandlerResult.RESUME)

        def cycle():
            vm.hypercall(thread, HC_SET_PROT, (1, vpn, 1, PROT_NONE))
            from repro.machine.paging import PageFault
            try:
                vm.translate(thread, data, is_write=True)
            except PageFault as fault:
                vm.handle_fault(thread, fault)
            vm.hypercall(thread, HC_SET_PROT, (1, vpn, 1, PROT_CLEAR))

        benchmark(cycle)
        assert vm.stats.segfaults_delivered > 0


class TestCodeCacheChurn:
    def test_rebuild_rate(self, benchmark):
        from repro.dbr.codecache import CodeCache

        program = spin_program(10)
        cache = CodeCache(program)

        def churn():
            for block_index in range(len(program.blocks)):
                cache.get(block_index)
                cache.invalidate(block_index)

        benchmark(churn)
        assert cache.builds > 0
