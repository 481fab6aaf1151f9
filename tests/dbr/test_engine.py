"""Tests for the DBR engine: code cache, hooks, re-JIT, signal routing."""

import sys

import pytest

from repro.dbr.codecache import CodeCache
from repro.dbr.engine import DBREngine
from repro.dbr.tool import Tool
from repro.errors import SegmentationFaultError, ToolError
from repro.guestos.kernel import Kernel
from repro.guestos.signals import SIGSEGV, HandlerResult
from repro.harness.runner import build_aikido_system
from repro.hypervisor.aikidovm import AikidoVM
from repro.machine.asm import ProgramBuilder
from repro.machine.isa import MEMORY_OPCODES
from repro.machine.paging import PAGE_SIZE
from repro.workloads.parsec import build_benchmark

#: ``(compile_blocks, superblocks)``: superblock, compiled and
#: interpreter tiers.
TIERS = ((True, True), (True, False), (False, False))


def counting_program(iters=10):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
    b.halt()
    return b.build(), data


class RecordingTool(Tool):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.blocks_seen = []
        self.accesses = []
        self.events = []

    def instrument_block(self, cached):
        self.blocks_seen.append(cached.block_index)
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None:
                cached.set_hook(pos, self._hook)

    def _hook(self, thread, instr, ea):
        self.accesses.append((thread.tid, instr.uid, ea))
        return None

    def on_sync_event(self, event):
        self.events.append(event)


class TestCodeCache:
    def test_blocks_built_once_until_invalidated(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        cache.get(0)
        cache.get(0)
        assert cache.builds == 1
        cache.invalidate(0)
        cache.get(0)
        assert cache.builds == 2
        assert cache.flushes == 1

    def test_invalidate_by_instruction_uid(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        instr = next(i for i in program.iter_instructions()
                     if i.is_memory_op)
        block_index, _ = program.instruction_locations[instr.uid]
        cache.get(block_index)
        assert cache.invalidate_blocks_of_instruction(instr.uid) == 1
        assert block_index not in cache

    def test_invalidate_uncached_block_is_noop(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        assert cache.invalidate(0) == 0

    def test_cached_copies_do_not_alias_program(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        cached = cache.get(0)
        original = program.blocks[0].instructions[0]
        assert cached.instrs[0] is not original
        assert cached.instrs[0].uid == original.uid

    def test_trace_promotion_counted(self):
        program, _ = counting_program()
        cache = CodeCache(program, trace_threshold=3)
        for _ in range(5):
            cache.get(0)
        assert cache.traces_built == 1
        assert cache.get(0).in_trace

    def test_build_callbacks_run_in_order(self):
        program, _ = counting_program()
        cache = CodeCache(program)
        order = []
        cache.build_callbacks.append(lambda c: order.append("a"))
        cache.build_callbacks.append(lambda c: order.append("b"))
        cache.get(0)
        assert order == ["a", "b"]


class TestEngineExecution:
    def test_program_result_identical_to_native(self):
        program, data = counting_program(12)
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel)
        engine.attach_tool(RecordingTool())
        kernel.run()
        assert kernel.process.vm.read_word(data) == 12

    @pytest.mark.parametrize("compile_blocks", [True, False],
                             ids=["compiled", "interp"])
    def test_every_memory_access_hooked(self, compile_blocks):
        program, data = counting_program(7)
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel, compile_blocks=compile_blocks)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        # 7 loads + 7 stores.
        assert len(tool.accesses) == 14
        assert all(ea == data for _, _, ea in tool.accesses)
        assert engine.stats.instrumented_execs == 14
        assert engine.stats.memory_refs == 14

    @pytest.mark.parametrize("compile_blocks", [True, False],
                             ids=["compiled", "interp"])
    def test_hook_can_redirect_effective_address(self, compile_blocks):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(4, data)
        b.li(5, 77)
        b.store(5, base=4, disp=0)
        b.halt()
        program = b.build()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel, compile_blocks=compile_blocks)

        class Redirector(Tool):
            def instrument_block(self, cached):
                for pos, instr in enumerate(cached.instrs):
                    if instr.mem is not None:
                        cached.set_hook(
                            pos, lambda t, i, ea: ea + 8)

            def on_sync_event(self, event):
                pass

        engine.attach_tool(Redirector())
        kernel.run()
        assert kernel.process.vm.read_word(data) == 0
        assert kernel.process.vm.read_word(data + 8) == 77

    def test_tool_sees_sync_events(self):
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.lock(lock_id=1)
        b.unlock(lock_id=1)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        assert len(tool.events) >= 2

    def test_dbr_overhead_charged(self):
        program, _ = counting_program(10)
        kernel_native = Kernel(jitter=0.0)
        kernel_native.create_process(program)
        kernel_native.run()

        program2, _ = counting_program(10)
        kernel_dbr = Kernel(jitter=0.0)
        kernel_dbr.create_process(program2)
        DBREngine(kernel_dbr)
        kernel_dbr.run()
        assert kernel_dbr.counter.total > kernel_native.counter.total


class TestHookedSteps:
    """Hooked memory accesses keep one contract on every tier."""

    def test_hook_on_non_memory_instruction_refused(self):
        program, _ = counting_program()
        cached = CodeCache(program).get(0)
        pos = next(i for i, instr in enumerate(cached.instrs)
                   if instr.mem is None)
        with pytest.raises(ToolError, match="non-memory"):
            cached.set_hook(pos, lambda t, i, ea: None)
        assert cached.hooks[pos] is None

    @staticmethod
    def _lazy_paging_run(compile_blocks, superblocks):
        """Hooked accesses on a lazily shadowed VM: the first touch of
        each data page takes a hidden fault and retries."""
        b = ProgramBuilder()
        data = b.segment("data", 2 * PAGE_SIZE)
        b.label("main")
        b.li(4, data)
        with b.loop(counter=2, count=3):
            b.load(5, base=4, disp=PAGE_SIZE)
            b.add(5, 5, imm=1)
            b.store(5, base=4, disp=0)
        b.halt()
        vm = AikidoVM(eager_shadow=False)
        kernel = Kernel(platform=vm, jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel, compile_blocks=compile_blocks,
                           superblocks=superblocks)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        return {
            "cycles": kernel.counter.total,
            "breakdown": kernel.counter.snapshot(),
            "run_stats": engine.stats.as_dict(),
            "hypervisor_stats": vars(vm.stats),
            "faults": kernel.faults_seen,
            "accesses": tool.accesses,
            "data": kernel.process.vm.read_word(data),
        }

    def test_faulting_hooked_access_hooks_every_attempt(self):
        surfaces = [self._lazy_paging_run(*tier) for tier in TIERS]
        assert surfaces[0] == surfaces[1] == surfaces[2]
        run = surfaces[0]
        # Every memory access is hooked, so every fault is a hooked
        # attempt that did not retire: one hook call per attempt, and
        # only the retires count as instrumented executions.
        assert run["hypervisor_stats"]["hidden_faults"] >= 1
        assert run["faults"] >= 1
        assert run["run_stats"]["instrumented_execs"] == 6
        assert run["run_stats"]["memory_refs"] == 6
        assert len(run["accesses"]) == 6 + run["faults"]
        assert run["data"] == 1

    def test_hooked_access_never_fused_into_elided_run(self):
        """Every execution of a hooked access calls its hook."""
        program, data = counting_program(7)
        kernel = Kernel(jitter=0.0)
        kernel.create_process(program)
        engine = DBREngine(kernel)
        tool = RecordingTool()
        engine.attach_tool(tool)
        kernel.run()
        assert len(tool.accesses) == 14
        assert engine.stats.instrumented_execs == 14
        assert kernel.process.vm.read_word(data) == 7


    def test_paper_config_never_executes_memory_ops_generically(self):
        """On the paper's stack every memory access, hooked or not, runs
        as a compiled MEM step: the compiled tier never hands one to
        ``CPU.execute``."""
        system = build_aikido_system(
            build_benchmark("streamcluster", threads=2, scale=0.5),
            seed=1, quantum=100)
        cpu = system.engine.cpu
        original = cpu.execute
        run_compiled = DBREngine._run_compiled.__code__
        calls = {"memory": 0, "other": 0}

        def execute(instr, thread, ea_override=None):
            if sys._getframe(1).f_code is run_compiled:
                kind = "memory" if instr.op in MEMORY_OPCODES else "other"
                calls[kind] += 1
            return original(instr, thread, ea_override)

        cpu.execute = execute
        system.run()
        assert system.run_stats.instrumented_execs > 500
        assert system.stats.shared_accesses > 0
        assert calls["other"] > 0  # the wrapper did see the tier's calls
        assert calls["memory"] == 0


class TestMasterSignalHandler:
    def test_unrouted_fault_is_fatal(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()
        with pytest.raises(SegmentationFaultError):
            kernel.run()

    def test_fault_router_gets_first_look(self):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()
        seen = []

        def router(thread, info):
            seen.append(info.fault_address)
            return None  # not ours

        engine.fault_router = router
        with pytest.raises(SegmentationFaultError):
            kernel.run()
        assert seen == [0xDEAD0000]

    def test_router_resume_retries_instruction(self):
        b = ProgramBuilder()
        data = b.segment("data", 64)
        b.label("main")
        b.li(1, 0xDEAD0000)
        b.load(2, base=1, disp=0)
        b.store(2, disp=data)
        b.halt()
        kernel = Kernel(jitter=0.0)
        kernel.create_process(b.build())
        engine = DBREngine(kernel)
        engine.register_master_signal_handler()

        def router(thread, info):
            thread.regs[1] = data  # repair the bad pointer
            return HandlerResult.RESUME

        engine.fault_router = router
        kernel.run()  # completes
