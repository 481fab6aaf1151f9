"""Coverage for small supporting modules: signals, platform records,
ISA classification sets, stats serialization, RunResult summaries."""

import pytest

from repro.core.stats import AikidoStats
from repro.guestos.platform import FaultDisposition
from repro.guestos.signals import HandlerResult, SignalInfo, SIGSEGV
from repro.harness.runner import run_aikido_fasttrack, run_native
from repro.hypervisor.aikidovm import HypervisorStats
from repro.machine.isa import (
    BLOCK_TERMINATORS,
    Instruction,
    MEMORY_OPCODES,
    MemOperand,
    Opcode,
    SYNC_OPCODES,
)
from repro.workloads import micro


class TestOpcodeClassification:
    def test_memory_sync_terminator_sets_disjoint(self):
        assert not MEMORY_OPCODES & SYNC_OPCODES
        assert not MEMORY_OPCODES & BLOCK_TERMINATORS
        assert not SYNC_OPCODES & BLOCK_TERMINATORS

    def test_is_memory_and_is_write(self):
        load = Instruction(Opcode.LOAD, rd=1, mem=MemOperand(2))
        store = Instruction(Opcode.STORE, rs1=1, mem=MemOperand(2))
        atomic = Instruction(Opcode.ATOMIC_ADD, rd=1, rs1=2,
                             mem=MemOperand(3))
        assert load.is_memory_op and not load.is_write
        assert store.is_memory_op and store.is_write
        assert atomic.is_memory_op and atomic.is_write
        # is_write is fixed at construction; code-cache copies keep it.
        assert store.copy().is_write and not load.copy().is_write

    def test_is_sync_op(self):
        assert Instruction(Opcode.LOCK, imm=1).is_sync_op
        assert Instruction(Opcode.BARRIER, rs1=1, imm=1).is_sync_op
        assert not Instruction(Opcode.ADD, rd=1, rs1=1, imm=1).is_sync_op

    def test_every_terminator_really_terminates_blocks(self):
        from repro.errors import WorkloadError
        from repro.machine.program import BasicBlock
        for op in BLOCK_TERMINATORS:
            block = BasicBlock("b")
            instr = Instruction(op, rs1=0, rs2=0, label="x")
            block.append(instr)
            with pytest.raises(WorkloadError, match="after terminator"):
                block.append(Instruction(Opcode.NOP))


class TestSignalRecords:
    def test_signalinfo_fields_and_repr(self):
        info = SignalInfo(SIGSEGV, 0x1000, True, 3)
        assert info.signum == SIGSEGV
        text = repr(info)
        assert "write" in text and "tid=3" in text

    def test_handler_result_values(self):
        assert HandlerResult.RESUME.value == "resume"
        assert HandlerResult.FATAL.value == "fatal"


class TestFaultDisposition:
    def test_retry_and_deliver_constructors(self):
        retry = FaultDisposition.retry()
        assert retry.kind == "retry"
        assert retry.delivered_address is None
        deliver = FaultDisposition.deliver(0x42)
        assert deliver.kind == "deliver"
        assert deliver.delivered_address == 0x42


class TestStatsSerialization:
    def test_aikido_stats_as_dict_roundtrip(self):
        stats = AikidoStats()
        stats.shared_accesses = 7
        d = stats.as_dict()
        assert d["shared_accesses"] == 7
        assert "faults_handled" in d

    def test_hypervisor_stats_as_dict(self):
        stats = HypervisorStats()
        stats.vmexits = 3
        d = stats.as_dict()
        assert d["vmexits"] == 3
        assert "cr3_exits" in d and "hidden_faults" in d


class TestRunResultSummary:
    def test_summary_contains_key_lines(self):
        native = run_native(micro.racy_counter(2, 10)[0], seed=2,
                            quantum=20)
        aik = run_aikido_fasttrack(micro.racy_counter(2, 10)[0], seed=2,
                                   quantum=20)
        text = aik.summary(native)
        assert "mode: aikido-fasttrack" in text
        assert "slowdown vs native" in text
        assert "shared accesses" in text
        assert "races:" in text

    def test_summary_without_native(self):
        aik = run_aikido_fasttrack(micro.private_work(2, 10)[0], seed=2,
                                   quantum=20)
        text = aik.summary()
        assert "slowdown" not in text
        assert "races: none" in text


class TestCostConstants:
    def test_all_constants_are_positive_ints(self):
        from repro.harness.costmodel import snapshot
        for name, value in snapshot().items():
            assert isinstance(value, int) and value > 0, name

    def test_cache_hierarchy_ordered(self):
        from repro import costs
        assert costs.UMBRA_TRANSLATE_INLINE < costs.UMBRA_TRANSLATE_LEAN \
            < costs.UMBRA_TRANSLATE_FULL

    def test_fasttrack_path_costs_ordered(self):
        from repro import costs
        assert costs.FT_SAME_EPOCH < costs.FT_EPOCH_UPDATE \
            < costs.FT_VC_BASE

    def test_aikido_residency_above_plain_dbr(self):
        from repro import costs
        assert costs.AIKIDO_RESIDENCY_PER_INSTR > costs.DBR_BASE_PER_INSTR
