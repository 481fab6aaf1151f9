"""Memoized code objects still give every compiled block its own function.

``generated_code`` reuses one code object per (source, filename), but
each block ``exec``s it into a fresh namespace with its own globals, so
two blocks compiled from identical source against different engines
must get distinct functions that only ever touch their own engine's
counter, stats and memory.
"""

from types import SimpleNamespace

from repro.dbr.blockcompiler import (
    _eli_fast_fn,
    _seg_run_fn,
    generated_code,
)
from repro.machine.isa import Instruction, MemOperand, Opcode
from repro.machine.paging import PAGE_SHIFT
from repro.machine.tlb import TLB

ADDR = 0x10000008


def _instrs():
    return [Instruction(Opcode.LI, rd=1, imm=5),
            Instruction(Opcode.ADD, rd=2, rs1=1, imm=3),
            Instruction(Opcode.STORE, rs1=2, mem=MemOperand(None, ADDR)),
            Instruction(Opcode.LOAD, rd=3, mem=MemOperand(None, ADDR))]


def _engine():
    words = {}
    memory = SimpleNamespace(read_word=lambda pa: words.get(pa, 0),
                             write_word=words.__setitem__, words=words)
    return SimpleNamespace(
        counter=SimpleNamespace(instr_cycles=0),
        stats=SimpleNamespace(instructions=0, memory_refs=0),
        cpu=SimpleNamespace(memory=memory),
        _elision_cell=[0, 0])


def _thread(frame_base: int):
    tlb = TLB()
    tlb.fast_rw[ADDR >> PAGE_SHIFT] = frame_base
    tlb.fast_ro[ADDR >> PAGE_SHIFT] = frame_base
    return SimpleNamespace(regs=[0] * 16, tlb=tlb, pc=[0, 0])


def test_identical_eli_sources_get_distinct_functions_with_own_state():
    a, b = _engine(), _engine()
    fn_a = _eli_fast_fn(_instrs(), 0, a, 1)
    fn_b = _eli_fast_fn(_instrs(), 0, b, 1)
    assert fn_a is not fn_b
    assert fn_a.__code__ is fn_b.__code__  # one compile() for both
    assert fn_a.__globals__ is not fn_b.__globals__

    thread = _thread(0x4000)
    assert fn_a(thread) == 4
    assert thread.regs[3] == 8
    assert a.counter.instr_cycles > 0
    assert (a.stats.instructions, a.stats.memory_refs) == (4, 2)
    assert a._elision_cell == [2, 4]
    assert a.cpu.memory.words == {0x4000 | (ADDR & 0xFFF): 8}
    # The twin compiled from the same source saw none of it.
    assert b.counter.instr_cycles == 0
    assert (b.stats.instructions, b.stats.memory_refs) == (0, 0)
    assert b._elision_cell == [0, 0]
    assert b.cpu.memory.words == {}

    assert fn_b(_thread(0x8000)) == 4
    assert b.stats.instructions == 4
    assert a.stats.instructions == 4  # unchanged by the twin's run
    assert b.cpu.memory.words == {0x8000 | (ADDR & 0xFFF): 8}


def test_identical_segment_sources_share_code_not_functions():
    seg = _instrs()[:2]
    fn_a, fn_b = _seg_run_fn(seg), _seg_run_fn(seg)
    assert fn_a is not fn_b and fn_a.__code__ is fn_b.__code__
    regs = [0] * 16
    fn_a(regs)
    assert regs[1:3] == [5, 8]


def test_code_memo_is_keyed_by_source_and_filename():
    src = "def _f():\n    return 1"
    assert generated_code(src, "<a>") is generated_code(src, "<a>")
    assert generated_code(src, "<a>") is not generated_code(src, "<b>")
    assert generated_code(src, "<b>").co_filename == "<b>"
