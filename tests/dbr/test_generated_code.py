"""Memoized code objects still give every compiled body its own function.

``body_code`` reuses one code object per body shape, but each body binds
it to globals of its own engine and block. So two engines, or two
blocks with the same content at different indices, must get distinct
functions that share one code object and only ever touch their own
engine's counters and their own block's branch target.
"""

from repro.dbr.blockcompiler import block_body, body_code, compile_block
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.machine.asm import ProgramBuilder


def _program():
    """Two blocks with identical instructions; only the JMP targets
    differ, and those are bound as globals, not baked into the source."""
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    for nxt in ("second", "done"):
        b.li(4, data)
        b.li(1, 5)
        b.add(2, 1, imm=3)
        b.store(2, base=4, disp=8)
        b.load(3, base=4, disp=8)
        b.jmp(nxt)
        b.label(nxt)
    b.halt()
    return b.build()


def _engine():
    kernel = Kernel(jitter=0.0)
    kernel.create_process(_program())
    return DBREngine(kernel, superblocks=False)


def _whole_block_body(engine, block_index):
    cached = engine.codecache.get(block_index)
    compiled = compile_block(cached, engine)
    return block_body(cached, compiled, 0, compiled.limits[0], engine)


def _state(engine):
    return (engine.counter.total, engine.stats.as_dict(),
            dict(engine.cpu.memory._words))


def _primed_thread(engine):
    """The main thread, its data page already in the TLB fast map, so a
    whole-block body runs every access inline (no tail call)."""
    thread = engine.kernel.process.threads[1]
    data = engine.kernel.process.segment_bases["data"]
    return thread, engine.cpu.translate(thread, data + 8, True)


def test_twin_engines_share_code_not_functions():
    a, b = _engine(), _engine()
    fn_a, fn_b = _whole_block_body(a, 0), _whole_block_body(b, 0)
    assert fn_a is not fn_b
    assert fn_a.__code__ is fn_b.__code__  # one compile() for both
    assert fn_a.__globals__ is not fn_b.__globals__
    assert fn_a.__globals__["_mw"] is a.cpu.memory._words
    assert fn_b.__globals__["_mw"] is b.cpu.memory._words

    thread_a, paddr = _primed_thread(a)
    thread_b, paddr_b = _primed_thread(b)
    assert paddr_b == paddr  # same layout: only the engine tells them apart
    b_before = _state(b)
    assert b_before[2] == {}
    assert fn_a(thread_a) == 6
    assert thread_a.regs[3] == 8
    assert (a.stats.instructions, a.stats.memory_refs) == (6, 2)
    assert a.counter.total > 0
    assert a.cpu.memory._words == {paddr >> 3: 8}
    # The twin compiled from the same source saw none of it.
    assert _state(b) == b_before
    assert thread_b.regs[3] == 0

    a_after = _state(a)
    assert fn_b(thread_b) == 6
    assert thread_b.regs[3] == 8
    assert b.cpu.memory._words == {paddr >> 3: 8}
    assert _state(b)[:2] == a_after[:2]
    assert _state(a) == a_after  # unchanged by the twin's run


def test_same_content_blocks_share_code_not_functions():
    engine = _engine()
    first = _whole_block_body(engine, 0)
    second = _whole_block_body(engine, 1)
    assert first is not second and first.__code__ is second.__code__
    jmp = len(engine.codecache.get(0).instrs) - 1
    assert (first.__globals__["b0"], second.__globals__["b0"]) == (0, 1)
    assert first.__globals__[f"g{jmp}"] == 1
    assert second.__globals__[f"g{jmp}"] == 2


def test_code_memo_is_keyed_by_shape_and_kind():
    engine = _engine()
    slots = compile_block(engine.codecache.get(0), engine).slots
    block = ((0, slots, False),)
    assert body_code(False, 1, 0, block) is body_code(False, 1, 0, block)
    assert body_code(False, 1, 0, block) is not body_code(False, 2, 0, block)
    assert body_code(False, 1, 0, block).co_filename == "<block>"
    assert body_code(True, 1, 0, block).co_filename == "<superblock>"
