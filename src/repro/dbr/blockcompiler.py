"""Block compiler: specialize cached blocks into Python closures.

The interpreter tier (``DBREngine._run_interp``) pays a dict-dispatched
``CPU.execute`` call, a ``BASE_COST`` lookup, a ``MEMORY_OPCODES`` set
test and a ``consume_yield`` call for *every* retired instruction. The
compiled tier pays those costs once, at compile time: when the engine
first enters a cached block it classifies every position into one of
four step kinds —

``SEG``
    a maximal run of pure-ALU instructions (LI/MOV/ADD/SUB/
    MUL/AND/OR/XOR/SHL/SHR/NOP) fused into a tuple of micro-closures
    that only touch the register file. The run's cycle charges are
    pre-summed so the whole segment retires with one
    ``instr_cycles +=`` and one ``stats.instructions +=``. Segments can
    neither fault nor enter the kernel, so there is no observation
    point inside one: deferring the pc update and the charge to the
    segment end is bit-identical to the interpreter. MOD is *excluded*
    (it can raise ``InvalidInstructionError`` before charging, which
    would corrupt the pre-summed charge at exception time).

``MEM``
    a LOAD/STORE/ATOMIC_ADD bound into a closure with the operands
    pre-decoded. It probes the owning thread's TLB micro-cache
    (``fast_ro``/``fast_rw``) first and falls back to the platform's
    ``translate`` — counting TLB hits/misses exactly as the interpreter
    path would — and routes page faults through ``kernel.repair_fault``
    with the not-retired/refetch contract intact. A hooked access gets
    its own closure, the tool's hook bound in front of
    :func:`hooked_tail` (AikidoSD's Fig. 4 sequence runs from here);
    unhooked accesses never test for a hook.

``CTL``
    a control transfer (JMP/BZ/BNZ/BLT/BGE/CALL/RET) or MOD,
    specialized into a ``fn(thread) -> bool`` closure (True = control
    transferred, the engine must re-fetch). Branch/call targets are
    resolved through ``program.label_index`` once, at compile time, and
    the CALL return site is a prebuilt constant tuple. MOD rides here
    because its divide-by-zero check must raise *before* charging,
    which bars it from a pre-summed segment. Like segments, these steps
    never enter the kernel, so the per-instruction yield check is
    provably dead and skipped.

``GEN``
    everything else (kernel actions and HALT): the engine runs
    ``CPU.execute`` for that one instruction and hands any trap to the
    kernel. Only the cycle charge is precomputed.

Hooks exist only on memory positions (``CachedBlock.set_hook`` refuses
any other) and are set only while a block is built, by the tool's
``instrument_block``; nothing swaps one at run time. So a compiled step
may bind its hook once, and the classification of a position is stable
for the life of its ``CachedBlock``.

A :class:`CompiledBlock` stores the engine's ``overhead_per_instr`` it
was baked with; the engine recompiles when the installed stack changes
the residency overhead (AikidoSD raises it on install). The closure
dies with its :class:`~repro.dbr.codecache.CachedBlock` on any flush,
so every re-JIT path (sharing faults, ``invalidate_all``, chaos
flushes, protection-change rewrites) structurally invalidates it.

Correctness bar: bit-identical simulated stats — cycles, fault counts,
race reports, chaos replay logs, trace attribution — versus the
interpreter tier (see ``tests/dbr/test_compiled_parity.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.errors import InvalidInstructionError
from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES, Opcode
from repro.machine.paging import PAGE_SHIFT, PAGE_SIZE, PageFault

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PAGE_MASK = PAGE_SIZE - 1

#: Step kind tags (first element of every step tuple).
SEG = 0
MEM = 1
GEN = 2
CTL = 3
#: Statically-elided fused run (``--static-elide``): superimposed over a
#: maximal run of SEG positions and unhooked memory accesses the elision
#: plan proved race-free/private. ``(ELI, fast_fn, count, fallback)``
#: where ``fast_fn(thread) -> retired`` runs the whole run with inline
#: TLB-micro-cache guards and literal-baked effects, bailing (with exact
#: prefix accounting) to the base step at the failing position, and
#: ``fallback`` is the base step the position keeps for budget tails,
#: pending yields and guard misses at position 0.
ELI = 4

#: Opcodes eligible for segment fusion: register-file-only semantics,
#: cannot fault, cannot trap, cannot raise before charging.
SEG_OPCODES = frozenset((
    Opcode.NOP, Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB,
    Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR,
))

#: Opcodes specialized as CTL steps.
CTL_OPCODES = frozenset((
    Opcode.JMP, Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
    Opcode.CALL, Opcode.RET, Opcode.MOD,
))

#: Opcodes a superblock (see :mod:`repro.dbr.superblock`) can inline at
#: any position of a chain member: pure ALU, memory accesses, hooked or
#: not (guarded on the TLB micro-cache) and MOD (guarded on its divisor).
STITCH_BODY_OPCODES = SEG_OPCODES | MEMORY_OPCODES | frozenset(
    (Opcode.MOD,))

#: Control opcodes legal only as a chain member's *final* instruction —
#: the block terminators (plus CALL, which the ISA allows mid-block:
#: a mid-block CALL makes the block unstitchable because the chain
#: would have to span the callee and the return site).
STITCH_TAIL_OPCODES = frozenset((
    Opcode.JMP, Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
    Opcode.CALL, Opcode.RET,
))


def chain_stitchable(cached) -> bool:
    """Can this cached block serve as a superblock chain member?

    Every opcode must be one the superblock compiler can inline:
    ALU/memory/MOD anywhere, a control transfer only at the final
    position. Hooked memory positions qualify: the body books the
    retired prefix, calls the hook and carries on (see
    :mod:`repro.dbr.superblock`). Kernel ops, HALT and mid-block CALLs
    disqualify the block — it runs through the ordinary step list
    instead. A MOD with a literal zero divisor also disqualifies (it
    unconditionally raises, so the block can never retire past it
    anyway), as does a memory access with a literal misaligned address
    (same argument — and the superblock compiler inlines word-store
    accesses on the premise that literal addresses it sees are aligned).

    The verdict depends only on the block's instructions, so it is
    stable for the life of the CachedBlock.
    """
    instrs = cached.instrs
    last = len(instrs) - 1
    for i, instr in enumerate(instrs):
        op = instr.op
        if op in STITCH_BODY_OPCODES:
            if (op is Opcode.MOD and instr.rs2 is None
                    and instr.imm == 0):
                return False
            if (op in MEMORY_OPCODES and instr.mem.base is None
                    and instr.mem.disp & 7):
                # A literal misaligned address raises unconditionally;
                # the superblock compiler inlines word-store accesses
                # on the premise that literal addresses are aligned.
                return False
            continue
        if i == last and op in STITCH_TAIL_OPCODES:
            continue
        return False
    return True


class CompiledBlock:
    """The compiled form of one cached block.

    ``steps[ii]`` is the step covering instruction index ``ii`` (segment
    runs get a suffix step per interior position, so re-entry mid-block
    after a quantum boundary lands on a valid step). ``overhead`` is the
    per-instruction residency overhead the charges were summed with —
    the engine treats a mismatch as stale and recompiles.
    """

    __slots__ = ("steps", "overhead", "length", "elided_uids",
                 "elided_private", "stitchable")

    def __init__(self, steps: List[tuple], overhead: int,
                 elided_uids: FrozenSet[int] = frozenset(),
                 elided_private: FrozenSet[int] = frozenset(),
                 stitchable: bool = False):
        self.steps = steps
        self.overhead = overhead
        self.length = len(steps)
        #: Memory uids fused into ELI fast paths in this closure, and
        #: the private-tier subset (the InvariantMonitor asserts no
        #: private-tier uid's closure coexists with a SHARED footprint
        #: page — see ``elision_no_shared``).
        self.elided_uids = elided_uids
        self.elided_private = elided_private
        #: True when the source block qualifies as a superblock chain
        #: member (see :func:`chain_stitchable`); computed once here so
        #: the chain planner's hot path is one attribute read.
        self.stitchable = stitchable


def _alu_closure(instr) -> Callable:
    """Bind one pure-ALU instruction into a ``fn(regs)`` micro-closure.

    Each branch replicates the matching ``CPU.execute`` arm exactly
    (same masking, same shift clamping) with operands pre-decoded.
    """
    op = instr.op
    rd = instr.rd
    rs1 = instr.rs1
    rs2 = instr.rs2
    imm = instr.imm

    if op is Opcode.LI:
        value = imm & _MASK64

        def fn(regs, _v=value, _rd=rd):
            regs[_rd] = _v
        return fn
    if op is Opcode.MOV:
        def fn(regs, _rd=rd, _rs=rs1):
            regs[_rd] = regs[_rs]
        return fn
    if op is Opcode.NOP:
        def fn(regs):
            pass
        return fn

    if rs2 is not None:
        if op is Opcode.ADD:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] + regs[_b]) & _MASK64
        elif op is Opcode.SUB:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] - regs[_b]) & _MASK64
        elif op is Opcode.MUL:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] * regs[_b]) & _MASK64
        elif op is Opcode.AND:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] & regs[_b]
        elif op is Opcode.OR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] | regs[_b]
        elif op is Opcode.XOR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] ^ regs[_b]) & _MASK64
        elif op is Opcode.SHL:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = (regs[_a] << (regs[_b] & 63)) & _MASK64
        elif op is Opcode.SHR:
            def fn(regs, _rd=rd, _a=rs1, _b=rs2):
                regs[_rd] = regs[_a] >> (regs[_b] & 63)
        else:  # pragma: no cover - SEG_OPCODES guards this
            raise AssertionError(f"not a segment opcode: {op}")
        return fn

    if op is Opcode.ADD:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] + _i) & _MASK64
    elif op is Opcode.SUB:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] - _i) & _MASK64
    elif op is Opcode.MUL:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] * _i) & _MASK64
    elif op is Opcode.AND:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = regs[_a] & _i
    elif op is Opcode.OR:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = regs[_a] | _i
    elif op is Opcode.XOR:
        def fn(regs, _rd=rd, _a=rs1, _i=imm):
            regs[_rd] = (regs[_a] ^ _i) & _MASK64
    elif op is Opcode.SHL:
        shift = imm & 63

        def fn(regs, _rd=rd, _a=rs1, _s=shift):
            regs[_rd] = (regs[_a] << _s) & _MASK64
    elif op is Opcode.SHR:
        shift = imm & 63

        def fn(regs, _rd=rd, _a=rs1, _s=shift):
            regs[_rd] = regs[_a] >> _s
    else:  # pragma: no cover - SEG_OPCODES guards this
        raise AssertionError(f"not a segment opcode: {op}")
    return fn


def _seg_statement(instr) -> Optional[str]:
    """Render one pure-ALU instruction as a Python statement on ``regs``.

    Mirrors the matching ``CPU.execute`` arm exactly; operands are baked
    as literals. Returns None for NOP (no statement).
    """
    op = instr.op
    if op is Opcode.NOP:
        return None
    rd = instr.rd
    if op is Opcode.LI:
        return f"regs[{rd}] = {instr.imm & _MASK64}"
    rs1 = instr.rs1
    if op is Opcode.MOV:
        return f"regs[{rd}] = regs[{rs1}]"
    rs2 = instr.rs2
    rhs = f"regs[{rs2}]" if rs2 is not None else repr(instr.imm)
    if op is Opcode.ADD:
        return f"regs[{rd}] = (regs[{rs1}] + {rhs}) & {_MASK64}"
    if op is Opcode.SUB:
        return f"regs[{rd}] = (regs[{rs1}] - {rhs}) & {_MASK64}"
    if op is Opcode.MUL:
        return f"regs[{rd}] = (regs[{rs1}] * {rhs}) & {_MASK64}"
    if op is Opcode.AND:
        return f"regs[{rd}] = regs[{rs1}] & {rhs}"
    if op is Opcode.OR:
        return f"regs[{rd}] = regs[{rs1}] | {rhs}"
    if op is Opcode.XOR:
        return f"regs[{rd}] = (regs[{rs1}] ^ {rhs}) & {_MASK64}"
    if op is Opcode.SHL:
        shift = f"(regs[{rs2}] & 63)" if rs2 is not None else str(
            instr.imm & 63)
        return f"regs[{rd}] = (regs[{rs1}] << {shift}) & {_MASK64}"
    if op is Opcode.SHR:
        shift = f"(regs[{rs2}] & 63)" if rs2 is not None else str(
            instr.imm & 63)
        return f"regs[{rd}] = regs[{rs1}] >> {shift}"
    raise AssertionError(f"not a segment opcode: {op}")  # pragma: no cover


@lru_cache(maxsize=1024)
def generated_code(source: str, filename: str):
    """``compile()`` of generated source, memoized per (source, filename).

    Small programs repeat the same segment, elided-run and superblock
    sources many times over (a fuzz campaign compiles a few hundred
    distinct sources a couple of thousand times). Code objects are
    immutable; every caller still ``exec``s the code into a fresh
    namespace with its own globals, so each compiled block gets its own
    function object bound to its own engine state.
    """
    return compile(source, filename, "exec")


def _seg_run_fn(instrs) -> Optional[Callable]:
    """exec()-generate one straight-line function for a whole segment.

    Turns N micro-closure calls into a single call; returns None when
    the segment has no statements (all NOP) or a single statement would
    not beat the micro-closure.
    """
    statements = [s for s in (_seg_statement(i) for i in instrs)
                  if s is not None]
    if len(instrs) < 2:
        return None
    if not statements:
        statements = ["pass"]
    source = "def _seg(regs):\n    " + "\n    ".join(statements)
    namespace: dict = {}
    exec(generated_code(source, "<blockcompiler:seg>"), {}, namespace)
    return namespace["_seg"]


def _ctl_closure(instr, engine, charge: int, block_index: int,
                 next_ii: int) -> Callable:
    """Bind one control transfer (or MOD) into ``fn(thread) -> bool``.

    True means control transferred (the engine re-fetches, like the
    interpreter's ``cur_bi = -1`` after ``_apply_result``); False means
    fallthrough with pc already advanced. Charge ordering matches the
    interpreter arm for arm: transfers charge before applying the
    result (so a RET-on-empty-stack raises *after* charging, exactly
    like ``_apply_result``), while MOD's zero check raises *before* any
    charge, exactly like ``CPU.execute``.
    """
    op = instr.op
    counter = engine.counter
    stats = engine.stats
    program = engine.codecache.program

    if op is Opcode.MOD:
        rd = instr.rd
        rs1 = instr.rs1
        rs2 = instr.rs2
        imm = instr.imm

        def fn(thread):
            regs = thread.regs
            rhs = regs[rs2] if rs2 is not None else imm
            if rhs == 0:
                raise InvalidInstructionError("modulo by zero")
            regs[rd] = regs[rs1] % rhs
            counter.instr_cycles += charge
            stats.instructions += 1
            thread.pc[1] = next_ii
            return False
        return fn

    if op is Opcode.RET:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            stack = thread.call_stack
            if not stack:
                raise InvalidInstructionError(
                    f"RET with empty call stack in thread {thread.tid}")
            pc = thread.pc
            pc[0], pc[1] = stack.pop()
            return True
        return fn

    target = program.label_index(instr.label)

    if op is Opcode.JMP:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            pc[0] = target
            pc[1] = 0
            return True
        return fn

    if op is Opcode.CALL:
        return_site = (block_index, next_ii)

        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            thread.call_stack.append(return_site)
            pc = thread.pc
            pc[0] = target
            pc[1] = 0
            return True
        return fn

    rs1 = instr.rs1
    rs2 = instr.rs2

    if op is Opcode.BZ:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            if thread.regs[rs1] == 0:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    elif op is Opcode.BNZ:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            if thread.regs[rs1] != 0:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    elif op is Opcode.BLT:
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            regs = thread.regs
            if regs[rs1] < regs[rs2]:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    else:  # BGE — CTL_OPCODES guards this
        def fn(thread):
            counter.instr_cycles += charge
            stats.instructions += 1
            pc = thread.pc
            regs = thread.regs
            if regs[rs1] >= regs[rs2]:
                pc[0] = target
                pc[1] = 0
                return True
            pc[1] = next_ii
            return False
    return fn


def _mem_closure(instr, engine, charge: int, next_ii: int) -> Callable:
    """Bind one unhooked memory instruction into ``fn(thread) -> bool``.

    Returns True when the instruction retired (charge applied, stats and
    pc advanced, so the caller only counts it against the budget and
    checks the yield flag) and False when it page-faulted: the fault has
    been routed through ``kernel.repair_fault`` and the caller must
    refetch the block and retry, exactly like the interpreter's fault
    arm. The fast path resolves the translation from the thread's TLB
    micro-cache; a fast hit stands in for a successful ``lookup`` +
    permission check, so it books a regular TLB hit too.
    """
    op = instr.op
    mem = instr.mem
    base = mem.base
    disp = mem.disp
    rd = instr.rd
    rs1 = instr.rs1
    memory = engine.cpu.memory
    translate = engine.cpu.translate
    kernel = engine.kernel
    counter = engine.counter
    stats = engine.stats
    read_word = memory.read_word
    write_word = memory.write_word

    if op is Opcode.LOAD:
        def fn(thread):
            regs = thread.regs
            ea = disp if base is None else (regs[base] + disp) & _MASK64
            tlb = thread.tlb
            pb = tlb.fast_ro.get(ea >> PAGE_SHIFT)
            if pb is not None:
                tlb.hits += 1
                tlb.fast_hits += 1
                paddr = pb | (ea & _PAGE_MASK)
            else:
                tlb.fast_misses += 1
                try:
                    paddr = translate(thread, ea, False)
                except PageFault as fault:
                    kernel.repair_fault(thread, fault)
                    return False
            regs[rd] = read_word(paddr)
            counter.instr_cycles += charge
            stats.instructions += 1
            stats.memory_refs += 1
            thread.pc[1] = next_ii
            return True
        return fn

    if op is Opcode.STORE:
        def fn(thread):
            regs = thread.regs
            ea = disp if base is None else (regs[base] + disp) & _MASK64
            tlb = thread.tlb
            pb = tlb.fast_rw.get(ea >> PAGE_SHIFT)
            if pb is not None:
                tlb.hits += 1
                tlb.fast_hits += 1
                paddr = pb | (ea & _PAGE_MASK)
            else:
                tlb.fast_misses += 1
                try:
                    paddr = translate(thread, ea, True)
                except PageFault as fault:
                    kernel.repair_fault(thread, fault)
                    return False
            write_word(paddr, regs[rs1])
            counter.instr_cycles += charge
            stats.instructions += 1
            stats.memory_refs += 1
            thread.pc[1] = next_ii
            return True
        return fn

    # ATOMIC_ADD
    def fn(thread):
        regs = thread.regs
        ea = disp if base is None else (regs[base] + disp) & _MASK64
        tlb = thread.tlb
        pb = tlb.fast_rw.get(ea >> PAGE_SHIFT)
        if pb is not None:
            tlb.hits += 1
            tlb.fast_hits += 1
            paddr = pb | (ea & _PAGE_MASK)
        else:
            tlb.fast_misses += 1
            try:
                paddr = translate(thread, ea, True)
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                return False
        old = read_word(paddr)
        write_word(paddr, (old + regs[rs1]) & _MASK64)
        if rd is not None:
            regs[rd] = old
        counter.instr_cycles += charge
        stats.instructions += 1
        stats.memory_refs += 1
        thread.pc[1] = next_ii
        return True
    return fn


def hooked_tail(instr, engine, charge: int, next_ii: int) -> Callable:
    """Everything a hooked memory step does after its hook.

    Returns ``tail(thread, ea) -> bool``: probe the TLB micro-cache for
    ``ea`` (the hook's override, when it returned one), fall back to the
    platform's ``translate`` on a miss, route a page fault through
    ``kernel.repair_fault`` (False: nothing retired, the caller retries
    through the hook again), else access the word and book the retire
    — charge, counts, ``stats.instrumented_execs`` and ``pc[1]``. The
    compiled hooked step is its hook plus this tail; a superblock body
    inlines the fast probe and calls it only when the probe misses or
    the address is misaligned, so it never calls the hook twice. One
    body serves all three opcodes: next to the hook call, its opcode
    tests are noise.
    """
    is_load = instr.op is Opcode.LOAD
    is_atomic = instr.op is Opcode.ATOMIC_ADD
    rd = instr.rd
    rs1 = instr.rs1
    memory = engine.cpu.memory
    translate = engine.cpu.translate
    kernel = engine.kernel
    counter = engine.counter
    stats = engine.stats
    read_word = memory.read_word
    write_word = memory.write_word

    def tail(thread, ea):
        tlb = thread.tlb
        pb = (tlb.fast_ro if is_load else tlb.fast_rw).get(ea >> PAGE_SHIFT)
        if pb is not None:
            tlb.hits += 1
            tlb.fast_hits += 1
            paddr = pb | (ea & _PAGE_MASK)
        else:
            tlb.fast_misses += 1
            try:
                paddr = translate(thread, ea, not is_load)
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                return False
        regs = thread.regs
        if is_load:
            regs[rd] = read_word(paddr)
        elif is_atomic:
            old = read_word(paddr)
            write_word(paddr, (old + regs[rs1]) & _MASK64)
            if rd is not None:
                regs[rd] = old
        else:
            write_word(paddr, regs[rs1])
        counter.instr_cycles += charge
        stats.instructions += 1
        stats.memory_refs += 1
        stats.instrumented_execs += 1
        thread.pc[1] = next_ii
        return True
    return tail


def _hooked_mem_closure(instr, hook, engine, charge: int,
                        next_ii: int) -> Callable:
    """Bind one hooked memory instruction into ``fn(thread) -> bool``.

    The :func:`_mem_closure` contract with the tool's hook in front:
    every attempt calls ``hook(thread, instr, ea)`` on the computed
    effective address and accesses the address it returns instead, when
    it returns one — exactly the interpreter's ``ea_override`` path —
    through :func:`hooked_tail`. A faulting attempt retries through the
    hook again; only the retire counts toward
    ``stats.instrumented_execs``. The hook is bound once: tools set
    hooks only while a block is built.
    """
    mem = instr.mem
    base = mem.base
    disp = mem.disp
    tail = hooked_tail(instr, engine, charge, next_ii)

    def fn(thread):
        ea = disp if base is None else (thread.regs[base] + disp) & _MASK64
        override = hook(thread, instr, ea)
        return tail(thread, ea if override is None else override)
    return fn


def _eli_fast_fn(instrs, start: int, engine, overhead: int) -> Callable:
    """exec()-generate the fast body for one statically-elided run.

    ``instrs`` is the run (SEG opcodes + elidable memory accesses),
    ``start`` its first instruction index in the block. The generated
    ``fn(thread) -> retired`` inlines every ALU statement and guards
    each memory access on the owning thread's TLB micro-cache
    (``fast_ro``/``fast_rw``). A guard miss at run position ``k``
    applies the *exact* accounting of the ``k`` already-retired prefix
    instructions (pre-summed cycle charges, instruction/memory-ref
    counts, per-access TLB hit bookkeeping — identical to what the base
    SEG/MEM steps would have booked, because nothing between two fast
    retires can observe intermediate state), parks ``pc`` on the failing
    position and returns ``k``; the engine then re-executes that
    position through its base step, which re-probes, counts the
    ``fast_misses`` and handles translate/fault — so a bail costs
    nothing extra and counts nothing twice. A miss at position 0 returns
    0 with no effects at all.

    The elision counters (``engine._elision_cell``) are host-side
    observability, never part of any simulated stat surface.
    """
    counter = engine.counter
    stats = engine.stats
    memory = engine.cpu.memory

    charges = [BASE_COST[i.op] + overhead for i in instrs]
    cyc_prefix = [0]
    for c in charges:
        cyc_prefix.append(cyc_prefix[-1] + c)
    n = len(instrs)

    lines: List[str] = ["def _eli(thread):",
                        "    regs = thread.regs",
                        "    tlb = thread.tlb"]
    uses_ro = any(i.op is Opcode.LOAD for i in instrs)
    uses_rw = any(i.op in (Opcode.STORE, Opcode.ATOMIC_ADD)
                  for i in instrs)
    if uses_ro:
        lines.append("    fr = tlb.fast_ro")
    if uses_rw:
        lines.append("    fw = tlb.fast_rw")

    def bail(k: int, mems: int) -> List[str]:
        if k == 0:
            return ["        return 0"]
        out = [f"        counter.instr_cycles += {cyc_prefix[k]}",
               f"        stats.instructions += {k}"]
        if mems:
            out += [f"        stats.memory_refs += {mems}",
                    f"        tlb.hits += {mems}",
                    f"        tlb.fast_hits += {mems}",
                    f"        _ec[0] += {mems}"]
        out += [f"        _ec[1] += {k}",
                f"        thread.pc[1] = {start + k}",
                f"        return {k}"]
        return out

    mems_so_far = 0
    for k, instr in enumerate(instrs):
        op = instr.op
        if op in SEG_OPCODES:
            stmt = _seg_statement(instr)
            if stmt is not None:
                lines.append(f"    {stmt}")
            continue
        # Memory access: compute the physical address behind a guard.
        mem = instr.mem
        fmap = "fr" if op is Opcode.LOAD else "fw"
        if mem.base is None:
            page = mem.disp >> PAGE_SHIFT
            off = mem.disp & _PAGE_MASK
            lines.append(f"    pb{k} = {fmap}.get({page})")
            lines.append(f"    if pb{k} is None:")
            lines.extend(bail(k, mems_so_far))
            paddr = f"(pb{k} | {off})" if off else f"pb{k}"
        else:
            lines.append(f"    ea{k} = (regs[{mem.base}] + {mem.disp})"
                         f" & {_MASK64}")
            lines.append(f"    pb{k} = {fmap}.get(ea{k} >> {PAGE_SHIFT})")
            lines.append(f"    if pb{k} is None:")
            lines.extend(bail(k, mems_so_far))
            paddr = f"(pb{k} | (ea{k} & {_PAGE_MASK}))"
        if op is Opcode.LOAD:
            lines.append(f"    regs[{instr.rd}] = read_word({paddr})")
        elif op is Opcode.STORE:
            lines.append(f"    write_word({paddr}, regs[{instr.rs1}])")
        else:  # ATOMIC_ADD
            lines.append(f"    pa{k} = {paddr}")
            lines.append(f"    old{k} = read_word(pa{k})")
            lines.append(f"    write_word(pa{k}, (old{k} + "
                         f"regs[{instr.rs1}]) & {_MASK64})")
            if instr.rd is not None:
                lines.append(f"    regs[{instr.rd}] = old{k}")
        mems_so_far += 1
    # Full completion: total accounting in one shot.
    lines += [f"    counter.instr_cycles += {cyc_prefix[n]}",
              f"    stats.instructions += {n}",
              f"    stats.memory_refs += {mems_so_far}",
              f"    tlb.hits += {mems_so_far}",
              f"    tlb.fast_hits += {mems_so_far}",
              f"    _ec[0] += {mems_so_far}",
              f"    _ec[1] += {n}",
              f"    thread.pc[1] = {start + n}",
              f"    return {n}"]
    namespace: dict = {}
    exec(generated_code("\n".join(lines), "<blockcompiler:eli>"),
         {"counter": counter, "stats": stats, "_ec": engine._elision_cell,
          "read_word": memory.read_word,
          "write_word": memory.write_word},
         namespace)
    return namespace["_eli"]


def elidable(instr, hook, plan, retired) -> bool:
    """Does ``--static-elide`` elide this position's check?

    Only an unhooked memory access the plan approved and no tripwire
    has retired: a hooked access is a memory step too, but an elided
    body never calls hooks, so it keeps its own step (and a superblock
    never counts it as elided).
    """
    if hook is not None or instr.op not in MEMORY_OPCODES:
        return False
    uid = instr.uid
    return uid in plan and uid not in retired


def compile_block(cached, engine) -> CompiledBlock:
    """Compile a cached block against ``engine``'s current overhead.

    Classification is stable for the life of the ``CachedBlock``: hooks
    are set only while the block is built (AikidoSD adds one through a
    flush-and-rebuild, its re-JIT), so a hooked position's closure binds
    its hook once.
    """
    overhead = engine.overhead_per_instr
    instrs = cached.instrs
    hooks = cached.hooks
    n = len(instrs)
    steps: List[Optional[tuple]] = [None] * n
    i = 0
    while i < n:
        instr = instrs[i]
        if instr.op in SEG_OPCODES:
            j = i
            fns: List[Callable] = []
            charges: List[int] = []
            while j < n and instrs[j].op in SEG_OPCODES:
                fns.append(_alu_closure(instrs[j]))
                charges.append(BASE_COST[instrs[j].op] + overhead)
                j += 1
            # One suffix step per position so mid-run re-entry (quantum
            # boundary landed inside the segment) stays valid; only the
            # run head gets the exec()-generated fast body, interior
            # entries (rare: a quantum boundary parked mid-run) fall
            # back to the micro-closure loop.
            for start in range(i, j):
                sub = tuple(fns[start - i:])
                prefixes: List[int] = [0]
                acc = 0
                for c in charges[start - i:]:
                    acc += c
                    prefixes.append(acc)
                run_fn = _seg_run_fn(instrs[i:j]) if start == i else None
                steps[start] = (SEG, run_fn, sub, len(sub), acc,
                                tuple(prefixes), j)
            i = j
            continue
        charge = BASE_COST[instr.op] + overhead
        if instr.op in MEMORY_OPCODES:
            hook = hooks[i]
            if hook is None:
                fn = _mem_closure(instr, engine, charge, i + 1)
            else:
                fn = _hooked_mem_closure(instr, hook, engine, charge, i + 1)
            steps[i] = (MEM, fn)
        elif instr.op in CTL_OPCODES:
            steps[i] = (CTL, _ctl_closure(instr, engine, charge,
                                          cached.block_index, i + 1))
        else:
            steps[i] = (GEN, charge)
        i += 1

    # ------------------------------------------------------------------
    # static-check elision: superimpose ELI fast paths (--static-elide)
    # ------------------------------------------------------------------
    stitchable = chain_stitchable(cached)
    plan = engine.elision_plan
    if plan is None:
        return CompiledBlock(steps, overhead, stitchable=stitchable)
    retired = engine._elision_retired
    elided_uids = set()
    elided_private = set()

    def _elidable(pos: int) -> bool:
        return elidable(instrs[pos], hooks[pos], plan, retired)

    i = 0
    while i < n:
        if steps[i][0] != SEG and not _elidable(i):
            i += 1
            continue
        j = i
        mem_positions: List[int] = []
        while j < n and (steps[j][0] == SEG or _elidable(j)):
            if steps[j][0] == MEM:
                mem_positions.append(j)
            j += 1
        # Fuse only when there is a check to elide and the run beats a
        # single base step. Interior positions keep their base steps
        # (mid-run re-entry after a quantum boundary or a bail).
        if mem_positions and j - i >= 2:
            fast_fn = _eli_fast_fn(instrs[i:j], i, engine, overhead)
            steps[i] = (ELI, fast_fn, j - i, steps[i])
            for p in mem_positions:
                uid = instrs[p].uid
                elided_uids.add(uid)
                if plan.tier(uid) == "private":
                    elided_private.add(uid)
        i = j
    return CompiledBlock(steps, overhead, frozenset(elided_uids),
                         frozenset(elided_private),
                         stitchable=stitchable)
