"""Block compiler: the one code generator behind both compiled tiers.

The interpreter tier (``DBREngine._run_interp``) pays a dict-dispatched
``CPU.execute`` call, a ``BASE_COST`` lookup, a ``MEMORY_OPCODES`` set
test and a ``consume_yield`` call for *every* retired instruction. The
compiled tiers pay those costs once, at code-generation time: they run
exec()-generated straight-line *bodies*, the moral equivalent of the
basic blocks and traces DynamoRIO emits into its code cache. One
emitter (:func:`body_source`) writes both kinds:

* a **block body** covers one cached block from the position the engine
  entered it at to a stop position (see :class:`CompiledBlock`);
* a **chain body** covers a hot chain of whole blocks, the superblock
  tier's trace (:mod:`repro.dbr.superblock`).

Emission rules, identical for both:

* **Straight-line code.** Every ALU instruction becomes one Python
  statement with its operands baked in as literals; a chain's internal
  control transfers disappear into fallthrough.
* **Inline memory.** An access probes the owning thread's TLB
  micro-cache (``fast_ro``/``fast_rw``) and indexes the physical word
  store directly: a fast-map hit guarantees a mapped, backed page (the
  TLB pops fast entries on every permission change and flush), and the
  first probe of an effective address also vets its alignment. Probes
  are hoisted: a page probed once (a literal page, or the same
  base-register + displacement while the register is unmodified) is
  reused by later accesses up to the next hook call, and a writable-map
  hit stands in for later read probes. A chain also groups probes per
  base register (:func:`_probe_groups`): the first access through a
  register probes for the accesses after it at 8-aligned displacements
  up to ``MAX_GROUP_SPAN`` bytes further on, guarding that the whole
  span sits on the probed page and is aligned, and they index the word
  store from its word. A group's first store after a read-only head
  probes the writable map once for the group. Block bodies, which carry
  on after a tail, do not group.
* **One memory tail.** A fast-map miss or a misaligned address runs the
  shared tail (:func:`cold_paths`): it books the retired prefix, parks
  pc on the access, translates, repairs a fault and makes the checked
  word access. A fault leaves through ``EXIT_FAULT`` with nothing of
  the access retired, and the engine retries it. Otherwise a block body
  carries on, forgetting its hoisted probes (the tail may have evicted
  a TLB entry one stands for), and the tail takes the prefix back out
  so the next exit books it once. A chain leaves instead, parked past
  the access, so its probes stay hoisted; the engine carries on
  through the member's block bodies. A probe group whose span would
  cross a page takes the same exit at its head.
* **Hooked accesses in the body.** An *observing* hook (the default,
  see ``CachedBlock.set_hook``) may read the counters and pc, so a
  hooked access first calls the shared ``hooked`` exit
  (:func:`cold_paths`): it books the retired prefix and parks pc on the
  instruction, so the hook sees exactly the reference tier's counters
  and pc, and calls the hook. A *quiet* hook reads none of them, so the
  body calls it directly and books nothing in front of it: the next
  exit or tail books the whole prefix, as for an unhooked access.
  Either way the body then forgets every hoisted probe and accesses the
  address the hook returned, through the tail when the probe misses,
  the address is misaligned or the hook flushed code
  (``engine._cache_dirty``; the body then leaves through
  ``EXIT_REFETCH``).
* **Guards.** MOD checks its divisor and RET the call stack: both raise
  in the reference, so the body parks in front of them with the prefix
  booked, and the engine runs the instruction through ``CPU.execute``.
  A chain also guards each predicted branch direction, and each
  member's identity (``member.compiled is`` the baked block).
* **Deferred exact accounting.** Between two observation points nothing
  can read simulated state, so every counter the reference bumps per
  instruction (instruction cycles, instruction and memory-ref counts,
  TLB hit bookkeeping, instrumented executions; for chains also the
  dispatch charges and execution counts) is summed at generation time
  and applied as constants at each exit, bit-identical to the
  interpreter.

Kernel operations, HALT and MOD by a literal zero never enter a body:
the engine runs them through ``CPU.execute``. Hooks exist only on memory
positions and are set only while a block is built, by the tool's
``instrument_block``, so a body binds its hooks once; every path that
changes a block's hooks flushes the block, taking its
:class:`CompiledBlock` and bodies with it.

Generation cost is paid per distinct block content, not per block: the
emitter sees only :class:`Slot` tuples (block indices and branch
targets are bound as globals), and the code object is memoized by that
shape (:func:`body_code`). Each body is still its own function, bound
to globals of its own engine and block. Every body books its exits,
its memory tail and the prefix in front of each observing hook call
through the same shared helpers (:func:`cold_paths`), which keeps the
memoized code small.

Correctness bar: bit-identical simulated stats — cycles, fault counts,
race reports, chaos replay logs, trace attribution — versus the
interpreter tier (see ``tests/dbr/test_compiled_parity.py``).
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType, FunctionType
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import costs
from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES, Opcode
from repro.machine.paging import PAGE_SHIFT, PAGE_SIZE, PageFault

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PAGE_MASK = PAGE_SIZE - 1

#: Exit protocol: a body returns the retired instruction count and
#: leaves ``(member index, code)`` in the engine's exit cell.
EXIT_COMPLETE = 0   #: control transferred; pc set to the successor
EXIT_RESUME = 1     #: pc parked inside (or just past) member exit[0];
#: the engine carries on in that block without re-charging its dispatch
EXIT_REFETCH = 2    #: a chain's branch deviated (the branch retired, pc
#: set to the actual target) or a hook flushed code (the hooked access
#: retired, pc set past it): the engine re-fetches normally
EXIT_STALE = 3      #: a chain's identity guard failed: nothing was
#: booked; the engine drops the superblock and falls back
EXIT_FAULT = 4      #: a memory access faulted: the prefix is booked,
#: pc sits on the instruction and the fault is repaired; the engine
#: re-fetches and retries it

#: Pure-ALU opcodes: register-file-only semantics, cannot fault, trap or
#: raise.
ALU_OPCODES = frozenset((
    Opcode.NOP, Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB,
    Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR,
))

#: Opcodes a body can hold at any position: pure ALU, memory accesses,
#: hooked or not, and MOD (guarded on its divisor).
BODY_OPCODES = ALU_OPCODES | MEMORY_OPCODES | frozenset(
    (Opcode.MOD,))

#: Control opcodes a body holds as its final instruction — the block
#: terminators plus CALL, which the ISA allows mid-block: a mid-block
#: CALL ends a block body, and makes the block unstitchable because a
#: chain would have to span the callee and the return site.
TAIL_OPCODES = frozenset((
    Opcode.JMP, Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
    Opcode.CALL, Opcode.RET,
))

_BRANCH_OPCODES = frozenset((Opcode.BZ, Opcode.BNZ, Opcode.BLT,
                             Opcode.BGE))

#: Widest displacement span one grouped page probe covers. Every entry
#: whose group head lands in the last ``span`` bytes of its page leaves
#: the chain, so a wider group would trade saved probes for side exits;
#: 256 bytes bounds that at one entry in sixteen.
MAX_GROUP_SPAN = 256


def _holdable(instr) -> bool:
    """Can a body hold this instruction? Not a kernel action or HALT,
    and not a MOD by a literal zero (it always raises)."""
    op = instr.op
    if op is Opcode.MOD:
        return instr.rs2 is not None or instr.imm != 0
    return op in BODY_OPCODES or op in TAIL_OPCODES


class Slot(NamedTuple):
    """One instruction as the emitter sees it.

    Block indices and branch targets are left out on purpose (bodies
    read them from their globals), so blocks with the same content share
    one generated source.
    """

    op: Opcode
    rd: Optional[int]
    rs1: Optional[int]
    rs2: Optional[int]
    imm: int
    base: Optional[int]
    disp: int
    hooked: bool
    #: The hook is quiet (see ``CachedBlock.set_hook``): called
    #: directly, with no booking in front of it.
    quiet: bool


#: Slots are shared across blocks, so the body memo's keys hold one copy
#: of each instruction content rather than a copy per dead block.
_slot = lru_cache(maxsize=4096)(Slot)


class CompiledBlock:
    """The compiled form of one cached block.

    ``limits[ii]`` is where a body entered at ``ii`` must stop: the
    first position no body can hold (``limits[ii] == ii`` means the
    instruction at ``ii`` runs through ``CPU.execute``), or just past the
    first control transfer. The engine clips it further to the quantum
    budget, and ``bodies[(start, stop)]`` caches each variant, built on
    first use by :func:`block_body`. ``overhead`` is the per-instruction
    residency overhead the charges were summed with — the engine treats
    a mismatch as stale and recompiles.
    """

    __slots__ = ("overhead", "length", "limits", "slots", "bodies",
                 "globals", "stitchable")

    def __init__(self, overhead: int, limits: List[int],
                 slots: Tuple[Slot, ...], stitchable: bool):
        self.overhead = overhead
        self.length = len(slots)
        self.limits = limits
        self.slots = slots
        self.bodies: Dict[Tuple[int, int], object] = {}
        #: The globals every body of this block shares (first use).
        self.globals: Optional[dict] = None
        #: True when the source block qualifies as a superblock chain
        #: member: one body holds all of it. Computed once here so the
        #: chain planner's hot path is one attribute read.
        self.stitchable = stitchable


def compile_block(cached, engine) -> CompiledBlock:
    """Compile a cached block against ``engine``'s current overhead.

    Only the block's shape and stop positions are computed here; bodies
    are generated when the engine first enters each ``(start, stop)``.
    """
    slots = []
    quiet = cached.quiet
    for pos, (instr, hook) in enumerate(zip(cached.instrs, cached.hooks)):
        mem = instr.mem
        slots.append(_slot(instr.op, instr.rd, instr.rs1, instr.rs2,
                          instr.imm, mem.base if mem else None,
                          mem.disp if mem else 0, hook is not None,
                          pos in quiet))
    limits = [0] * len(slots)
    stop = len(slots)
    for pos in range(len(slots) - 1, -1, -1):
        instr = cached.instrs[pos]
        if not _holdable(instr):
            stop = pos
        elif instr.op in TAIL_OPCODES:
            stop = pos + 1
        limits[pos] = stop
    # A chain member must be one whole body: no position a body cannot
    # hold, and a control transfer only at the end.
    return CompiledBlock(engine.overhead_per_instr, limits, tuple(slots),
                         bool(slots) and limits[0] == len(slots))


def block_body(cached, compiled: CompiledBlock, start: int, stop: int,
               engine):
    """Build (and keep on ``compiled``) the body for ``[start, stop)``.

    The engine enters a block body after its own fetch, which charged
    the dispatch and counted the execution, so the body books neither
    and needs no identity guard. Every variant of one block shares one
    globals dict.
    """
    if compiled.globals is None:
        compiled.globals = body_globals(
            engine, ((cached, 0, compiled.length),), chain=False)
    fn = FunctionType(body_code(False, compiled.overhead, start,
                                ((0, compiled.slots[start:stop], False),)),
                      compiled.globals)
    compiled.bodies[start, stop] = fn
    engine.codecache.bodies_built += 1
    return fn


#: Flag bits of a tail call's ``mode`` argument.
_HOOKED, _RESUME = 1, 2


def cold_paths(engine):
    """The exits generated bodies share, bound to one engine.

    Exits are a small share of a body's run time but most of its code,
    so every body, block or chain, books through these and the memoized
    code objects stay small. Each takes the not-yet-booked part of the
    retired prefix as trailing arguments, zeros left off: instruction
    cycles, instructions, fast-path memory refs, instrumented
    executions, dispatch cycles (``*prefix`` below). ``leave`` and
    ``hooked`` spell these parameters out: packing and unpacking
    ``*prefix`` costs about a third more per call. ``leave``, which
    every body exit calls, also repeats ``book`` inline, so that an
    exit is one call.
    ``pc0`` is the block index to set, or None when pc[0] already holds
    it.

    ``leave(thread, pc0, pc1, idx, code, retired, *prefix)`` books the
    prefix, sets pc and the exit cell and returns ``retired``.

    ``hooked(thread, hook, instr, ea, pc0, pos, *prefix)`` runs in front
    of an access with an observing hook: book the prefix (which stays
    booked) and park pc on the access, call the hook and return the
    address to access. Quiet hooks are called from the body itself.

    ``tail(thread, ea, instr, pc0, pos, idx, retired, charge, mode,
    *prefix)`` is the shared memory tail, for hooked and unhooked
    accesses alike: book the prefix and park pc on the access, so a
    fault repair sees the reference tier's state; probe the TLB
    micro-cache for ``ea``, fall back to the platform's ``translate`` on
    a miss (counting TLB hits and misses exactly as the interpreter path
    would), and route a page fault through ``kernel.repair_fault``
    (``EXIT_FAULT``: nothing of the access retired, the engine retries
    it). Otherwise access the word through ``read_word``/``write_word``,
    which raise on a misaligned address like the reference. With
    ``_RESUME`` in ``mode`` the tail returns -1 and the body carries on
    after the access; otherwise, or when code was flushed, it books the
    retire and leaves parked past the access (``EXIT_RESUME``, or
    ``EXIT_REFETCH`` after a flush).
    """
    counter = engine.counter
    dbr_cycles = engine._dbr_cycles
    stats = engine.stats
    exit_cell = engine._exit
    translate = engine.cpu.translate
    repair_fault = engine.kernel.repair_fault
    memory = engine.cpu.memory
    read_word = memory.read_word
    write_word = memory.write_word

    def book(thread, pc0, pos, cycles=0, instructions=0, refs=0,
             instrumented=0, dispatch=0):
        counter.instr_cycles += cycles
        stats.instructions += instructions
        if refs:
            tlb = thread.tlb
            stats.memory_refs += refs
            tlb.hits += refs
            tlb.fast_hits += refs
        if instrumented:
            stats.instrumented_execs += instrumented
        if dispatch:
            dbr_cycles[0] += dispatch
        pc = thread.pc
        if pc0 is not None:
            pc[0] = pc0
        pc[1] = pos
        return pc

    def leave(thread, pc0, pc1, idx, code, retired, cycles=0,
              instructions=0, refs=0, instrumented=0, dispatch=0):
        counter.instr_cycles += cycles
        stats.instructions += instructions
        if refs:
            tlb = thread.tlb
            stats.memory_refs += refs
            tlb.hits += refs
            tlb.fast_hits += refs
        if instrumented:
            stats.instrumented_execs += instrumented
        if dispatch:
            dbr_cycles[0] += dispatch
        pc = thread.pc
        if pc0 is not None:
            pc[0] = pc0
        pc[1] = pc1
        exit_cell[0] = idx
        exit_cell[1] = code
        return retired

    def hooked(thread, hook, instr, ea, pc0, pos, cycles=0,
               instructions=0, refs=0, instrumented=0, dispatch=0):
        book(thread, pc0, pos, cycles, instructions, refs, instrumented,
             dispatch)
        override = hook(thread, instr, ea)
        return ea if override is None else override

    def tail(thread, ea, instr, pc0, pos, idx, retired, charge, mode,
             *prefix):
        pc = book(thread, pc0, pos, *prefix)
        exit_cell[0] = idx
        op = instr.op
        is_load = op is Opcode.LOAD
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
                repair_fault(thread, fault)
                exit_cell[1] = EXIT_FAULT
                return retired
        regs = thread.regs
        if is_load:
            regs[instr.rd] = read_word(paddr)
        elif op is Opcode.STORE:
            write_word(paddr, regs[instr.rs1])
        else:  # ATOMIC_ADD
            old = read_word(paddr)
            write_word(paddr, (old + regs[instr.rs1]) & _MASK64)
            if instr.rd is not None:
                regs[instr.rd] = old
        if mode & _RESUME and not engine._cache_dirty:
            # Back into the body, which books the prefix and this
            # access (as a fast-path hit) at its next exit: take both
            # back out. Nothing observes the counters before then.
            tlb.hits -= 1
            tlb.fast_hits -= 1
            book(thread, None, pos, *[-v for v in prefix])
            return -1
        counter.instr_cycles += charge
        stats.instructions += 1
        stats.memory_refs += 1
        stats.instrumented_execs += mode & _HOOKED
        pc[1] = pos + 1
        exit_cell[1] = EXIT_REFETCH if engine._cache_dirty else EXIT_RESUME
        return retired + 1

    return leave, hooked, tail


def body_globals(engine, spans, *, chain: bool) -> dict:
    """The globals a body reads, named the way :func:`body_source`
    names them.

    ``spans`` lists ``(cached, start, stop)`` per member, in emission
    order. Per distinct member ``f``: ``b<f>`` (its block index) and,
    for chains, ``m<f>``/``c<f>`` (the block and the CompiledBlock the
    body was built from). Per emitted position ``k`` (the block position
    for a block body, counted across members for a chain): ``i<k>`` and
    ``h<k>`` (a memory instruction and its hook), ``g<k>`` (a branch or
    call target).
    """
    base = engine._codegen_globals
    if base is None:
        words = engine.cpu.memory._words
        leave, hooked, tail = cold_paths(engine)
        base = engine._codegen_globals = {
            "_mw": words, "_mw_get": words.get, "_exit": engine._exit,
            "_eng": engine, "_leave": leave, "_hooked": hooked,
            "_tail": tail}
    glb = dict(base)
    label_index = engine.codecache.program.label_index
    firsts: Dict[int, int] = {}
    offset = 0
    for cached, start, stop in spans:
        if id(cached) not in firsts:
            f = firsts[id(cached)] = len(firsts)
            glb[f"b{f}"] = cached.block_index
            if chain:
                glb[f"m{f}"] = cached
                glb[f"c{f}"] = cached.compiled
        for pos in range(start, stop):
            instr = cached.instrs[pos]
            k = offset + pos
            if instr.mem is not None:
                glb[f"i{k}"] = instr
                if cached.hooks[pos] is not None:
                    glb[f"h{k}"] = cached.hooks[pos]
            elif instr.label is not None:
                glb[f"g{k}"] = label_index(instr.label)
        offset += stop - start
    return glb


@lru_cache(maxsize=2048)
def body_code(chain: bool, overhead: int, start: int,
              members: tuple) -> CodeType:
    """The code object of one body, memoized by its shape.

    Small programs repeat the same block contents many times over (for
    the quick fuzz campaign's counts see ``docs/performance.md``). The
    memo keeps neither the source nor the module code, only the
    function's code object; every caller binds it to its own globals,
    so each body is its own function bound to its own engine and block.
    Arguments as for :func:`body_source`.
    """
    module = compile(body_source(chain, overhead, start, members),
                     "<superblock>" if chain else "<block>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _alu_statement(s: Slot) -> Optional[str]:
    """Render one pure-ALU instruction as a Python statement on ``regs``.

    Mirrors the matching ``CPU.execute`` arm exactly; operands are baked
    as literals. Returns None for NOP (no statement).
    """
    op = s.op
    if op is Opcode.NOP:
        return None
    rd = s.rd
    if op is Opcode.LI:
        return f"regs[{rd}] = {s.imm & _MASK64}"
    rs1 = s.rs1
    if op is Opcode.MOV:
        return f"regs[{rd}] = regs[{rs1}]"
    rs2 = s.rs2
    rhs = f"regs[{rs2}]" if rs2 is not None else repr(s.imm)
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
    shift = f"(regs[{rs2}] & 63)" if rs2 is not None else str(s.imm & 63)
    if op is Opcode.SHL:
        return f"regs[{rd}] = (regs[{rs1}] << {shift}) & {_MASK64}"
    if op is Opcode.SHR:
        return f"regs[{rd}] = regs[{rs1}] >> {shift}"
    raise AssertionError(f"not a segment opcode: {op}")  # pragma: no cover


def _taken_cond(s: Slot) -> str:
    op = s.op
    if op is Opcode.BZ:
        return f"regs[{s.rs1}] == 0"
    if op is Opcode.BNZ:
        return f"regs[{s.rs1}] != 0"
    if op is Opcode.BLT:
        return f"regs[{s.rs1}] < regs[{s.rs2}]"
    return f"regs[{s.rs1}] >= regs[{s.rs2}]"  # BGE


def _not_taken_cond(s: Slot) -> str:
    op = s.op
    if op is Opcode.BZ:
        return f"regs[{s.rs1}] != 0"
    if op is Opcode.BNZ:
        return f"regs[{s.rs1}] == 0"
    if op is Opcode.BLT:
        return f"regs[{s.rs1}] >= regs[{s.rs2}]"
    return f"regs[{s.rs1}] < regs[{s.rs2}]"  # BGE


def _probe_groups(slots) -> Tuple[Dict[int, Tuple[int, int]],
                                   Dict[int, int]]:
    """Group a chain's unhooked register-relative accesses by page probe.

    An access joins the group of the first access on its base register
    (the head) when its displacement sits an 8-aligned ``delta`` in
    ``[0, MAX_GROUP_SPAN]`` past the head's, up to the next write of the
    base register or the next hook call. Returns ``{position: (head,
    delta)}`` for the accesses of groups with more than one displacement
    (heads included, with delta 0) and ``{head: span}``, the span being
    the group's largest delta.
    """
    heads: Dict[int, int] = {}
    deltas: Dict[int, Tuple[int, int]] = {}
    spans: Dict[int, int] = {}
    for j, s in enumerate(slots):
        if s.op in MEMORY_OPCODES:
            if s.hooked:
                heads.clear()
            elif s.base is not None:
                head = heads.setdefault(s.base, j)
                delta = s.disp - slots[head].disp
                if 0 <= delta <= MAX_GROUP_SPAN and not delta & 7:
                    deltas[j] = (head, delta)
                    spans[head] = max(spans.get(head, 0), delta)
        heads.pop(s.rd, None)
    spans = {head: span for head, span in spans.items() if span}
    return ({j: hd for j, hd in deltas.items() if hd[0] in spans},
            spans)


def body_source(chain: bool, overhead: int, start: int,
                members: tuple) -> str:
    """Generate the source of one body (see the module docstring).

    ``members`` holds one ``(f, slots, follows_taken)`` per member: ``f``
    numbers distinct blocks in order of first appearance (an unrolled
    loop repeats them), ``slots`` are the instructions the body covers,
    and ``follows_taken`` says a chain member's final branch is
    predicted taken. A block body has one member whose slots start at
    block position ``start``; a chain (``chain=True``) covers whole
    blocks and also books each member's dispatch and execution count.
    """
    lines: List[str] = ["def _body(thread):"]
    emit = lines.append
    last = len(members) - 1
    if chain:
        # Prologue identity guards: the baked CompiledBlock stands in
        # for "the member's hook set is unchanged" — every path that
        # changes it flushes the block. Nothing is booked on a stale
        # exit.
        for f in range(1 + max(m[0] for m in members)):
            emit(f"    if m{f}.compiled is not c{f}:")
            emit(f"        _exit[1] = {EXIT_STALE}")
            emit("        return 0")
    emit("    regs = thread.regs")
    all_slots = [s for m in members for s in m[1]]
    probed = [s.op for s in all_slots if s.op in MEMORY_OPCODES]
    if Opcode.LOAD in probed:
        emit("    fr = thread.tlb.fast_ro")
    if Opcode.STORE in probed or Opcode.ATOMIC_ADD in probed:
        emit("    fw = thread.tlb.fast_rw")

    # Generation-time accounting: everything the reference books per
    # instruction is summed here and emitted as constants at each exit
    # site — minus what the body already booked in front of a hook call
    # (``booked``).
    cyc = 0       # retired instruction cycles so far
    icount = 0    # retired instructions so far
    mems = 0      # retired fast-path memory refs so far
    hooked = 0    # retired fast-path hooked accesses so far
    booked = {"dispatches": 0, "cyc": 0, "icount": 0, "mems": 0,
              "hooked": 0}
    # pc[0] is the first member's block on entry, and only parks write
    # it mid-body; None once it is unknown (see ``emit_hooked``).
    state = {"vno": 0, "pc0": 0}
    # TLB probe hoisting: page-base vars established earlier in the
    # body. Literal pages key on the page number; register-relative
    # pages key on (base_reg, disp) and die when the base register is
    # rewritten. Both die at a hook call. A fast_rw hit satisfies later
    # fast_ro needs (the writable map is a subset of the readable one).
    reuse_const: Dict[int, Dict[str, str]] = {}
    reuse_reg: Dict[Tuple[Optional[int], int],
                    Tuple[str, Dict[str, str]]] = {}
    # Grouped page probes (chains only, see :func:`_probe_groups`): per
    # group head, its effective-address and word-index vars and whether
    # the group has probed the writable map.
    groups, spans = _probe_groups(all_slots) if chain else ({}, {})
    group_vars: Dict[int, List] = {}

    def fresh(prefix: str) -> str:
        state["vno"] += 1
        return f"{prefix}{state['vno']}"

    def kill(reg: Optional[int]) -> None:
        for key in [key for key in reuse_reg if key[0] == reg]:
            del reuse_reg[key]

    def dispatches(idx: int) -> int:
        return idx + 1 if chain else 0

    def prefix_args(dispatched: int, cyc_: int, icount_: int) -> str:
        """The not-yet-booked part of a retired prefix (memory and hooked
        counts are the running totals) as trailing arguments of a shared
        exit (:func:`cold_paths`), zeros left off."""
        prefix = [cyc_ - booked["cyc"], icount_ - booked["icount"],
                  mems - booked["mems"], hooked - booked["hooked"],
                  (dispatched - booked["dispatches"]) * costs.BLOCK_DISPATCH]
        while prefix and not prefix[-1]:
            prefix.pop()
        return "".join(f", {v}" for v in prefix)

    def pc0_arg(f: int) -> str:
        """The ``pc0`` argument of a shared exit in member block ``f``."""
        return "None" if state["pc0"] == f else f"b{f}"

    def leave(ind: str, pc0: str, pc1, idx: int, code: int,
              dispatched: int, cyc_: int, icount_: int) -> None:
        """Exit: book the rest of the prefix and set pc (``pc0`` None:
        pc[0] already holds the block)."""
        emit(f"{ind}return _leave(thread, {pc0}, {pc1}, {idx}, {code}, "
             f"{icount_}{prefix_args(dispatched, cyc_, icount_)})")

    def park(ind: str, idx: int, f: int, pos: int, dispatched: int,
             cyc_: int, icount_: int) -> None:
        """Exit with pc parked at ``pos`` inside member ``idx``; the
        engine carries on in that block without re-charging its
        dispatch."""
        leave(ind, pc0_arg(f), pos, idx, EXIT_RESUME, dispatched, cyc_,
              icount_)

    def complete(ind: str, pc0: str, pc1) -> None:
        leave(ind, pc0, pc1, last, EXIT_COMPLETE, dispatches(last), cyc,
              icount)

    def tail_args(s: Slot, idx: int) -> str:
        """``retired, charge, mode, *prefix`` of a tail call (see
        :func:`cold_paths`)."""
        mode = (_HOOKED if s.hooked else 0) | (_RESUME if resumes(s) else 0)
        return (f"{icount}, {BASE_COST[s.op] + overhead}, {mode}"
                f"{prefix_args(dispatches(idx), cyc, icount)}")

    def resumes(s: Slot) -> bool:
        """Does the body carry on after this access's tail? A block body
        does, forgetting every hoisted probe (the tail may have evicted
        one). A chain does after a hooked access, whose hook already
        made it forget them; after an unhooked miss it leaves, keeping
        its probes hoisted."""
        return not chain or s.hooked

    def slow_path(s: Slot, idx: int, f: int, pos: int, k: int,
                  ea: str) -> str:
        """Inside a miss guard: run the access through the memory tail
        (see :func:`resumes`). Returns the indent of the fast access,
        which goes under ``else`` when the body carries on."""
        call = (f"_tail(thread, {ea}, i{k}, {pc0_arg(f)}, {pos}, {idx}, "
                f"{tail_args(s, idx)})")
        if not resumes(s):
            emit(f"        return {call}")
            return "    "
        emit(f"        r = {call}")
        emit("        if r >= 0:")
        emit("            return r")
        emit("    else:")
        return "        "

    def emit_access(ind: str, s: Slot, word: str) -> None:
        """The access itself, on the physical word index ``word``."""
        op = s.op
        if op is Opcode.LOAD:
            emit(f"{ind}regs[{s.rd}] = _mw_get({word}, 0)")
            kill(s.rd)
        elif op is Opcode.STORE:
            emit(f"{ind}_mw[{word}] = regs[{s.rs1}] & {_MASK64}")
        else:  # ATOMIC_ADD
            wi = fresh("wi")
            old = fresh("old")
            emit(f"{ind}{wi} = {word}")
            emit(f"{ind}{old} = _mw_get({wi}, 0)")
            emit(f"{ind}_mw[{wi}] = ({old} + regs[{s.rs1}]) & {_MASK64}")
            if s.rd is not None:
                emit(f"{ind}regs[{s.rd}] = {old}")
                kill(s.rd)

    def emit_hooked(s: Slot, idx: int, f: int, pos: int, k: int) -> None:
        nonlocal cyc, icount, mems, hooked
        # The hook may have changed any translation.
        reuse_const.clear()
        reuse_reg.clear()
        ea = fresh("ea")
        ea_expr = (str(s.disp) if s.base is None
                   else f"(regs[{s.base}] + {s.disp}) & {_MASK64}")
        if s.quiet:
            # Nothing is booked and pc stays where it was. A tail that
            # resumes below parks pc[0] on this member, so from here on
            # pc[0] is known only if it already held it.
            override = fresh("o")
            emit(f"    {ea} = {ea_expr}")
            emit(f"    {override} = h{k}(thread, i{k}, {ea})")
            emit(f"    if {override} is not None:")
            emit(f"        {ea} = {override}")
            if state["pc0"] != f:
                state["pc0"] = None
        else:
            # The shared ``hooked`` exit books the prefix, parks pc and
            # calls the hook.
            emit(f"    {ea} = _hooked(thread, h{k}, i{k}, {ea_expr}, "
                 f"{pc0_arg(f)}, {pos}"
                 f"{prefix_args(dispatches(idx), cyc, icount)})")
            booked.update(dispatches=dispatches(idx), cyc=cyc,
                          icount=icount, mems=mems, hooked=hooked)
            state["pc0"] = f
        pb = fresh("pb")
        fmap = "fr" if s.op is Opcode.LOAD else "fw"
        emit(f"    {pb} = {fmap}.get({ea} >> {PAGE_SHIFT})")
        emit(f"    if {pb} is None or {ea} & 7 or _eng._cache_dirty:")
        emit_access(slow_path(s, idx, f, pos, k, ea), s,
                    f"({pb} | ({ea} & {_PAGE_MASK})) >> 3")
        cyc += BASE_COST[s.op] + overhead
        icount += 1
        mems += 1
        hooked += 1

    def emit_mem(s: Slot, idx: int, f: int, pos: int, k: int) -> None:
        nonlocal cyc, icount, mems
        if s.hooked:
            emit_hooked(s, idx, f, pos, k)
            return
        need_rw = s.op is not Opcode.LOAD
        mode = "rw" if need_rw else "ro"
        fmap = "fw" if need_rw else "fr"
        ind = None  # set when this access probes afresh
        if k in groups:
            word = grouped_word(s, idx, f, pos, k, need_rw)
        elif s.base is None and not s.disp & 7:
            page = s.disp >> PAGE_SHIFT
            off = s.disp & _PAGE_MASK
            modes = reuse_const.setdefault(page, {})
            pb = modes.get("rw") or (None if need_rw else modes.get("ro"))
            if pb is None:
                pb = fresh("pb")
                emit(f"    {pb} = {fmap}.get({page})")
                emit(f"    if {pb} is None:")
                ind = slow_path(s, idx, f, pos, k, str(s.disp))
                modes[mode] = pb
            word = f"({pb} | {off}) >> 3" if off else f"{pb} >> 3"
        else:
            # Register-relative, or a literal misaligned address (which
            # always takes the tail: its first probe vets alignment).
            key = (s.base, s.disp)
            rec = reuse_reg.get(key)
            if rec is None:
                ea = fresh("ea")
                if s.base is None:
                    emit(f"    {ea} = {s.disp}")
                else:
                    emit(f"    {ea} = (regs[{s.base}] + {s.disp})"
                         f" & {_MASK64}")
                rec = reuse_reg[key] = (ea, {})
            ea, modes = rec
            pb = modes.get("rw") or (None if need_rw else modes.get("ro"))
            if pb is None:
                pb = fresh("pb")
                emit(f"    {pb} = {fmap}.get({ea} >> {PAGE_SHIFT})")
                emit(f"    if {pb} is None or {ea} & 7:" if not modes
                     else f"    if {pb} is None:")
                ind = slow_path(s, idx, f, pos, k, ea)
                modes[mode] = pb
            word = f"({pb} | ({ea} & {_PAGE_MASK})) >> 3"
        emit_access(ind or "    ", s, word)
        if ind is not None and not chain:
            # A block body carried on after the tail, which may have
            # evicted any hoisted probe.
            reuse_const.clear()
            reuse_reg.clear()
        cyc += BASE_COST[s.op] + overhead
        icount += 1
        mems += 1

    def grouped_word(s: Slot, idx: int, f: int, pos: int, k: int,
                     need_rw: bool) -> str:
        """Probe for a grouped access, returning its word index: the
        head probes for its whole group and guards that the group's span
        stays on its page and is aligned; a member indexes from the
        head's word. The first store of a group whose head only read
        probes the writable map, for the group. A miss or a failed
        guard takes the access's tail and the chain leaves."""
        head, delta = groups[k]
        if head == k:
            ea, pb, w = fresh("ea"), fresh("pb"), fresh("w")
            emit(f"    {ea} = (regs[{s.base}] + {s.disp}) & {_MASK64}")
            emit(f"    {pb} = {'fw' if need_rw else 'fr'}"
                 f".get({ea} >> {PAGE_SHIFT})")
            emit(f"    if {pb} is None or {ea} & 7"
                 f" or ({ea} & {_PAGE_MASK}) > {_PAGE_MASK - spans[k]}:")
            slow_path(s, idx, f, pos, k, ea)
            emit(f"    {w} = ({pb} | ({ea} & {_PAGE_MASK})) >> 3")
            group_vars[k] = [ea, w, need_rw]
            return w
        ea, w, writable = group_vars[head]
        if need_rw and not writable:
            # Both maps hold the same page base for a page they both
            # hold (``TLB.fill``), so the head's word index stands for
            # this probe's too.
            pb = fresh("pb")
            emit(f"    {pb} = fw.get({ea} >> {PAGE_SHIFT})")
            emit(f"    if {pb} is None:")
            slow_path(s, idx, f, pos, k, f"{ea} + {delta}")
            group_vars[head][2] = True
        return f"{w} + {delta >> 3}" if delta else w

    offset = 0
    for idx, (f, slots, follows_taken) in enumerate(members):
        first = start if not chain else 0
        end = first + len(slots)
        if chain:
            # The member's fetch bookkeeping: the reference tier's
            # codecache.get() bumps the execution count on every entry
            # (dispatch cycles are summed into the exit constants; the
            # promotion check is provably dead here — every member is
            # already in_trace, a build precondition).
            emit(f"    m{f}.executions += 1")
        for pos, s in enumerate(slots, first):
            k = offset + pos
            op = s.op
            charge = BASE_COST[op] + overhead
            if op in ALU_OPCODES:
                stmt = _alu_statement(s)
                if stmt is not None:
                    emit(f"    {stmt}")
                    kill(s.rd)
            elif op is Opcode.MOD:
                if s.rs2 is not None:
                    # The zero check raises *before* charging in the
                    # reference: park with MOD unretired.
                    emit(f"    if regs[{s.rs2}] == 0:")
                    park("        ", idx, f, pos, dispatches(idx), cyc,
                         icount)
                    rhs = f"regs[{s.rs2}]"
                else:
                    rhs = repr(s.imm)  # a literal zero is not holdable
                emit(f"    regs[{s.rd}] = regs[{s.rs1}] % {rhs}")
                kill(s.rd)
            elif op in MEMORY_OPCODES:
                emit_mem(s, idx, f, pos, k)
                continue
            elif op is Opcode.JMP or op is Opcode.CALL:
                if op is Opcode.CALL:
                    emit(f"    thread.call_stack.append((b{f}, {pos + 1}))")
                cyc += charge
                icount += 1
                if idx == last:
                    complete("    ", f"g{k}", 0)
                continue
            elif op is Opcode.RET:
                # RET charges before raising on an empty stack: park it
                # unretired; CPU.execute books it and raises.
                emit("    if not thread.call_stack:")
                park("        ", idx, f, pos, dispatches(idx), cyc, icount)
                cyc += charge
                icount += 1
                ra = fresh("ra")
                emit(f"    {ra} = thread.call_stack.pop()")
                complete("    ", f"{ra}[0]", f"{ra}[1]")
                continue
            elif op in _BRANCH_OPCODES:
                # A not-taken branch in the reference does NOT transfer
                # control: it parks pc just past the block end and the
                # engine advances on its next loop iteration — a state a
                # quantum boundary can observe. Not-taken outcomes
                # therefore park at ``pos + 1`` with the branch retired.
                if idx == last:
                    emit(f"    if {_taken_cond(s)}:")
                    cyc += charge
                    icount += 1
                    complete("        ", f"g{k}", 0)
                    park("    ", idx, f, pos + 1, dispatches(idx), cyc,
                         icount)
                elif follows_taken:
                    emit(f"    if {_not_taken_cond(s)}:")
                    park("        ", idx, f, pos + 1, idx + 1,
                         cyc + charge, icount + 1)
                else:
                    emit(f"    if {_taken_cond(s)}:")
                    leave("        ", f"g{k}", 0, idx, EXIT_REFETCH, idx + 1,
                          cyc + charge, icount + 1)
                if idx != last:
                    cyc += charge
                    icount += 1
                continue
            cyc += charge
            icount += 1
        if idx == last and slots[-1].op not in TAIL_OPCODES:
            # Fell off the end: like a not-taken branch, the reference
            # parks pc past the last instruction.
            park("    ", idx, f, end, dispatches(idx), cyc, icount)
        offset += len(slots)
    return "\n".join(lines)
