"""Superblock tier: hot block chains compiled into one function.

The compiled tier (:mod:`repro.dbr.blockcompiler`) still dispatches
block by block: every block entry pays a cache probe, a dispatch
charge, and one Python-level step dispatch per fused unit. This module
is the trace half of the third execution tier — it stitches a *chain*
of already-compiled hot blocks (selected by
:class:`~repro.dbr.traceprofiler.TraceProfiler`) into one
exec()-generated straight-line function, the moral equivalent of a
DynamoRIO trace:

* **Straight-line body.** Every ALU instruction becomes one Python
  statement (same rendering as the block compiler's fused segments),
  every memory access an inline guarded load/store, every
  chain-internal control transfer disappears into fallthrough.
* **Guard-protected side exits.** The body is only valid while its
  assumptions hold, and each assumption is a guard: a *branch-direction
  guard* where the chain predicts a conditional branch, a *TLB guard*
  where a fast-map probe may miss, a *divisor guard* before MOD, an
  *empty-stack guard* before RET, and per-member *identity guards* in
  the prologue (``member.compiled is`` the baked closure) that
  subsume hook-set and elision-plan staleness — any hook addition or
  elision retirement drops or replaces the member's closure, changing
  identity. A failing guard books the *exact* accounting of the
  already-retired prefix and side-exits: either parked on the failing
  position for the engine to resume through the member's ordinary step
  list (``EXIT_RESUME``), or with the deviating branch retired and the
  pc pointing at the actual successor (``EXIT_REFETCH``).
* **Hoisted checks.** TLB fast-map probes are deduplicated across the
  body: a page probed once (a literal-address page, or the same
  base-register+displacement while the base register is unmodified) is
  reused by every later access to it up to the next hook call, and a
  writable-map hit stands in for later read probes — so translation
  checks run once per stretch of body instead of once per instruction.
  ``--static-elide``-approved accesses keep their elision exactly as
  the block compiler granted it (the plan's uids, minus retirements,
  frozen at build time; a later retirement invalidates the superblock
  through the code cache's invalidation listeners).
* **Deferred exact accounting.** Between two hook calls nothing can
  observe simulated state: there is no fault repair, no tick, no yield
  point. Every counter the reference tier bumps per instruction
  (dispatch charges, instruction cycles, instruction and memory-ref
  counts, TLB hit bookkeeping, instrumented executions) is therefore
  pre-summed at compile time and applied as constants at each exit
  site, bit-identical to the interpreter by the same argument that
  justifies the block compiler's fused segments.
* **Hooked accesses inline.** A tool's hook is an observation point,
  so in front of each hooked LOAD/STORE/ATOMIC_ADD the body books the
  retired prefix (the constants a side exit there would book) and
  parks pc on the instruction: the hook sees exactly the reference
  tier's counters and pc. The body then calls the hook, forgets every
  hoisted probe, and accesses the address the hook returned through
  the same fast-map probe. A miss or a misaligned address runs the
  compiled hooked step's own tail (:func:`hooked_tail`: translate,
  fault repair, word access, charges) without calling the hook again;
  a fault there leaves through ``EXIT_FAULT`` with pc on the
  instruction, so the engine retries it through the hook like its MEM
  arm does. A hook that flushed code (``engine._cache_dirty``) ends the
  body right after the access (``EXIT_REFETCH``). Kernel operations
  and HALT stay out of chains (:func:`chain_stitchable`).

The parity contract is the same as the compiled tier's: bit-identical
simulated statistics, race reports, chaos replay logs and cycle
attribution versus the interpreter, enforced by
``tests/dbr/test_compiled_parity.py``, the scengen oracle's
``tier_parity_*_superblock`` checks and the three-tier parity stanza of
``scripts/smoke.sh``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import costs
from repro.dbr.blockcompiler import (
    _MASK64,
    _PAGE_MASK,
    _seg_statement,
    SEG_OPCODES,
    STITCH_TAIL_OPCODES,
    elidable,
    generated_code,
    hooked_tail,
)
from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES, Opcode
from repro.machine.paging import PAGE_SHIFT

#: Exit protocol: ``fn(thread)`` returns the retired instruction count
#: and leaves ``(resume_member, code)`` in the superblock's exit cell.
EXIT_COMPLETE = 0   #: ran to the end; pc set to the successor
EXIT_RESUME = 1     #: guard miss: pc parked on the failing position,
#: exit[0] = member index — the engine resumes through that member's
#: step list without re-charging its dispatch
EXIT_REFETCH = 2    #: branch deviated: the branch retired, pc set to
#: the actual target — or a hook flushed code: the hooked access
#: retired, pc set past it — the engine re-fetches normally
EXIT_STALE = 3      #: a prologue identity guard failed: nothing was
#: booked; the engine drops the superblock and falls back
EXIT_FAULT = 4      #: a hooked access faulted after its hook: the
#: prefix is booked, pc sits on the instruction, the fault is repaired
#: — the engine re-fetches and retries it like its MEM arm does

#: Chain limits: enough to swallow a hot inner loop body (unrolled a
#: few times over), small enough that a single guard miss does not
#: discard much straight-line work and that a whole chain still fits a
#: default scheduling quantum. The member cap is generous because
#: unrolled loop copies share their identity guards; the instruction
#: cap is what bounds the body.
MAX_MEMBERS = 16
MAX_INSTRUCTIONS = 96

#: ... and a floor: a chain below this many instructions cannot pay
#: for its own entry sequence (cache probe, prologue guards, call and
#: exit decode), so the build is deferred like a too-short chain —
#: the successors may still be warming toward trace membership.
MIN_INSTRUCTIONS = 12

#: A failed (soft) build attempt is retried after the head gains this
#: many further executions — successors may become hot in the meantime.
RETRY_EXECUTIONS = 64

#: Guard-thrash eviction: once a superblock has this many entries, if
#: half or more side-exited the prediction is wrong more than it is
#: right — drop it and ban the head until an invalidation resets it.
THRASH_MIN_ENTRIES = 32

_BRANCH_OPCODES = frozenset((Opcode.BZ, Opcode.BNZ, Opcode.BLT,
                             Opcode.BGE))

_CONTROL_TAIL = STITCH_TAIL_OPCODES


def _taken_cond(instr) -> str:
    op = instr.op
    if op is Opcode.BZ:
        return f"regs[{instr.rs1}] == 0"
    if op is Opcode.BNZ:
        return f"regs[{instr.rs1}] != 0"
    if op is Opcode.BLT:
        return f"regs[{instr.rs1}] < regs[{instr.rs2}]"
    return f"regs[{instr.rs1}] >= regs[{instr.rs2}]"  # BGE


def _not_taken_cond(instr) -> str:
    op = instr.op
    if op is Opcode.BZ:
        return f"regs[{instr.rs1}] != 0"
    if op is Opcode.BNZ:
        return f"regs[{instr.rs1}] == 0"
    if op is Opcode.BLT:
        return f"regs[{instr.rs1}] >= regs[{instr.rs2}]"
    return f"regs[{instr.rs1}] < regs[{instr.rs2}]"  # BGE


class SuperBlock:
    """One compiled trace: a chain of cached blocks and its body."""

    __slots__ = ("head", "members", "fn", "count", "overhead", "exit",
                 "entries", "side_exits", "elided_uids")

    def __init__(self, head: int, members: Tuple, fn, count: int,
                 overhead: int, exit_cell: List[int],
                 elided_uids: frozenset):
        self.head = head
        #: The chain's CachedBlocks, in order. The engine resumes
        #: ``members[exit[0]]`` on an EXIT_RESUME side exit.
        self.members = members
        self.fn = fn
        #: Total instructions when the body runs to completion — the
        #: engine only enters when the quantum budget covers all of it.
        self.count = count
        self.overhead = overhead
        self.exit = exit_cell
        self.entries = 0
        self.side_exits = 0
        self.elided_uids = elided_uids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = "->".join(str(m.block_index) for m in self.members)
        return f"<SuperBlock {chain} x{self.count}>"


class SuperBlockCache:
    """head block index -> SuperBlock, with a member reverse index.

    Every code-cache invalidation path notifies the engine (through
    ``CodeCache.invalidation_listeners``), which drops every superblock
    :meth:`containing` the block — a superblock dies when *any* of its
    members is flushed, re-JITted or loses its closure to an elision
    retirement.
    """

    def __init__(self):
        self.by_head: Dict[int, SuperBlock] = {}
        self._member_index: Dict[int, Set[int]] = {}
        self.built = 0
        self.dropped = 0
        self.entries = 0
        self.completions = 0
        self.side_exits = 0
        self.instructions = 0
        #: Heads proven unstitchable (or guard-thrashing): no further
        #: build attempts until the block itself is invalidated.
        self.banned: Set[int] = set()
        #: Soft backoff: head -> executions count before the next
        #: build attempt.
        self.attempt_after: Dict[int, int] = {}

    def install(self, sb: SuperBlock) -> None:
        self.by_head[sb.head] = sb
        for member in sb.members:
            self._member_index.setdefault(member.block_index,
                                          set()).add(sb.head)
        self.built += 1
        self.attempt_after.pop(sb.head, None)

    def drop(self, sb: SuperBlock) -> int:
        if self.by_head.get(sb.head) is not sb:
            return 0
        del self.by_head[sb.head]
        for member in sb.members:
            heads = self._member_index.get(member.block_index)
            if heads is not None:
                heads.discard(sb.head)
                if not heads:
                    del self._member_index[member.block_index]
        self.dropped += 1
        return 1

    def containing(self, block_index: int) -> List[SuperBlock]:
        """Every live superblock whose chain contains ``block_index``."""
        heads = self._member_index.get(block_index, ())
        return [self.by_head[head] for head in sorted(heads)]

    def unban(self, block_index: int) -> None:
        """An invalidation resets the head's build eligibility (the
        rebuilt block may have different hooks, hence stitchability)."""
        self.banned.discard(block_index)
        self.attempt_after.pop(block_index, None)

    def __len__(self) -> int:
        return len(self.by_head)


def plan_chain(head_index: int, engine) -> List:
    """Select the chain of CachedBlocks a superblock at ``head`` covers.

    Follows static successors (fallthrough, JMP, CALL-into-callee) and
    the profiler's dominant direction at conditional branches, stopping
    at: a back-edge into the chain's interior, a block that is cold /
    unbuilt / unstitchable, a RET (dynamic target), an unpredictable
    branch, or the size caps. A back-edge to the *head* instead unrolls
    the loop: the whole body is replicated while it fits the caps, so
    each superblock entry retires several iterations and the completion
    lands back on the head for immediate re-entry. Members are
    (re)compiled here if their closure is missing or stale, so the
    build itself never runs inside the dispatch fast path.
    """
    codecache = engine.codecache
    profiler = engine.traceprofiler
    program = codecache.program
    overhead = engine.overhead_per_instr
    members: List = []
    seen: Set[int] = set()
    total = 0
    bi = head_index
    while len(members) < MAX_MEMBERS:
        if bi == head_index and members:
            # Whole-iteration unroll: replicate the loop body while it
            # fits. Copies reuse the originals' identity guards, so
            # only the instruction cap meaningfully bounds this.
            iteration = list(members)
            iteration_total = total
            while (len(members) + len(iteration) <= MAX_MEMBERS
                   and total + iteration_total <= MAX_INSTRUCTIONS):
                members.extend(iteration)
                total += iteration_total
            break
        if bi in seen:
            break  # back-edge into the chain's interior: close here
        cached = codecache._blocks.get(bi)
        if cached is None or not cached.in_trace:
            break  # cold (or unbuilt) successor: the chain ends
        compiled = cached.compiled
        if compiled is None or compiled.overhead != overhead:
            compiled = engine._compile_block(cached, overhead)
        if not compiled.stitchable:
            break
        if total + len(cached.instrs) > MAX_INSTRUCTIONS:
            break
        members.append(cached)
        seen.add(bi)
        total += len(cached.instrs)
        last = cached.instrs[-1]
        op = last.op
        if op is Opcode.RET:
            break  # dynamic successor — always a chain terminal
        if op is Opcode.JMP or op is Opcode.CALL:
            bi = program.label_index(last.label)
            continue
        if op in _BRANCH_OPCODES:
            taken = program.label_index(last.label)
            fall = cached.block_index + 1
            if taken == fall:
                bi = taken  # degenerate branch: both ways agree
                continue
            nxt = profiler.hot_successor(cached.block_index)
            if nxt is None or (nxt != taken and nxt != fall):
                # No dominant direction on record — but an arm that
                # closes the loop back to the head is NET's classic
                # trace shape, and the head being hot is itself the
                # evidence the back-edge is taken: predict it. (A bad
                # call costs side exits and the thrash eviction ban.)
                if taken == head_index:
                    nxt = taken
                elif fall == head_index:
                    nxt = fall
                else:
                    break
            bi = nxt
            continue
        bi = cached.block_index + 1  # plain fallthrough
    return members


def compile_superblock(members: List, engine) -> SuperBlock:
    """exec()-generate the straight-line body for one chain.

    See the module docstring for the semantics. The generated
    ``fn(thread) -> retired`` reports its exit through the superblock's
    shared exit cell ``[resume_member_index, exit_code]``.
    """
    program = engine.codecache.program
    overhead = engine.overhead_per_instr
    plan = engine.elision_plan
    retired_uids = engine._elision_retired

    def _is_elided(member, pos: int) -> bool:
        return plan is not None and elidable(
            member.instrs[pos], member.hooks[pos], plan, retired_uids)

    elided_uids = frozenset(i.uid for m in members
                            for p, i in enumerate(m.instrs)
                            if _is_elided(m, p))
    has_elision = bool(elided_uids)

    exit_cell = [0, EXIT_COMPLETE]
    # The body accesses physical memory through the word store
    # directly: a fast-map hit guarantees a mapped, backed page (the
    # TLB pops fast entries on every permission change and flush), and
    # alignment is either a compile-time fact (literal addresses) or
    # folded into the page guard (register-relative ones) — so the
    # checks ``read_word``/``write_word`` re-run per call are already
    # subsumed, and the per-access Python call frame disappears.
    words = engine.cpu.memory._words
    glb = {
        "counter": engine.counter,
        "stats": engine.stats,
        "_mw": words,
        "_mw_get": words.get,
        "_ec": engine._elision_cell,
        "_exit": exit_cell,
        "_eng": engine,
    }

    lines: List[str] = ["def _sb(thread):"]
    emit = lines.append

    # Prologue identity guards: the baked closure objects stand in for
    # "the member's hook set and elision plan are unchanged" — every
    # path that changes either replaces or drops the closure. Nothing
    # is booked on a stale exit; the engine drops this superblock and
    # re-dispatches through the ordinary path. Unrolled loop copies
    # share one guard (and one variable) per distinct block.
    member_var: Dict[int, str] = {}
    for member in members:
        key = id(member)
        if key in member_var:
            continue
        mvar = f"m{len(member_var)}"
        cvar = f"c{len(member_var)}"
        member_var[key] = mvar
        glb[mvar] = member
        glb[cvar] = member.compiled
        emit(f"    if {mvar}.compiled is not {cvar}:")
        emit(f"        _exit[1] = {EXIT_STALE}")
        emit("        return 0")
    emit("    regs = thread.regs")
    uses_ro = any(i.op is Opcode.LOAD for m in members for i in m.instrs)
    uses_rw = any(i.op in (Opcode.STORE, Opcode.ATOMIC_ADD)
                  for m in members for i in m.instrs)
    if uses_ro or uses_rw:
        emit("    tlb = thread.tlb")
        if uses_ro:
            emit("    fr = tlb.fast_ro")
        if uses_rw:
            emit("    fw = tlb.fast_rw")

    # --- generation-time accounting state -----------------------------
    # Everything the reference tier books per instruction is summed
    # here and emitted as constants at each exit site — minus what the
    # body already booked in front of a hook call (``booked``).
    cyc = 0       # retired instruction cycles so far
    icount = 0    # retired instructions so far
    mems = 0      # retired fast-path memory refs so far
    elided = 0    # retired --static-elide-approved accesses so far
    hooked = 0    # retired fast-path hooked accesses so far
    booked = {"dispatches": 0, "cyc": 0, "icount": 0, "mems": 0,
              "elided": 0, "hooked": 0}
    state = {"vno": 0, "pc0": None}
    # TLB probe hoisting: page-base vars established earlier in the
    # body, reusable while their inputs are unchanged. Literal pages
    # key on the page number; register-relative pages key on
    # (base_reg, disp) and die when the base register is rewritten.
    # Both die at a hook call. A fast_rw hit satisfies later fast_ro
    # needs (the writable map is a subset of the readable one), not
    # vice versa.
    reuse_const: Dict[int, Dict[str, str]] = {}
    reuse_reg: Dict[Tuple[int, int], Tuple[str, Dict[str, str]]] = {}

    def fresh(prefix: str) -> str:
        state["vno"] += 1
        return f"{prefix}{state['vno']}"

    def kill(reg: Optional[int]) -> None:
        if reg is None:
            return
        for key in [k for k in reuse_reg if k[0] == reg]:
            del reuse_reg[key]

    def account(ind: str, dispatches: int, cyc_: int,
                icount_: int) -> None:
        """Book the not-yet-booked part of a retired prefix with
        ``dispatches`` member dispatches, ``cyc_`` cycles and
        ``icount_`` instructions (memory, elided and hooked counts are
        the running totals)."""
        d = dispatches - booked["dispatches"]
        if d:
            emit(f"{ind}counter.charge('dbr', "
                 f"{d * costs.BLOCK_DISPATCH})")
        c = cyc_ - booked["cyc"]
        if c:
            emit(f"{ind}counter.instr_cycles += {c}")
        n = icount_ - booked["icount"]
        if n:
            emit(f"{ind}stats.instructions += {n}")
        m = mems - booked["mems"]
        if m:
            emit(f"{ind}stats.memory_refs += {m}")
            emit(f"{ind}tlb.hits += {m}")
            emit(f"{ind}tlb.fast_hits += {m}")
        h = hooked - booked["hooked"]
        if h:
            emit(f"{ind}stats.instrumented_execs += {h}")
        e = elided - booked["elided"]
        if e:
            emit(f"{ind}_ec[0] += {e}")
        if has_elision and n:
            emit(f"{ind}_ec[1] += {n}")

    def park(ind: str, member_idx: int, bi: int, pos: int,
             dispatches: int, cyc_: int, icount_: int) -> None:
        """Exit with pc parked at (bi, pos) inside member ``member_idx``
        and the given accounting booked; the engine resumes through the
        member's ordinary step list without re-charging its dispatch."""
        account(ind, dispatches, cyc_, icount_)
        emit(f"{ind}thread.pc[0] = {bi}")
        emit(f"{ind}thread.pc[1] = {pos}")
        emit(f"{ind}_exit[0] = {member_idx}")
        emit(f"{ind}_exit[1] = {EXIT_RESUME}")
        emit(f"{ind}return {icount_}")

    def bail_resume(member_idx: int, bi: int, pos: int) -> None:
        """Side exit inside an ``if`` guard: book the retired prefix,
        park pc on the failing position, hand the member back."""
        park("        ", member_idx, bi, pos, member_idx + 1, cyc, icount)

    def bail_refetch(member_idx: int, target_bi: int, cyc_: int,
                     icount_: int) -> None:
        """Branch-deviation exit inside an ``if`` guard: the branch
        itself retired (charge included), pc points at the real
        successor, the engine re-fetches and re-charges there."""
        account("        ", member_idx + 1, cyc_, icount_)
        emit(f"        thread.pc[0] = {target_bi}")
        emit("        thread.pc[1] = 0")
        emit(f"        _exit[0] = {member_idx}")
        emit(f"        _exit[1] = {EXIT_REFETCH}")
        emit(f"        return {icount_}")

    def complete(ind: str, pc0, pc1) -> None:
        account(ind, len(members), cyc, icount)
        emit(f"{ind}thread.pc[0] = {pc0}")
        emit(f"{ind}thread.pc[1] = {pc1}")
        emit(f"{ind}_exit[1] = {EXIT_COMPLETE}")
        emit(f"{ind}return {icount}")

    def emit_access(ind: str, instr, paddr: str) -> None:
        op = instr.op
        if op is Opcode.LOAD:
            emit(f"{ind}regs[{instr.rd}] = _mw_get(({paddr}) >> 3, 0)")
            kill(instr.rd)
        elif op is Opcode.STORE:
            emit(f"{ind}_mw[({paddr}) >> 3] = regs[{instr.rs1}]"
                 f" & {_MASK64}")
        else:  # ATOMIC_ADD
            wi = fresh("wi")
            old = fresh("old")
            emit(f"{ind}{wi} = ({paddr}) >> 3")
            emit(f"{ind}{old} = _mw_get({wi}, 0)")
            emit(f"{ind}_mw[{wi}] = ({old} + regs[{instr.rs1}])"
                 f" & {_MASK64}")
            if instr.rd is not None:
                emit(f"{ind}regs[{instr.rd}] = {old}")
                kill(instr.rd)

    def emit_hooked(member, member_idx: int, pos: int) -> None:
        """Hooked access: book the retired prefix and park pc on the
        instruction (the hook sees the reference tier's state), call
        the hook, then access its address through the same fast-map
        probe. A miss or misaligned address runs the compiled step's
        tail instead, and the body leaves through EXIT_FAULT when the
        access faulted."""
        nonlocal cyc, icount, mems, hooked
        instr = member.instrs[pos]
        bi = member.block_index
        mem = instr.mem
        charge = BASE_COST[instr.op] + overhead
        account("    ", member_idx + 1, cyc, icount)
        booked.update(dispatches=member_idx + 1, cyc=cyc, icount=icount,
                      mems=mems, elided=elided, hooked=hooked)
        # Only parks write pc mid-body, so pc[0] still holds the last
        # parked block.
        if state["pc0"] != bi:
            emit(f"    thread.pc[0] = {bi}")
            state["pc0"] = bi
        emit(f"    thread.pc[1] = {pos}")
        hvar, ivar, tvar = fresh("h"), fresh("i"), fresh("t")
        glb[hvar] = member.hooks[pos]
        glb[ivar] = instr
        glb[tvar] = hooked_tail(instr, engine, charge, pos + 1)
        ea = fresh("ea")
        if mem.base is None:
            emit(f"    {ea} = {mem.disp}")
        else:
            emit(f"    {ea} = (regs[{mem.base}] + {mem.disp})"
                 f" & {_MASK64}")
        ov = fresh("ov")
        emit(f"    {ov} = {hvar}(thread, {ivar}, {ea})")
        emit(f"    if {ov} is not None:")
        emit(f"        {ea} = {ov}")
        # The hook may have changed any translation: forget every
        # hoisted probe.
        reuse_const.clear()
        reuse_reg.clear()
        pb = fresh("pb")
        fmap = "fr" if instr.op is Opcode.LOAD else "fw"
        emit(f"    {pb} = {fmap}.get({ea} >> {PAGE_SHIFT})")
        # A hook that flushed code (a re-JIT) takes the tail too: the
        # body ends right after the access, which the tail booked, and
        # the engine re-fetches, like the reference.
        emit(f"    if {pb} is None or {ea} & 7 or _eng._cache_dirty:")
        emit(f"        _exit[0] = {member_idx}")
        emit(f"        if not {tvar}(thread, {ea}):")
        emit(f"            _exit[1] = {EXIT_FAULT}")
        emit(f"            return {icount}")
        emit("        if _eng._cache_dirty:")
        emit(f"            _exit[1] = {EXIT_REFETCH}")
        emit(f"            return {icount + 1}")
        # The tail booked the retire itself, but the exit constants
        # count this access as a fast-path hit: take that back out.
        # Nothing observes the counters before the next booking point.
        emit(f"        counter.instr_cycles -= {charge}")
        emit("        stats.instructions -= 1")
        emit("        stats.memory_refs -= 1")
        emit("        stats.instrumented_execs -= 1")
        emit("        tlb.hits -= 1")
        emit("        tlb.fast_hits -= 1")
        emit("    else:")
        emit_access("        ", instr, f"{pb} | ({ea} & {_PAGE_MASK})")
        cyc += charge
        icount += 1
        mems += 1
        hooked += 1

    def emit_mem(member, member_idx: int, pos: int) -> None:
        nonlocal cyc, icount, mems, elided
        instr = member.instrs[pos]
        if member.hooks[pos] is not None:
            emit_hooked(member, member_idx, pos)
            return
        bi = member.block_index
        op = instr.op
        mem = instr.mem
        need_rw = op is not Opcode.LOAD
        mode = "rw" if need_rw else "ro"
        fmap = "fw" if need_rw else "fr"
        if mem.base is None:
            # chain_stitchable rejected misaligned literal addresses,
            # so the inline word-store access below is exact.
            page = mem.disp >> PAGE_SHIFT
            off = mem.disp & _PAGE_MASK
            modes = reuse_const.setdefault(page, {})
            pb = modes.get("rw") or (None if need_rw
                                     else modes.get("ro"))
            if pb is None:
                pb = fresh("pb")
                emit(f"    {pb} = {fmap}.get({page})")
                emit(f"    if {pb} is None:")
                bail_resume(member_idx, bi, pos)
                modes[mode] = pb
            paddr = f"({pb} | {off})" if off else pb
        else:
            key = (mem.base, mem.disp)
            rec = reuse_reg.get(key)
            if rec is None:
                ea = fresh("ea")
                emit(f"    {ea} = (regs[{mem.base}] + {mem.disp})"
                     f" & {_MASK64}")
                rec = (ea, {})
                reuse_reg[key] = rec
            ea, modes = rec
            pb = modes.get("rw") or (None if need_rw
                                     else modes.get("ro"))
            if pb is None:
                pb = fresh("pb")
                emit(f"    {pb} = {fmap}.get({ea} >> {PAGE_SHIFT})")
                if not modes:
                    # First probe of this effective address also vets
                    # alignment: a misaligned access must reach the
                    # member's ordinary step, whose ``read_word`` call
                    # raises with exactly the reference's accounting.
                    emit(f"    if {pb} is None or {ea} & 7:")
                else:
                    emit(f"    if {pb} is None:")
                bail_resume(member_idx, bi, pos)
                modes[mode] = pb
            paddr = f"({pb} | ({ea} & {_PAGE_MASK}))"
        emit_access("    ", instr, paddr)
        cyc += BASE_COST[op] + overhead
        icount += 1
        mems += 1
        if _is_elided(member, pos):
            elided += 1

    total_members = len(members)
    for idx, member in enumerate(members):
        bi = member.block_index
        instrs = member.instrs
        n = len(instrs)
        # The member's fetch bookkeeping: the reference tier's
        # codecache.get() bumps the execution count on every entry
        # (dispatch cycles are summed into the exit constants; the
        # promotion check is provably dead here — every member is
        # already in_trace, a build precondition).
        emit(f"    {member_var[id(member)]}.executions += 1")
        for pos, instr in enumerate(instrs):
            op = instr.op
            if op in SEG_OPCODES:
                stmt = _seg_statement(instr)
                if stmt is not None:
                    emit(f"    {stmt}")
                    kill(instr.rd)
                cyc += BASE_COST[op] + overhead
                icount += 1
                continue
            if op is Opcode.MOD:
                rs2 = instr.rs2
                if rs2 is not None:
                    # The zero check raises *before* charging in the
                    # reference — bail with MOD unretired; the base
                    # CTL step re-checks and raises identically.
                    emit(f"    if regs[{rs2}] == 0:")
                    bail_resume(idx, bi, pos)
                    rhs = f"regs[{rs2}]"
                else:
                    rhs = repr(instr.imm)  # imm == 0 is unstitchable
                emit(f"    regs[{instr.rd}] = regs[{instr.rs1}] % {rhs}")
                kill(instr.rd)
                cyc += BASE_COST[op] + overhead
                icount += 1
                continue
            if op in MEMORY_OPCODES:
                emit_mem(member, idx, pos)
                continue
            # Control tail (stitchability guarantees pos == n - 1).
            is_terminal = idx == total_members - 1
            charge = BASE_COST[op] + overhead
            if op is Opcode.JMP:
                target = program.label_index(instr.label)
                cyc += charge
                icount += 1
                if is_terminal:
                    complete("    ", target, 0)
                continue
            if op is Opcode.CALL:
                target = program.label_index(instr.label)
                cyc += charge
                icount += 1
                emit(f"    thread.call_stack.append(({bi}, {n}))")
                if is_terminal:
                    complete("    ", target, 0)
                continue
            if op is Opcode.RET:
                # RET charges before raising on an empty stack; the
                # bail leaves it unretired so the base step books the
                # charge and raises exactly like the reference.
                emit("    if not thread.call_stack:")
                bail_resume(idx, bi, pos)
                cyc += charge
                icount += 1
                ra = fresh("ra")
                emit(f"    {ra} = thread.call_stack.pop()")
                complete("    ", f"{ra}[0]", f"{ra}[1]")
                continue
            # Conditional branch. A not-taken branch in the reference
            # does NOT transfer control: it parks pc just past the
            # block end and the engine advances on its next loop
            # iteration — an intermediate pc state a quantum boundary
            # can observe (the next quantum then re-fetches this block
            # before advancing, charging one extra dispatch). Every
            # not-taken outcome below therefore parks at (bi, n) with
            # the branch retired instead of jumping to (fall, 0).
            target = program.label_index(instr.label)
            fall = bi + 1
            if is_terminal:
                emit(f"    if {_taken_cond(instr)}:")
                cyc += charge
                icount += 1
                complete("        ", target, 0)
                park("    ", idx, bi, n, total_members, cyc, icount)
            else:
                next_bi = members[idx + 1].block_index
                if target == fall:
                    # Degenerate: both directions reach the next
                    # member, but taken and not-taken still park pc
                    # differently; the body predicts taken and lets a
                    # not-taken side-exit reproduce the fall-off state.
                    next_bi = target
                if next_bi == target:
                    emit(f"    if {_not_taken_cond(instr)}:")
                    park("        ", idx, bi, n, idx + 1,
                         cyc + charge, icount + 1)
                else:
                    emit(f"    if {_taken_cond(instr)}:")
                    bail_refetch(idx, target, cyc + charge, icount + 1)
                cyc += charge
                icount += 1
        last_op = instrs[-1].op
        if last_op not in _CONTROL_TAIL:
            # Plain fallthrough member: the reference parks pc past the
            # block end and advances on its next loop iteration — same
            # quantum-boundary-visible state as a not-taken branch, so
            # the terminal member parks rather than jumping to
            # (bi + 1, 0) directly.
            if idx == total_members - 1:
                park("    ", idx, bi, n, total_members, cyc, icount)
            # else: the next member is bi + 1; execution simply
            # continues into its statements.

    count = sum(len(m.instrs) for m in members)
    source = "\n".join(lines)
    namespace: dict = {}
    exec(generated_code(source, f"<superblock:{members[0].block_index}>"),
         glb, namespace)
    return SuperBlock(members[0].block_index, tuple(members),
                      namespace["_sb"], count, overhead, exit_cell,
                      elided_uids)
