"""The DBR execution engine.

An :class:`~repro.guestos.driver.ExecutionDriver` that runs application
code out of the code cache, executing instrumentation hooks inline, and
hosting the master SIGSEGV handler that routes Aikido faults to the
sharing detector (paper §3.4).

Running under the engine costs: one block build per cold block, one
dispatch charge per block entry (link stubs / IBL lookups, amortized), and
whatever the attached hooks charge. This models DynamoRIO's "near native
once warm" profile — both the FastTrack baseline and Aikido pay it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import costs
from repro.dbr.blockcompiler import CTL, ELI, GEN, MEM, SEG, compile_block
from repro.dbr.codecache import CodeCache
from repro.dbr.superblock import (EXIT_COMPLETE, EXIT_FAULT, EXIT_RESUME,
                                  EXIT_STALE, MIN_INSTRUCTIONS,
                                  RETRY_EXECUTIONS,
                                  THRASH_MIN_ENTRIES, SuperBlockCache,
                                  compile_superblock, plan_chain)
from repro.dbr.tool import Tool
from repro.dbr.traceprofiler import TraceProfiler
from repro.guestos.driver import ExecutionDriver
from repro.guestos.signals import SIGSEGV, HandlerResult
from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES
from repro.machine.paging import PageFault

_MASK64 = 0xFFFFFFFFFFFFFFFF


class DBREngine(ExecutionDriver):
    """Code-cache execution with inline instrumentation hooks.

    Three execution tiers share the code cache. The *interpreter* tier
    (:meth:`_run_interp`) is the reference: one ``CPU.execute`` per
    instruction. The *compiled* tier (:meth:`_run_compiled`, default,
    ``compile_blocks=False`` to disable) runs each block through its
    specialized closure form (see :mod:`repro.dbr.blockcompiler`). The
    *superblock* tier (``superblocks=False`` to disable, on by default
    whenever the compiled tier is) additionally stitches hot block
    chains into single generated functions with guard-protected side
    exits (see :mod:`repro.dbr.superblock` /
    :mod:`repro.dbr.traceprofiler`), dispatched from the compiled
    tier's fetch path. All tiers must produce bit-identical simulated
    stats.
    """

    def __init__(self, kernel, *, process=None, compile_blocks: bool = True,
                 superblocks: bool = True):
        super().__init__(kernel)
        self.process = process if process is not None else kernel.process
        if self.process is None:
            raise RuntimeError("create the process before the engine")
        self.codecache = CodeCache(self.process.program, kernel.counter)
        self.tool: Optional[Tool] = None
        #: Installed by AikidoSD: callable(thread, SignalInfo) ->
        #: HandlerResult or None (None = not an Aikido fault).
        self.fault_router: Optional[Callable] = None
        self._cache_dirty = False
        #: Execution-tier switch (AikidoConfig.compile_blocks).
        self.compile_blocks = compile_blocks
        #: Superblock-tier switch (AikidoConfig.superblocks) — a layer
        #: on top of the compiled tier, meaningless without it.
        self.superblocks = bool(compile_blocks and superblocks)
        if self.superblocks:
            self.traceprofiler = TraceProfiler()
            self.superblock_cache = SuperBlockCache()
            self.codecache.invalidation_listeners.append(
                self._superblock_invalidate)
        else:
            self.traceprofiler = None
            self.superblock_cache = None
        #: Per-instruction residency overhead of the installed stack;
        #: plain DynamoRIO by default, raised by AikidoSD on install.
        self.overhead_per_instr = costs.DBR_BASE_PER_INSTR
        #: Chaos injector, attached by ChaosInjector.attach (None = off).
        self.chaos = None
        #: Observability tracer, attached by AikidoSystem (None = off).
        self.tracer = None
        #: Static-check elision (``--static-elide``): the plan installed
        #: by AikidoSD (None = off), the uids dynamically retired from
        #: it by page-share tripwires, and the host-side elision
        #: counters ``[checks_elided, fast_path_instructions]`` the
        #: generated fast bodies bump (never part of simulated stats).
        self.elision_plan = None
        self._elision_retired: set = set()
        self._elision_cell = [0, 0]
        kernel.set_driver(self, self.process)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def attach_tool(self, tool: Tool) -> None:
        """Install the analysis tool (block callbacks + sync events)."""
        self.tool = tool
        tool.attach(self)
        self.codecache.build_callbacks.append(tool.instrument_block)
        self.kernel.add_sync_listener(tool.on_sync_event)

    def register_master_signal_handler(self) -> None:
        """Take over SIGSEGV for the process (DynamoRIO does this)."""
        self.process.signal_handlers[SIGSEGV] = self._master_signal_handler

    def set_elision_plan(self, plan) -> None:
        """Install the static elision plan (AikidoSD, static_elide=True).

        Must happen before the first block compiles against it; AikidoSD
        installs it at the same point it raises ``overhead_per_instr``,
        which already forces a recompile of anything built earlier.
        """
        self.elision_plan = plan

    def note_page_shared(self, vpn: int) -> list:
        """Dynamic elision tripwire: page ``vpn`` just became SHARED.

        Retires every elided uid whose static footprint contains the
        page and drops the affected compiled closures — host-side only
        (no simulated flush/build charges), so the cycle stream is
        identical to a run that never elided anything. The block
        recompiles, without the retired uids, at its next natural
        entry. Returns the newly retired ``(uid, tier)`` pairs; the
        caller (AikidoSD) escalates private-tier hits to ``ToolError``
        when per-thread protection makes the transition trustworthy.
        """
        plan = self.elision_plan
        if plan is None:
            return []
        retired = []
        for uid, tier in plan.uids_touching_page(vpn):
            if uid in self._elision_retired:
                continue
            self._elision_retired.add(uid)
            self.codecache.drop_closures_of_instruction(
                uid, "elision_retired")
            retired.append((uid, tier))
        if retired and self.tracer is not None:
            self.tracer.instant("elision_retired", "dbr", vpn=vpn,
                                uids=[u for u, _ in retired])
        return retired

    def elision_snapshot(self) -> Optional[dict]:
        """Host-side elision telemetry (None when elision is off)."""
        plan = self.elision_plan
        if plan is None:
            return None
        return {
            "plan": plan.as_dict(),
            "checks_elided": self._elision_cell[0],
            "fast_path_instructions": self._elision_cell[1],
            "retired_uids": sorted(self._elision_retired),
        }

    def invalidate_instruction(self, uid: int) -> int:
        """Flush cached blocks containing the instruction (re-JIT)."""
        flushed = self.codecache.invalidate_blocks_of_instruction(uid)
        if flushed:
            self._cache_dirty = True
        if self.tracer is not None:
            self.tracer.instant("rejit", "dbr", uid=uid, flushed=flushed)
        return flushed

    # ------------------------------------------------------------------
    # superblock tier
    # ------------------------------------------------------------------
    def _drop_superblocks(self, sbs, block: int, reason: str) -> None:
        """Drop superblocks; the one path every drop takes, so the
        trace's ``superblock_drop`` instant names each reason."""
        dropped = sum(self.superblock_cache.drop(sb) for sb in sbs)
        if dropped and self.tracer is not None:
            self.tracer.instant("superblock_drop", "dbr", block=block,
                                reason=reason, dropped=dropped)

    def _superblock_invalidate(self, block_index: int,
                               reason: str) -> None:
        """Code-cache invalidation listener: a member died, its
        superblocks die with it; a rebuilt block may also have become
        stitchable, so its build ban/backoff resets."""
        sb_cache = self.superblock_cache
        self._drop_superblocks(sb_cache.containing(block_index),
                               block_index, reason)
        sb_cache.unban(block_index)

    def _try_superblock(self, cached) -> None:
        """Attempt to grow and compile a superblock headed at ``cached``.

        Called from the compiled tier's fetch path when an in-trace
        block is entered at instruction 0 and no superblock covers it
        yet. Entirely host-side: no simulated charges beyond what the
        cost model already books for trace promotion.
        """
        sb_cache = self.superblock_cache
        head = cached.block_index
        if head in sb_cache.banned:
            return
        if cached.executions < sb_cache.attempt_after.get(head, 0):
            return
        members = plan_chain(head, self)
        if not members:
            # The head block itself is unstitchable (kernel op, HALT,
            # literal-zero MOD, ...): no chain can ever start here until
            # an invalidation rebuilds the block differently.
            sb_cache.banned.add(head)
            return
        if (len(members) < 2
                or sum(len(m.instrs) for m in members)
                    < MIN_INSTRUCTIONS):
            # Too short to pay for its own entry sequence; the
            # successors may still be warming toward trace membership —
            # retry once the head has run hotter.
            sb_cache.attempt_after[head] = (cached.executions
                                            + RETRY_EXECUTIONS)
            return
        sb = compile_superblock(members, self)
        sb_cache.install(sb)
        if self.tracer is not None:
            self.tracer.instant(
                "superblock_build", "dbr", head=head,
                members=[m.block_index for m in sb.members],
                instructions=sb.count)

    def superblock_snapshot(self) -> Optional[dict]:
        """Host-side superblock telemetry (None when the tier is off)."""
        sb_cache = self.superblock_cache
        if sb_cache is None:
            return None
        return {
            "superblocks_built": sb_cache.built,
            "superblocks_dropped": sb_cache.dropped,
            "side_exits": sb_cache.side_exits,
            "entries": sb_cache.entries,
            "completions": sb_cache.completions,
            "instructions": sb_cache.instructions,
            "live": len(sb_cache.by_head),
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, thread, budget: int) -> str:
        chaos = self.chaos
        if chaos is not None and chaos.fires("codecache_flush",
                                             tid=thread.tid):
            # Recoverable by construction: every block rebuilds from the
            # program text with the same instrumentation on next entry.
            if self.codecache.invalidate_all():
                self._cache_dirty = True
            chaos.note_recovered("codecache_flush")
        # A pending yield left over from a previous quantum (a thread
        # that blocked right after a chaos preempt) makes the very next
        # instruction yield; the interpreter tier *is* that reference
        # behavior, so delegate the quantum to it.
        if self.compile_blocks and not self.kernel._yield_requested:
            return self._run_compiled(thread, budget)
        return self._run_interp(thread, budget)

    def _run_interp(self, thread, budget: int) -> str:
        """Reference tier: dict-dispatched ``CPU.execute`` per instruction."""
        kernel = self.kernel
        execute = self.cpu.execute
        counter = self.counter
        stats = self.stats
        codecache = self.codecache
        pc = thread.pc
        executed = 0
        cur_bi = -1
        cached = None
        overhead = self.overhead_per_instr
        while executed < budget:
            if not thread.runnable:
                return "exited" if thread.exited else "blocked"
            bi = pc[0]
            if bi != cur_bi or cached is None or self._cache_dirty:
                self._cache_dirty = False
                cached = codecache.get(bi)
                cur_bi = bi
                counter.charge("dbr", costs.BLOCK_DISPATCH)
            ii = pc[1]
            if ii >= len(cached.instrs):
                pc[0] += 1
                pc[1] = 0
                cur_bi = -1
                continue
            instr = cached.instrs[ii]
            hook = cached.hooks[ii]
            try:
                if hook is not None:
                    mem = instr.mem
                    if mem is not None:
                        if mem.base is None:
                            ea = mem.disp
                        else:
                            ea = (thread.regs[mem.base] + mem.disp) & _MASK64
                    else:
                        ea = None
                    override = hook(thread, instr, ea)
                    res = execute(instr, thread, ea_override=override)
                    # Counted only on retire (a faulting attempt retries
                    # and must not be counted twice — Table 2 col 2 is a
                    # retired-execution count).
                    stats.instrumented_execs += 1
                else:
                    res = execute(instr, thread)
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                # The handler may have rebuilt this block: force re-fetch
                # so we execute the freshly instrumented copy.
                cur_bi = -1
                continue
            op = instr.op
            counter.instr_cycles += BASE_COST[op] + overhead
            executed += 1
            stats.instructions += 1
            if op in MEMORY_OPCODES:
                stats.memory_refs += 1
            if res is None:
                pc[1] = ii + 1
            else:
                if not self._apply_result(thread, pc, ii, res):
                    return "exited" if thread.exited else "blocked"
                cur_bi = -1  # control may have transferred
            if kernel.consume_yield():
                return "yield"
        return "quantum"

    def _compile_block(self, cached, overhead: int):
        """(Re)compile a cached block's closure; tracks traffic/tracing."""
        codecache = self.codecache
        if cached.compiled is not None:
            # Stale: baked with a different residency overhead (the
            # installed stack changed, e.g. AikidoSD install).
            codecache._note_closure_dropped(cached, "stale_overhead")
        compiled = compile_block(cached, self)
        assert compiled.overhead == overhead
        cached.compiled = compiled
        codecache.closures_compiled += 1
        if self.tracer is not None:
            self.tracer.instant("block_compile", "dbr",
                                block=cached.block_index,
                                steps=compiled.length)
        return compiled

    def _run_compiled(self, thread, budget: int) -> str:
        """Compiled tier: one specialized step per fused unit.

        Structurally a clone of :meth:`_run_interp` — same fetch
        condition, same dispatch charge, same fault/yield/blocked exits —
        with the per-instruction body replaced by the block's step list.
        """
        kernel = self.kernel
        execute = self.cpu.execute
        counter = self.counter
        stats = self.stats
        codecache = self.codecache
        pc = thread.pc
        executed = 0
        cur_bi = -1
        cached = None
        steps = None
        length = 0
        #: True only while a fault-repair for the instruction being
        #: retried may have left a chaos preempt pending.
        pending_yield = False
        #: The interpreter re-reads ``thread.runnable`` before every
        #: instruction, but only kernel entries can change it; the
        #: check is hoisted to the paths that entered the kernel
        #: (fault repairs — actions return the new state directly).
        check_runnable = True
        overhead = self.overhead_per_instr
        sb_cache = self.superblock_cache
        #: Hot-path locals for the superblock tier: one dict.get per
        #: fetch for dispatch, and the profiler's edge table accessed
        #: directly (TraceProfiler.note_edge semantics, inlined — a
        #: call per block transition is measurable at this loop's
        #: frequency).
        sb_get = sb_cache.by_head.get if sb_cache is not None else None
        by_head = sb_cache.by_head if sb_cache is not None else None
        sb_banned = sb_cache.banned if sb_cache is not None else None
        sb_retry_get = (sb_cache.attempt_after.get
                        if sb_cache is not None else None)
        edges = (self.traceprofiler._edges
                 if self.traceprofiler is not None else None)
        #: Previous *hot* block entered at instruction 0 within this
        #: quantum — the profiler's edge source. Reset to -1 on anything
        #: that breaks the straight execution stream (mid-block
        #: re-entry, superblock exit, quantum start) and on cold blocks:
        #: chains only ever link promoted blocks, so cold-source edges
        #: would be dead weight in the table.
        prev_bi = -1
        while executed < budget:
            if check_runnable:
                if not thread.runnable:
                    return "exited" if thread.exited else "blocked"
                check_runnable = False
            bi = pc[0]
            if bi != cur_bi or cached is None or self._cache_dirty:
                if sb_get is not None and pc[1] == 0 \
                        and not pending_yield:
                    sb = sb_get(bi)
                    if sb is not None:
                        if sb.overhead != overhead:
                            self._drop_superblocks((sb,), bi,
                                                   "stale_overhead")
                        elif sb.count <= budget - executed:
                            # The whole chain fits in the remaining
                            # budget — run it. The body books the
                            # accounting at its exit site, and in
                            # front of every hook call so the hook
                            # sees the reference tier's state.
                            # The entry still records its profiler
                            # edge (the body replaces the fetch that
                            # would have) so chains through and past
                            # this superblock can keep maturing.
                            if prev_bi >= 0:
                                per_src = edges.get(prev_bi)
                                if per_src is None:
                                    per_src = edges[prev_bi] = {}
                                per_src[bi] = per_src.get(bi, 0) + 1
                            self._cache_dirty = False
                            retired = sb.fn(thread)
                            code = sb.exit[1]
                            if code != EXIT_STALE:
                                sb.entries += 1
                                sb_cache.entries += 1
                                sb_cache.instructions += retired
                                executed += retired
                                # A full-count EXIT_RESUME is a
                                # completion that fell off the chain
                                # end (fallthrough / not-taken
                                # terminal): pc parks past the block
                                # end exactly like the reference and
                                # the loop below advances it.
                                if (code == EXIT_COMPLETE
                                        or retired == sb.count):
                                    sb_cache.completions += 1
                                else:
                                    # Guard-protected side exit.
                                    sb.side_exits += 1
                                    sb_cache.side_exits += 1
                                    if self.tracer is not None:
                                        self.tracer.instant(
                                            "superblock_side_exit",
                                            "dbr", head=sb.head,
                                            member=sb.exit[0],
                                            code=code)
                                # The block the chain logically left
                                # from stays the profiler's edge
                                # source, so the stream reads as if
                                # the members had dispatched normally.
                                if code == EXIT_RESUME:
                                    # pc is parked inside (or just
                                    # past) a member; resume through
                                    # its ordinary step list. Its
                                    # dispatch is already charged — do
                                    # NOT re-fetch.
                                    member = sb.members[sb.exit[0]]
                                    cached = member
                                    cur_bi = member.block_index
                                    prev_bi = cur_bi
                                    compiled = member.compiled
                                    steps = compiled.steps
                                    length = compiled.length
                                elif code == EXIT_COMPLETE:
                                    cur_bi = -1
                                    prev_bi = (
                                        sb.members[-1].block_index)
                                else:
                                    # REFETCH after a deviation, or a
                                    # hooked access that faulted: the
                                    # engine re-fetches; a fault also
                                    # makes the retry check the yield
                                    # flag and runnability, exactly as
                                    # after a MEM step's fault.
                                    cur_bi = -1
                                    prev_bi = (sb.members[sb.exit[0]]
                                               .block_index)
                                    if code == EXIT_FAULT:
                                        pending_yield = True
                                        check_runnable = True
                                if (sb.entries >= THRASH_MIN_ENTRIES
                                        and sb.side_exits * 2
                                            >= sb.entries):
                                    # Mispredicting more than it
                                    # completes: evict and stop
                                    # rebuilding until the head block
                                    # is itself invalidated.
                                    self._drop_superblocks(
                                        (sb,), bi, "thrash")
                                    sb_cache.banned.add(sb.head)
                                continue
                            # EXIT_STALE: a member's closure changed
                            # under us; nothing was booked. Drop the
                            # superblock and dispatch normally.
                            self._drop_superblocks((sb,), bi, "stale")
                self._cache_dirty = False
                cached = codecache.get(bi)
                cur_bi = bi
                counter.charge("dbr", costs.BLOCK_DISPATCH)
                compiled = cached.compiled
                if compiled is None or compiled.overhead != overhead:
                    compiled = self._compile_block(cached, overhead)
                steps = compiled.steps
                length = compiled.length
                if edges is not None:
                    if pc[1] == 0:
                        hot = cached.in_trace
                        if prev_bi >= 0:
                            per_src = edges.get(prev_bi)
                            if per_src is None:
                                per_src = edges[prev_bi] = {}
                            per_src[bi] = per_src.get(bi, 0) + 1
                            # Build gate, inlined: banned heads and
                            # heads inside their retry backoff are the
                            # steady state for chains that will never
                            # (or not yet) form — they must not pay a
                            # call per entry.
                            if (hot and bi not in by_head
                                    and bi not in sb_banned
                                    and cached.executions
                                        >= sb_retry_get(bi, 0)):
                                self._try_superblock(cached)
                        prev_bi = bi if hot else -1
                    else:
                        prev_bi = -1
            ii = pc[1]
            if ii >= length:
                pc[0] += 1
                pc[1] = 0
                cur_bi = -1
                continue
            step = steps[ii]
            kind = step[0]
            if kind == ELI:
                # Statically-elided fused run: the whole run (or an
                # exactly-accounted prefix, when a TLB guard misses)
                # retires in one call. Never entered with a pending
                # yield (the post-fault retry must go through the base
                # step's consume_yield check) or a budget too small for
                # the full run — both fall back to the base step.
                if not pending_yield and step[2] <= budget - executed:
                    retired = step[1](thread)
                    if retired:
                        executed += retired
                        continue
                    # Guard missed at position 0: nothing retired, run
                    # this position through its base step below.
                step = step[3]
                kind = step[0]
            if kind == SEG:
                # Fused pure-ALU run: no faults, no kernel entry, no
                # observation point inside — retire it in one go (or a
                # budget-bounded prefix of it).
                count = step[3]
                remaining = budget - executed
                if count <= remaining:
                    run_fn = step[1]
                    if run_fn is not None:
                        run_fn(thread.regs)
                    else:
                        regs = thread.regs
                        for fn in step[2]:
                            fn(regs)
                    counter.instr_cycles += step[4]
                    executed += count
                    stats.instructions += count
                    pc[1] = step[6]
                else:
                    regs = thread.regs
                    for fn in step[2][:remaining]:
                        fn(regs)
                    counter.instr_cycles += step[5][remaining]
                    executed += remaining
                    stats.instructions += remaining
                    pc[1] = ii + remaining
                continue
            if kind == MEM:
                if step[1](thread):
                    executed += 1
                    # The closure (and a tool hook it calls) never
                    # enters the kernel on the retire path, so the yield
                    # flag can only be pending from a chaos preempt
                    # during this instruction's own fault repair — only
                    # then is the check live.
                    if pending_yield and kernel.consume_yield():
                        return "yield"
                    pending_yield = False
                else:
                    # Faulted (not retired): the handler may have rebuilt
                    # the block — force a re-fetch, like the interpreter.
                    pending_yield = True
                    check_runnable = True
                    cur_bi = -1
                continue
            if kind == CTL:
                # Control transfers and MOD never enter the kernel: no
                # fault, no yield, no runnable change — just count it
                # and re-fetch when control moved.
                if step[1](thread):
                    cur_bi = -1
                executed += 1
                continue
            # GEN: a kernel action or HALT. Every memory access, hooked
            # or not, is a MEM step, so CPU.execute returns a trap here
            # and cannot page-fault.
            res = execute(cached.instrs[ii], thread)
            counter.instr_cycles += step[1]
            executed += 1
            stats.instructions += 1
            if not self._apply_result(thread, pc, ii, res):
                return "exited" if thread.exited else "blocked"
            cur_bi = -1
            if kernel.consume_yield():
                return "yield"
            pending_yield = False
        return "quantum"

    # ------------------------------------------------------------------
    # master signal handler (paper §3.4)
    # ------------------------------------------------------------------
    def _master_signal_handler(self, thread, info) -> HandlerResult:
        if self.fault_router is not None:
            result = self.fault_router(thread, info)
            if result is not None:
                return result
        # Not an Aikido fault: the application really faulted. DynamoRIO
        # would deliver the app's own handler; our workloads register
        # none, so it is fatal.
        return HandlerResult.FATAL
