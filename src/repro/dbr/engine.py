"""The DBR execution engine.

An :class:`~repro.guestos.driver.ExecutionDriver` that runs application
code out of the code cache, executing instrumentation hooks inline, and
hosting the master SIGSEGV handler that routes Aikido faults to the
sharing detector (paper §3.4).

Running under the engine costs: one block build per cold block, one
dispatch charge per block entry (link stubs / IBL lookups, amortized), and
whatever the attached hooks charge. This models DynamoRIO's "near native
once warm" profile — both the FastTrack baseline and Aikido pay it.

On the host, the compiled tiers run every block as code generated by one
emitter (:mod:`repro.dbr.blockcompiler`), the way DynamoRIO's basic
blocks and traces come out of one code cache: a block body from the
entry position to the first instruction only ``CPU.execute`` can run,
clipped to the quantum, and a chain body for hot traces.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import costs
from repro.dbr.blockcompiler import (EXIT_COMPLETE, EXIT_FAULT,
                                     EXIT_RESUME, EXIT_STALE, block_body,
                                     compile_block)
from repro.dbr.codecache import CodeCache
from repro.dbr.superblock import (MIN_INSTRUCTIONS, RETRY_EXECUTIONS,
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
    ``compile_blocks=False`` to disable) runs each block as generated
    bodies, one per entry position and stop (see
    :mod:`repro.dbr.blockcompiler`); kernel actions and HALT go through
    ``CPU.execute``. The *superblock* tier (``superblocks=False`` to
    disable, on by default whenever the compiled tier is) additionally
    stitches hot block chains into single bodies from the same emitter,
    with guard-protected side exits (see :mod:`repro.dbr.superblock` /
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
        #: ``[member index, exit code]`` every generated body leaves on
        #: exit, and the globals every body shares (built on first use).
        self._exit = [0, EXIT_COMPLETE]
        self._codegen_globals = None
        #: The counter's ``dbr`` cell, which the compiled tier's dispatch
        #: charges add to inline (see ``CycleCounter``).
        self._dbr_cycles = kernel.counter.cell("dbr")
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

    def close(self) -> None:
        """Drop the tool and the code and superblock caches: tool hooks
        and generated bodies point back at the engine (see
        ``Kernel.close``)."""
        if self.tool is not None:
            self.tool.engine = None
        self.tool = None
        self.codecache = None
        self._codegen_globals = None
        self.superblock_cache = None

    def register_master_signal_handler(self) -> None:
        """Take over SIGSEGV for the process (DynamoRIO does this)."""
        self.process.signal_handlers[SIGSEGV] = self._master_signal_handler

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
            "bounded": sb_cache.bounded,
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
        """(Re)compile a cached block; tracks traffic/tracing."""
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
                                instructions=compiled.length)
        return compiled

    def _run_compiled(self, thread, budget: int) -> str:
        """Compiled tier: generated bodies instead of per-instruction
        dispatch.

        Structurally a clone of :meth:`_run_interp` — same fetch
        condition, same dispatch charge, same fault/yield/blocked exits —
        with the per-instruction body replaced by block bodies and, when
        the superblock tier is on, chain bodies entered at block heads.
        """
        kernel = self.kernel
        execute = self.cpu.execute
        counter = self.counter
        dbr_cycles = self._dbr_cycles
        stats = self.stats
        codecache = self.codecache
        pc = thread.pc
        exit_cell = self._exit
        executed = 0
        cur_bi = -1
        cached = None
        compiled = None
        limits = bodies = None
        length = 0
        #: True only while a fault-repair for the instruction being
        #: retried may have left a chaos preempt pending: the yield flag
        #: is checked after the retry, like the interpreter does.
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
                    if sb is not None and sb.overhead != overhead:
                        self._drop_superblocks((sb,), bi, "stale_overhead")
                    elif sb is not None:
                        # Run the chain to the rest of the quantum. The
                        # body books the accounting at its exit site; the
                        # entry still records its profiler edge (the body
                        # replaces the fetch that would have) so chains
                        # through and past this superblock can keep
                        # maturing.
                        if prev_bi >= 0:
                            per_src = edges.get(prev_bi)
                            if per_src is None:
                                per_src = edges[prev_bi] = {}
                            per_src[bi] = per_src.get(bi, 0) + 1
                        self._cache_dirty = False
                        remaining = budget - executed
                        retired = sb.fn(thread, remaining)
                        code = exit_cell[1]
                        if code != EXIT_STALE:
                            executed += retired
                            sb_cache.instructions += retired
                            idx = exit_cell[0]
                            # An exit in pass n retired n * count plus a
                            # prefix that ends inside member idx, shorter
                            # than a pass: only an exit at the last
                            # member's end divides evenly, and it ends
                            # its last pass (fallthrough and not-taken
                            # terminals park pc past it, like the
                            # reference).
                            passes, rest = divmod(retired, sb.count)
                            if rest or idx != sb.last:
                                passes += 1
                                if retired == remaining:
                                    # Parked where the budget ended.
                                    sb_cache.bounded += 1
                                    sb_cache.completions += passes
                                else:
                                    # Guard-protected side exit.
                                    sb_cache.completions += passes - 1
                                    sb.side_exits += 1
                                    sb_cache.side_exits += 1
                                    if self.tracer is not None:
                                        self.tracer.instant(
                                            "superblock_side_exit", "dbr",
                                            head=sb.head, member=idx,
                                            code=code)
                            else:
                                sb_cache.completions += passes
                            sb.entries += passes
                            sb_cache.entries += passes
                            if passes > 1:
                                # Each extra pass stands for a transfer
                                # from the last member to the head.
                                last_bi = sb.members[-1].block_index
                                per_src = edges.get(last_bi)
                                if per_src is None:
                                    per_src = edges[last_bi] = {}
                                per_src[bi] = (per_src.get(bi, 0)
                                               + passes - 1)
                            # The block the chain logically left from
                            # stays the profiler's edge source, so the
                            # stream reads as if the members had
                            # dispatched normally.
                            member = sb.members[idx]
                            prev_bi = member.block_index
                            if code == EXIT_RESUME:
                                # pc is parked inside (or just past) a
                                # member; carry on in its block bodies.
                                # Its dispatch is already charged — do
                                # NOT re-fetch.
                                cached = member
                                cur_bi = prev_bi
                                compiled = member.compiled
                                if (compiled is None or
                                        compiled.overhead != overhead):
                                    compiled = self._compile_block(
                                        member, overhead)
                                limits = compiled.limits
                                bodies = compiled.bodies
                                length = compiled.length
                            else:
                                # Control transferred, or REFETCH after a
                                # deviation or a flush, or an access that
                                # faulted: the engine re-fetches; a fault
                                # also makes the retry check the yield
                                # flag and runnability.
                                cur_bi = -1
                                if code == EXIT_FAULT:
                                    pending_yield = True
                                    check_runnable = True
                            if (sb.entries >= THRASH_MIN_ENTRIES
                                    and sb.side_exits * 2 >= sb.entries):
                                # Mispredicting more than it completes:
                                # evict and stop rebuilding until the
                                # head block is itself invalidated.
                                self._drop_superblocks((sb,), bi, "thrash")
                                sb_cache.banned.add(sb.head)
                            continue
                        # EXIT_STALE: a member's CompiledBlock changed
                        # under us; nothing was booked. Drop the
                        # superblock and dispatch normally.
                        self._drop_superblocks((sb,), bi, "stale")
                self._cache_dirty = False
                cached = codecache.get(bi)
                cur_bi = bi
                dbr_cycles[0] += costs.BLOCK_DISPATCH
                compiled = cached.compiled
                if compiled is None or compiled.overhead != overhead:
                    compiled = self._compile_block(cached, overhead)
                limits = compiled.limits
                bodies = compiled.bodies
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
            stop = limits[ii]
            if stop != ii:
                # A block body from here to the first position no body
                # can hold, clipped to the budget — or to one
                # instruction, when a preempt delivered during a fault
                # repair makes the retried instruction the last.
                if pending_yield and kernel._yield_requested:
                    stop = ii + 1
                else:
                    # No preempt pending: a later fault in this body
                    # must not read as one left over from the last.
                    pending_yield = False
                    if stop - ii > budget - executed:
                        stop = ii + budget - executed
                fn = bodies.get((ii, stop))
                if fn is None:
                    fn = block_body(cached, compiled, ii, stop, self)
                retired = fn(thread)
                code = exit_cell[1]
                if retired:
                    executed += retired
                    # A body enters the kernel only through a fault,
                    # which leaves it: a yield can only be pending from
                    # the retried instruction's own repair.
                    if pending_yield:
                        kernel.consume_yield()
                        return "yield"
                    if code == EXIT_RESUME:
                        continue
                if code != EXIT_RESUME:
                    # Control transferred, a hook flushed code, or an
                    # access faulted (the handler may have rebuilt this
                    # block): re-fetch, like the interpreter.
                    cur_bi = -1
                    if code == EXIT_FAULT:
                        pending_yield = True
                        check_runnable = True
                    continue
                # Parked on its own entry with nothing retired: a MOD by
                # zero or a RET on an empty stack, which raise in
                # CPU.execute below exactly like the reference.
            # A kernel action, HALT, or an instruction that raises.
            instr = cached.instrs[ii]
            res = execute(instr, thread)
            counter.instr_cycles += BASE_COST[instr.op] + overhead
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
