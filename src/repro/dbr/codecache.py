"""The basic-block code cache.

Mirrors the DynamoRIO design the paper relies on (§2.1): application code
executes from per-block copies, which tools can instrument at copy time;
deleting a cached block forces a rebuild on next execution, re-running the
instrumentation callbacks — that is the re-JIT AikidoSD uses to attach
tool instrumentation to an instruction that faulted on a shared page.

Hot blocks are promoted to *traces*: the flag feeds the cost model
(trace building is real work the engine must redo after a flush) and
marks the block eligible for the superblock tier, which stitches chains
of in-trace blocks into single generated functions
(:mod:`repro.dbr.superblock`). Every invalidation path resets trace
state and notifies ``invalidation_listeners`` so dependent superblocks
die with their members.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro import costs
from repro.errors import ToolError
from repro.machine.program import BasicBlock, Program


class CachedBlock:
    """A code-cache copy of one basic block.

    ``instrs`` are copies of the static instructions (tools may patch
    their operands); ``hooks`` is a parallel list with an instrumentation
    callable or None per instruction, and ``quiet`` holds the positions
    whose hook was set quiet (see :meth:`set_hook`).
    """

    __slots__ = ("block_index", "instrs", "hooks", "quiet", "executions",
                 "in_trace", "compiled")

    def __init__(self, block_index: int, source: BasicBlock):
        self.block_index = block_index
        self.instrs = [i.copy() for i in source.instructions]
        self.hooks: List[Optional[Callable]] = [None] * len(self.instrs)
        self.quiet: Set[int] = set()
        self.executions = 0
        self.in_trace = False
        #: Lazily attached :class:`~repro.dbr.blockcompiler.CompiledBlock`
        #: (None until the engine's compiled tier first enters the block).
        #: It shares this object's lifetime: every invalidation path pops
        #: the CachedBlock, taking the compiled bodies with it.
        self.compiled = None

    def set_hook(self, position: int, hook: Callable,
                 quiet: bool = False) -> None:
        """Hook the memory instruction at ``position``.

        Tools call this only from ``instrument_block``, while the block
        is built; the compiled tier binds the hook into the block's
        generated bodies once. Only memory instructions take hooks.

        A hook is *observing* by default: when it runs, the cycle
        counter, the engine stats and pc read exactly as in the
        interpreter tier, so a generated body books its retired prefix
        and parks pc before the call. Pass ``quiet=True`` only for a hook
        that reads none of these (it may still charge cycles and bump
        counters of its own, which only ever add up): generated bodies
        then call it directly and book the prefix at their next exit.
        """
        instr = self.instrs[position]
        if instr.mem is None:
            raise ToolError(
                f"hook on non-memory instruction {instr!r} "
                f"(block {self.block_index}, position {position})")
        self.hooks[position] = hook
        if quiet:
            self.quiet.add(position)
        else:
            self.quiet.discard(position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hooked = sum(1 for h in self.hooks if h is not None)
        return (f"<CachedBlock #{self.block_index} x{len(self.instrs)} "
                f"hooked={hooked}>")


class CodeCache:
    """block index -> CachedBlock, with build/flush accounting."""

    def __init__(self, program: Program, counter=None,
                 trace_threshold: int = 50):
        self.program = program
        self.counter = counter
        self.trace_threshold = trace_threshold
        self._blocks: Dict[int, CachedBlock] = {}
        #: Callbacks run (in order) on every newly built block.
        self.build_callbacks: List[Callable[[CachedBlock], None]] = []
        self.builds = 0
        self.flushes = 0
        self.traces_built = 0
        #: Compiled-tier traffic: blocks compiled by the engine, their
        #: generated body variants (one per entry ``(start, stop)``
        #: pair) and compiled blocks dropped by invalidation
        #: (observability only — never part of the tier-parity stats
        #: surface).
        self.closures_compiled = 0
        self.bodies_built = 0
        self.closures_dropped = 0
        #: Observability tracer, attached by AikidoSystem (None = off).
        self.tracer = None
        #: Called as ``listener(block_index, reason)`` whenever a flush
        #: pops a cached block. The engine registers one to drop
        #: superblocks containing the block.
        self.invalidation_listeners: List[Callable[[int, str], None]] = []

    def _notify_invalidated(self, block_index: int, reason: str) -> None:
        for listener in self.invalidation_listeners:
            listener(block_index, reason)

    def _note_closure_dropped(self, cached: CachedBlock,
                              reason: str) -> None:
        if cached.compiled is None:
            return
        self.closures_dropped += 1
        if self.tracer is not None:
            self.tracer.instant("closure_invalidate", "dbr",
                                block=cached.block_index, reason=reason)

    def get(self, block_index: int) -> CachedBlock:
        """Fetch a cached block, building (and instrumenting) on miss."""
        cached = self._blocks.get(block_index)
        if cached is None:
            cached = self._build(block_index)
        cached.executions += 1
        if (not cached.in_trace
                and cached.executions >= self.trace_threshold):
            self._maybe_promote(cached)
        return cached

    def _maybe_promote(self, cached: CachedBlock) -> None:
        """Promote a hot block to trace membership.

        Charges the cost model's TRACE_BUILD (under the ``trace``
        attribution bucket) and emits a ``trace_build`` instant; the
        engine's superblock builder keys off ``in_trace`` to grow
        chains from promoted blocks.
        """
        cached.in_trace = True
        self.traces_built += 1
        if self.counter is not None:
            self.counter.charge("trace", costs.TRACE_BUILD)
        if self.tracer is not None:
            self.tracer.instant("trace_build", "dbr",
                                block=cached.block_index,
                                executions=cached.executions)

    def invalidate_blocks_of_instruction(self, uid: int) -> int:
        """Flush every cached block containing the static instruction.

        (In this program representation an instruction lives in exactly
        one block; DynamoRIO additionally flushes traces, modeled by the
        trace flag being rebuilt from scratch.) Returns the number of
        blocks flushed.
        """
        block_index, _ = self.program.instruction_locations[uid]
        return self.invalidate(block_index)

    def _reset_trace_state(self, cached: CachedBlock) -> None:
        # A flushed block's promotion is gone with it: the rebuild
        # starts cold and must re-earn (and re-charge) its trace
        # membership. Clearing the popped object's state also trips the
        # identity guards of any superblock still holding a reference.
        cached.compiled = None
        cached.in_trace = False
        cached.executions = 0

    def invalidate(self, block_index: int) -> int:
        cached = self._blocks.pop(block_index, None)
        if cached is None:
            return 0
        self._note_closure_dropped(cached, "flush")
        self._reset_trace_state(cached)
        self.flushes += 1
        if self.counter is not None:
            self.counter.charge("dbr", costs.BLOCK_FLUSH)
        if self.tracer is not None:
            self.tracer.instant("cache_flush", "dbr",
                                block=block_index, blocks=1)
        self._notify_invalidated(block_index, "flush")
        return 1

    def invalidate_all(self) -> int:
        """Flush the whole cache (chaos hook / full re-JIT).

        Every subsequent block entry rebuilds from program text through
        the same ``build_callbacks``, so instrumentation state is fully
        reconstructed. Returns the number of blocks flushed.
        """
        count = len(self._blocks)
        if count == 0:
            return 0
        dropped = list(self._blocks.values())
        for cached in dropped:
            self._note_closure_dropped(cached, "flush_all")
            self._reset_trace_state(cached)
        self._blocks.clear()
        self.flushes += count
        if self.counter is not None:
            self.counter.charge("dbr", costs.BLOCK_FLUSH * count)
        if self.tracer is not None:
            self.tracer.instant("cache_flush", "dbr", blocks=count)
        for cached in dropped:
            self._notify_invalidated(cached.block_index, "flush_all")
        return count

    def _build(self, block_index: int) -> CachedBlock:
        source = self.program.block_at(block_index)
        cached = CachedBlock(block_index, source)
        tracer = self.tracer
        if tracer is not None:
            with tracer.span("block_build", "dbr", block=block_index,
                             instrs=len(cached.instrs)):
                for callback in self.build_callbacks:
                    callback(cached)
        else:
            for callback in self.build_callbacks:
                callback(cached)
        self._blocks[block_index] = cached
        self.builds += 1
        if self.counter is not None:
            self.counter.charge("dbr", costs.BLOCK_BUILD)
        return cached

    def __contains__(self, block_index: int) -> bool:
        return block_index in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)
