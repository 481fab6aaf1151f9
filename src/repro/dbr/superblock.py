"""Superblock tier: hot block chains compiled into one function.

A block body (:mod:`repro.dbr.blockcompiler`) still ends at its block:
every block entry pays a cache probe, a dispatch charge and a body
call. This module is the trace half of the superblock tier — it
stitches a *chain* of hot blocks (selected by
:class:`~repro.dbr.traceprofiler.TraceProfiler`) into one generated
body, the moral equivalent of a DynamoRIO trace. The body comes from
the same emitter as block bodies
(:func:`~repro.dbr.blockcompiler.body_source`; the module docstring of
:mod:`repro.dbr.blockcompiler` states the rules), with three additions:

* **Chain-internal control transfers disappear.** JMP and CALL fall
  through into the next member; a conditional branch is guarded on the
  direction the chain predicts. A deviation retires the branch and
  leaves with pc on the actual target (``EXIT_REFETCH``).
* **Fetch bookkeeping is the body's.** The engine enters a chain in
  place of its head's fetch, so the body books every member's dispatch
  charge and execution count at its exits.
* **Identity guards.** The prologue checks that each member still holds
  the CompiledBlock the body was built from: a flush (any hook
  addition) or a recompile against a new residency overhead replaces
  it. A stale body books nothing (``EXIT_STALE``); the engine drops it
  and falls back.

Any other exit parks pc inside a member (``EXIT_RESUME``) and the engine
carries on through that member's block bodies, or leaves through the
fault and re-fetch exits exactly like a block body. A chain member must
be a block one body holds whole (``CompiledBlock.stitchable``): kernel
operations, HALT and mid-block CALLs keep a block out of chains.

**Bounded entry.** When the rest of the quantum is shorter than the
whole chain, the engine enters the longest member prefix that fits
(:meth:`SuperBlock.prefix`): the first ``k`` members compiled as a chain
of their own, whose last member's exit already leaves both ways. The
prefix is memoized on its parent and dies with it; its entries, side
exits and completions are booked on the parent, whose thrash decision
they feed, and a stale prefix drops the parent. Only an entry whose
first member alone does not fit is refused.

The parity contract is the same as the compiled tier's: bit-identical
simulated statistics, race reports, chaos replay logs and cycle
attribution versus the interpreter, enforced by
``tests/dbr/test_compiled_parity.py``, the scengen oracle's
``tier_parity_*_superblock`` checks and the three-tier parity stanza of
``scripts/smoke.sh``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from types import FunctionType
from typing import Dict, List, Optional, Set, Tuple

from repro.dbr.blockcompiler import (  # noqa: F401 - exit codes re-exported
    EXIT_COMPLETE,
    EXIT_FAULT,
    EXIT_REFETCH,
    EXIT_RESUME,
    EXIT_STALE,
    _BRANCH_OPCODES,
    body_code,
    body_globals,
)
from repro.machine.isa import Opcode

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


class SuperBlock:
    """One compiled trace: a chain of cached blocks and its body."""

    __slots__ = ("head", "members", "fn", "count", "ends", "prefixes",
                 "overhead", "entries", "side_exits")

    def __init__(self, head: int, members: Tuple, fn, overhead: int):
        self.head = head
        #: The chain's CachedBlocks, in order. The engine resumes
        #: ``members[i]`` on an EXIT_RESUME side exit that leaves ``i`` in
        #: its exit cell.
        self.members = members
        self.fn = fn
        #: Instructions retired by completing each member prefix.
        self.ends = tuple(accumulate(len(m.instrs) for m in members))
        #: Total instructions when the body runs to completion. When the
        #: rest of the quantum is shorter, the engine enters the longest
        #: member prefix that fits instead (:meth:`prefix`), and refuses
        #: the entry only when not even the first member fits.
        self.count = self.ends[-1]
        #: Bounded-entry bodies, keyed by member count: they live and die
        #: with this superblock, which books their entries and exits.
        self.prefixes: Dict[int, SuperBlock] = {}
        self.overhead = overhead
        self.entries = 0
        self.side_exits = 0

    def prefix(self, budget: int, engine) -> Optional["SuperBlock"]:
        """The longest member prefix that retires at most ``budget``
        instructions, compiled on first use; None if the first member
        alone does not fit. The prefix's last member exits both ways,
        like any chain's last member, so the emitter needs no budget
        guard. Its body reads this body's globals, whose names for the
        first members are the same, so its identity guards check the
        blocks this superblock was built from."""
        k = bisect_right(self.ends, budget)
        if k == 0:
            return None
        sb = self.prefixes.get(k)
        if sb is None:
            sb = self.prefixes[k] = compile_superblock(
                self.members[:k], engine, self.fn.__globals__)
        return sb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = "->".join(str(m.block_index) for m in self.members)
        return f"<SuperBlock {chain} x{self.count}>"


class SuperBlockCache:
    """head block index -> SuperBlock, with a member reverse index.

    Every code-cache invalidation path notifies the engine (through
    ``CodeCache.invalidation_listeners``), which drops every superblock
    :meth:`containing` the block — a superblock dies when *any* of its
    members is flushed or re-JITted.
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
        #: Entries that ran a member prefix because the whole chain did
        #: not fit the rest of the quantum (:meth:`SuperBlock.prefix`),
        #: and entries refused because not even the first member fit;
        #: the block bodies run those instructions instead.
        self.bounded = 0
        self.refused = 0
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
    (re)compiled here if their CompiledBlock is missing or stale, so the
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


def compile_superblock(members: List, engine,
                       glb: Optional[dict] = None) -> SuperBlock:
    """Generate and bind the body for one chain.

    The generated ``fn(thread) -> retired`` reports its exit through the
    engine's exit cell ``[resume_member_index, exit_code]``. ``glb`` is a
    longer chain's globals, which a member prefix shares.
    """
    label_index = engine.codecache.program.label_index
    firsts: Dict[int, int] = {}
    shape = []
    for idx, member in enumerate(members):
        f = firsts.setdefault(id(member), len(firsts))
        slots = member.compiled.slots
        follows_taken = False
        if idx < len(members) - 1 and slots[-1].op in _BRANCH_OPCODES:
            # A degenerate branch reaches the next member both ways;
            # predict taken and let not-taken side-exit.
            target = label_index(member.instrs[-1].label)
            follows_taken = (target == member.block_index + 1
                             or target == members[idx + 1].block_index)
        shape.append((f, slots, follows_taken))
    overhead = engine.overhead_per_instr
    if glb is None:
        glb = body_globals(engine, [(m, 0, len(m.instrs)) for m in members],
                           chain=True)
    fn = FunctionType(body_code(True, overhead, 0, tuple(shape)), glb)
    return SuperBlock(members[0].block_index, tuple(members), fn, overhead)
