"""Static sharing pre-classifier (escape-style analysis).

Maps every static memory instruction uid of a finalized program to one of

* ``PROVABLY_PRIVATE`` — on every feasible execution, no page this
  instruction touches is ever touched by a different thread;
* ``PROVABLY_SHARED`` — every page its (bounded) footprint can touch is
  also in the footprint of at least one *other* thread context, so the
  dynamic detector would discover it the moment the page is shared;
* ``UNKNOWN`` — anything the analysis cannot bound or decide.

The analysis enumerates *thread contexts*: the main thread, plus one
context per (spawn target, abstract spawn argument) pair, discovered to
a fixed point (spawned threads may spawn further threads). Each context
is solved with :class:`~repro.staticanalysis.constprop.ConstProp` from
its entry block with ``r1`` bound to the spawn argument's abstract
value; the per-instruction register states then give every memory
instruction a per-context *footprint* (disjoint page intervals, or
unbounded).

Soundness argument for PRIVATE (the only classification the runtime
relies on): footprints over-approximate the pages a context's threads
may touch; contexts over-approximate the threads that may exist
(spawn sites inside loops / multiply-executed code count as "many", and
two instances of the same context count as two accessors); an
unbounded footprint counts as touching *every* page. Therefore if no
other context's footprint overlaps an instruction's footprint — and its
own context is single-instance — no second thread can ever touch those
pages with a user-mode access, which is the only way a page becomes
SHARED in the detector's page state machine. Kernel-mode syscall buffer
accesses bypass page protection entirely and cannot cause transitions,
so they are irrelevant here. When the context enumeration cannot
complete (cap exceeded, or HYPERCALLs that could rewrite protections),
everything degrades to UNKNOWN.

PROVABLY_SHARED is *allowed* to be heuristic: nothing at run time acts
on it, because AikidoSD discovers shared instructions through
protection faults alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.machine.isa import MEMORY_OPCODES, Opcode
from repro.machine.paging import PAGE_SHIFT
from repro.machine.program import Program
from repro.staticanalysis.cfg import CFG, THREAD_EDGES, EdgeKind
from repro.staticanalysis.constprop import (
    AVal,
    ConstProp,
    RegState,
    initial_regs,
    instruction_address,
)

#: Give up on context enumeration beyond this many distinct contexts.
MAX_CONTEXTS = 64
#: A bounded footprint wider than this many pages is treated as
#: unbounded (enumerating it would not be useful anyway).
MAX_FOOTPRINT_PAGES = 1 << 20


class SharingClass(enum.Enum):
    PROVABLY_PRIVATE = "private"
    PROVABLY_SHARED = "shared"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ContextKey:
    """Identity of a thread context: entry block + abstract argument."""

    entry: int
    arg: AVal

    def describe(self, program: Program) -> str:
        label = program.blocks[self.entry].label
        return f"{label}(r1={self.arg!r})"


@dataclass
class Context:
    """One discovered thread context and its analysis results."""

    key: ContextKey
    #: 1 = exactly one thread instance; 2 = two or more ("many").
    instances: int = 1
    #: Register state just before each reachable instruction (by uid).
    states: Dict[int, RegState] = field(default_factory=dict)
    #: uid -> disjoint sorted (first_page, last_page) intervals, or
    #: None for unbounded. Multi-interval footprints arise from setoff
    #: address values (partition base sets plus bounded offsets).
    footprints: Dict[int, Optional[Tuple[Tuple[int, int], ...]]] = \
        field(default_factory=dict)
    #: True when some reachable access has an unbounded footprint.
    unbounded: bool = False


@dataclass
class SharingReport:
    """Classification of every memory instruction of one program."""

    program_name: str
    classes: Dict[int, SharingClass]
    contexts: List[Context]
    #: True when the analysis bailed out (every class is UNKNOWN).
    incomplete: bool = False
    incomplete_reason: str = ""

    @property
    def n_memory_instructions(self) -> int:
        return len(self.classes)

    def count(self, cls: SharingClass) -> int:
        return sum(1 for c in self.classes.values() if c is cls)

    @property
    def coverage(self) -> float:
        """Fraction of memory instructions decided (not UNKNOWN)."""
        total = self.n_memory_instructions
        if not total:
            return 0.0
        return 1.0 - self.count(SharingClass.UNKNOWN) / total

    def uids(self, cls: SharingClass) -> Set[int]:
        return {uid for uid, c in self.classes.items() if c is cls}

    def as_dict(self) -> Dict:
        return {
            "program": self.program_name,
            "memory_instructions": self.n_memory_instructions,
            "provably_private": self.count(SharingClass.PROVABLY_PRIVATE),
            "provably_shared": self.count(SharingClass.PROVABLY_SHARED),
            "unknown": self.count(SharingClass.UNKNOWN),
            "coverage": round(self.coverage, 4),
            "contexts": len(self.contexts),
            "incomplete": self.incomplete,
        }


# ---------------------------------------------------------------------
# context discovery
# ---------------------------------------------------------------------
def _multi_executed_blocks(cfg: CFG) -> Set[int]:
    """Blocks that one thread may execute more than once.

    Loops (cycles over thread edges, which includes recursion through
    CALL edges), plus every block of a callee that is invoked from two
    or more call sites or from a multi-executed block.
    """
    multi = set(cfg.blocks_in_cycles(THREAD_EDGES))
    changed = True
    while changed:
        changed = False
        for target in range(len(cfg.preds)):
            sites = [src for src, kind in cfg.preds[target]
                     if kind is EdgeKind.CALL]
            if not sites:
                continue
            if len(sites) >= 2 or any(s in multi for s in sites):
                body = cfg.reachable(target, THREAD_EDGES)
                if not body <= multi:
                    multi |= body
                    changed = True
    return multi


def discover_contexts(cfg: CFG) -> Tuple[List[Context], str]:
    """Enumerate thread contexts to a fixed point.

    Returns (contexts, reason): ``reason`` is non-empty when the
    enumeration was abandoned and the result must not be trusted.
    """
    program = cfg.program
    for block in program.blocks:
        for instr in block.instructions:
            if instr.op is Opcode.HYPERCALL:
                return [], "program issues hypercalls"
    multi_blocks = _multi_executed_blocks(cfg)
    main = Context(ContextKey(0, AVal.const(0)))
    contexts: Dict[ContextKey, Context] = {main.key: main}
    state_cache: Dict[ContextKey, Dict[int, RegState]] = {}

    def analyze(ctx: Context) -> Dict[int, RegState]:
        if ctx.key not in state_cache:
            cp = ConstProp(cfg, initial_regs(ctx.key.arg))
            state_cache[ctx.key] = \
                cp.states_at_instructions(entry=ctx.key.entry)
        return state_cache[ctx.key]

    changed = True
    while changed:
        changed = False
        for ctx in list(contexts.values()):
            states = analyze(ctx)
            for uid, regs in states.items():
                instr = program.instruction_at(uid)
                if instr.op is not Opcode.SPAWN:
                    continue
                block = cfg.instruction_block(uid)
                count = 2 if (block in multi_blocks
                              or ctx.instances >= 2) else 1
                key = ContextKey(program.label_index(instr.label),
                                 regs[instr.rs1])
                child = contexts.get(key)
                if child is None:
                    if len(contexts) >= MAX_CONTEXTS:
                        return [], "context cap exceeded"
                    contexts[key] = Context(key, instances=count)
                    changed = True
                elif count > child.instances:
                    child.instances = count
                    changed = True
    for ctx in contexts.values():
        ctx.states = analyze(ctx)
    return list(contexts.values()), ""


# ---------------------------------------------------------------------
# footprints
# ---------------------------------------------------------------------
def _compute_footprints(cfg: CFG, ctx: Context) -> None:
    program = cfg.program
    for uid, regs in ctx.states.items():
        instr = program.instruction_at(uid)
        if instr.op not in MEMORY_OPCODES:
            continue
        addr = instruction_address(instr, regs)
        if addr.is_bot:
            continue  # no feasible execution reaches it in this context
        spans = addr.intervals()
        if spans is None:
            ctx.footprints[uid] = None
            ctx.unbounded = True
            continue
        # A word access spans [ea, ea+7] but is translated (and page-
        # classified) through ea alone, so pages are taken from ea.
        pages = _merge_intervals(
            [(lo >> PAGE_SHIFT, hi >> PAGE_SHIFT) for lo, hi in spans])
        if sum(hi - lo for lo, hi in pages) > MAX_FOOTPRINT_PAGES:
            ctx.footprints[uid] = None
            ctx.unbounded = True
        else:
            ctx.footprints[uid] = tuple(pages)


def _merge_intervals(intervals: List[Tuple[int, int]]
                     ) -> List[Tuple[int, int]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _overlaps(merged: List[Tuple[int, int]], lo: int, hi: int) -> bool:
    import bisect

    i = bisect.bisect_right(merged, (lo, 1 << 62)) - 1
    if i >= 0 and merged[i][1] >= lo:
        return True
    if i + 1 < len(merged) and merged[i + 1][0] <= hi:
        return True
    return False


def _covers(merged: List[Tuple[int, int]], lo: int, hi: int) -> bool:
    """True when [lo, hi] is fully inside the merged interval list."""
    import bisect

    i = bisect.bisect_right(merged, (lo, 1 << 62)) - 1
    return i >= 0 and merged[i][0] <= lo and hi <= merged[i][1]


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------
def classify_sharing(program: Program,
                     cfg: Optional[CFG] = None,
                     contexts: Optional[List[Context]] = None,
                     discovery_reason: str = "") -> SharingReport:
    """Classify every memory instruction of ``program``.

    ``contexts`` (with footprints already computed) and the matching
    ``discovery_reason`` may come from a previous
    :func:`discover_contexts` pass — the analysis cache uses this to
    share one discovery across classifier, linter, race analyzer and
    elision planner.
    """
    if cfg is None:
        cfg = CFG(program)
    memory_uids = [
        instr.uid
        for block in program.blocks
        for instr in block.instructions
        if instr.op in MEMORY_OPCODES
    ]
    if contexts is None:
        contexts, discovery_reason = discover_contexts(cfg)
        if not discovery_reason:
            for ctx in contexts:
                _compute_footprints(cfg, ctx)
    if discovery_reason:
        return SharingReport(
            program.name,
            {uid: SharingClass.UNKNOWN for uid in memory_uids},
            [], incomplete=True, incomplete_reason=discovery_reason)

    # Per-context merged footprints (for the "does anyone else touch
    # this page" query) and the multi-coverage region (pages touched by
    # two or more thread instances, for the PROVABLY_SHARED side).
    per_ctx_merged: List[List[Tuple[int, int]]] = []
    for ctx in contexts:
        per_ctx_merged.append(_merge_intervals(
            [span for fp in ctx.footprints.values() if fp is not None
             for span in fp]))
    any_unbounded = [ctx.unbounded for ctx in contexts]

    events: List[Tuple[int, int]] = []
    wildcard_weight = 0
    for ctx, merged in zip(contexts, per_ctx_merged):
        weight = min(ctx.instances, 2)
        if ctx.unbounded:
            wildcard_weight += weight
            continue
        for lo, hi in merged:
            events.append((lo, weight))
            events.append((hi + 1, -weight))
    events.sort()
    multi_region: List[Tuple[int, int]] = []
    depth, start = 0, None
    idx = 0
    while idx < len(events):
        pos = events[idx][0]
        while idx < len(events) and events[idx][0] == pos:
            depth += events[idx][1]
            idx += 1
        if depth + wildcard_weight >= 2 and start is None:
            start = pos
        elif depth + wildcard_weight < 2 and start is not None:
            multi_region.append((start, pos - 1))
            start = None
    if start is not None:
        multi_region.append((start, (1 << 52)))
    if wildcard_weight >= 2:
        multi_region = [(0, 1 << 52)]
    multi_region = _merge_intervals(multi_region)

    classes: Dict[int, SharingClass] = {}
    for uid in memory_uids:
        reaching = [(i, ctx) for i, ctx in enumerate(contexts)
                    if uid in ctx.footprints]
        if not reaching:
            # Dead code (or infeasible in every context): never
            # executes, so leave it to the dynamic machinery.
            classes[uid] = SharingClass.UNKNOWN
            continue
        private = True
        shared = True
        for i, ctx in reaching:
            fp = ctx.footprints[uid]
            if fp is None:
                private = shared = False
                break
            if ctx.instances >= 2:
                private = False
            else:
                for j, other in enumerate(contexts):
                    if j == i:
                        continue
                    if any_unbounded[j] or any(
                            _overlaps(per_ctx_merged[j], lo, hi)
                            for lo, hi in fp):
                        private = False
                        break
            if not all(_covers(multi_region, lo, hi) for lo, hi in fp):
                shared = False
            if not private and not shared:
                break
        if private:
            classes[uid] = SharingClass.PROVABLY_PRIVATE
        elif shared:
            classes[uid] = SharingClass.PROVABLY_SHARED
        else:
            classes[uid] = SharingClass.UNKNOWN
    return SharingReport(program.name, classes, contexts)
