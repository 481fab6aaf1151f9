"""Basic-block control-flow graph over a finalized Program.

Edges carry a kind so client analyses can select which control transfers
they follow:

* ``FALL`` — implicit fallthrough into the next block (no terminator, or
  the not-taken side of a conditional branch);
* ``BRANCH`` — an explicit JMP/BZ/BNZ/BLT/BGE target;
* ``CALL`` — entry into a callee (CALL is *not* a block terminator in
  this ISA: control returns to the same block, so the caller block keeps
  its own fallthrough/branch edges as well);
* ``SPAWN`` — a new thread starting at the spawn target.

Intra-thread analyses (constant propagation, locksets) follow
FALL/BRANCH/CALL; whole-program reachability follows everything.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.machine.isa import BLOCK_TERMINATORS, Opcode
from repro.machine.program import Program

#: Conditional branches: taken edge plus fallthrough.
CONDITIONAL_BRANCHES = frozenset({
    Opcode.BZ, Opcode.BNZ, Opcode.BLT, Opcode.BGE,
})


class EdgeKind(enum.Enum):
    FALL = "fall"
    BRANCH = "branch"
    CALL = "call"
    SPAWN = "spawn"


#: The edge kinds a single thread's execution can follow without
#: creating a new thread.
THREAD_EDGES = frozenset({EdgeKind.FALL, EdgeKind.BRANCH, EdgeKind.CALL})
ALL_EDGES = frozenset(EdgeKind)


class CFG:
    """Control-flow graph: block indices as nodes, kind-tagged edges."""

    def __init__(self, program: Program):
        if not program.finalized:
            raise ValueError("CFG requires a finalized program")
        self.program = program
        n = len(program.blocks)
        #: block -> [(successor, kind)]
        self.succs: List[List[Tuple[int, EdgeKind]]] = [[] for _ in range(n)]
        #: block -> [(predecessor, kind)]
        self.preds: List[List[Tuple[int, EdgeKind]]] = [[] for _ in range(n)]
        #: blocks containing a SPAWN, with (block, position, target block).
        self.spawn_sites: List[Tuple[int, int, int]] = []
        #: blocks ending in RET (thread control returns to the caller).
        self.return_blocks: Set[int] = set()
        #: blocks ending in HALT (thread exit points).
        self.halt_blocks: Set[int] = set()
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.succs[src].append((dst, kind))
        self.preds[dst].append((src, kind))

    def _build(self) -> None:
        program = self.program
        n = len(program.blocks)
        for bi, block in enumerate(program.blocks):
            for pos, instr in enumerate(block.instructions):
                if instr.op is Opcode.CALL:
                    self._add_edge(bi, program.label_index(instr.label),
                                   EdgeKind.CALL)
                elif instr.op is Opcode.SPAWN:
                    target = program.label_index(instr.label)
                    self._add_edge(bi, target, EdgeKind.SPAWN)
                    self.spawn_sites.append((bi, pos, target))
            last = block.instructions[-1] if block.instructions else None
            if last is None or last.op not in BLOCK_TERMINATORS:
                if bi + 1 < n:
                    self._add_edge(bi, bi + 1, EdgeKind.FALL)
                continue
            op = last.op
            if op is Opcode.JMP:
                self._add_edge(bi, program.label_index(last.label),
                               EdgeKind.BRANCH)
            elif op in CONDITIONAL_BRANCHES:
                self._add_edge(bi, program.label_index(last.label),
                               EdgeKind.BRANCH)
                if bi + 1 < n:
                    self._add_edge(bi, bi + 1, EdgeKind.FALL)
            elif op is Opcode.RET:
                self.return_blocks.add(bi)
            elif op is Opcode.HALT:
                self.halt_blocks.add(bi)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def successors(self, block: int,
                   kinds: FrozenSet[EdgeKind] = ALL_EDGES
                   ) -> Iterable[int]:
        for dst, kind in self.succs[block]:
            if kind in kinds:
                yield dst

    def reachable(self, entry: int = 0,
                  kinds: FrozenSet[EdgeKind] = ALL_EDGES) -> Set[int]:
        """Blocks reachable from ``entry`` following the given edge kinds."""
        seen = {entry}
        stack = [entry]
        while stack:
            block = stack.pop()
            for dst, kind in self.succs[block]:
                if kind in kinds and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def unreachable_blocks(self) -> List[int]:
        """Blocks no thread can ever execute (dead code)."""
        live = self.reachable(0, ALL_EDGES)
        return [bi for bi in range(len(self.program.blocks))
                if bi not in live]

    def dominators(self, entry: int = 0,
                   kinds: FrozenSet[EdgeKind] = THREAD_EDGES
                   ) -> Dict[int, Set[int]]:
        """Classic iterative dominator sets over the chosen subgraph.

        ``dom[b]`` is the set of blocks on every path from ``entry`` to
        ``b`` (including ``b``). Blocks unreachable from ``entry`` are
        absent from the result.
        """
        live = self.reachable(entry, kinds)
        dom: Dict[int, Set[int]] = {b: set(live) for b in live}
        dom[entry] = {entry}
        changed = True
        while changed:
            changed = False
            for block in sorted(live):
                if block == entry:
                    continue
                preds = [p for p, kind in self.preds[block]
                         if kind in kinds and p in live]
                if preds:
                    new = set.intersection(*(dom[p] for p in preds))
                else:
                    new = set()
                new.add(block)
                if new != dom[block]:
                    dom[block] = new
                    changed = True
        return dom

    def blocks_in_cycles(self, kinds: FrozenSet[EdgeKind] = THREAD_EDGES
                         ) -> Set[int]:
        """Blocks that sit on some cycle (may execute more than once).

        Used by the sharing classifier to detect spawn sites inside
        loops: such a site can create several threads, so everything its
        thread context touches must be treated as multi-instance.
        """
        in_cycle: Set[int] = set()
        n = len(self.program.blocks)
        for start in range(n):
            if start in in_cycle:
                continue
            # DFS from each successor of `start`, looking for a way back.
            stack = [dst for dst, kind in self.succs[start]
                     if kind in kinds]
            seen: Set[int] = set()
            while stack:
                block = stack.pop()
                if block == start:
                    in_cycle.add(start)
                    break
                if block in seen:
                    continue
                seen.add(block)
                stack.extend(dst for dst, kind in self.succs[block]
                             if kind in kinds)
        return in_cycle

    def instruction_block(self, uid: int) -> int:
        return self.program.instruction_locations[uid][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(len(s) for s in self.succs)
        return (f"<CFG blocks={len(self.program.blocks)} edges={edges} "
                f"spawns={len(self.spawn_sites)}>")


def build_cfg(program: Program) -> CFG:
    """Convenience constructor (mirrors the other layers' factories)."""
    return CFG(program)
