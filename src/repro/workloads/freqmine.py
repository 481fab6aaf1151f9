"""freqmine: FP-growth frequent itemset mining.

Character: the paper's most heavily shared benchmark (~56 % of accesses
target shared pages) — all threads walk and update one global FP-tree,
with per-subtree locks, plus modest private projection scratch.
"""

from __future__ import annotations

from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.machine.program import Program
from repro.workloads.base import (
    WORDS_PER_PAGE,
    alu_pad,
    partition_base,
    per_thread_iters,
    seed_lcg,
    spawn_workers,
    stride_accesses,
)

TREE_PAGES = 8
SCRATCH_PAGES_PER_THREAD = 2
#: Locks striping the tree (lock id = 10 + stripe).
TREE_LOCK_STRIPES = 4


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(960, threads, scale)
    b = ProgramBuilder("freqmine")
    tree_base = b.segment("fp-tree", TREE_PAGES * PAGE_SIZE)
    scratch_base = b.segment(
        "projections", threads * SCRATCH_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    # Build a small initial tree.
    b.li(4, tree_base)
    b.li(5, 1)
    for i in range(8):
        b.store(5, base=4, disp=8 * i)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    partition_base(b, 6, scratch_base, SCRATCH_PAGES_PER_THREAD)
    stripe_pages = TREE_PAGES // TREE_LOCK_STRIPES
    with b.loop(counter=2, count=iters):
        # Pick a tree stripe; its lock protects exactly that slice of
        # pages, so concurrent updates to one subtree never race.
        b.mod(9, 2, imm=TREE_LOCK_STRIPES)
        b.add(13, 9, imm=10)            # r13 = stripe lock id
        b.lock(reg=13)
        b.mul(9, 9, imm=stripe_pages * PAGE_SIZE)
        b.add(9, 9, imm=tree_base)      # r9 = stripe slice base
        # Walk the locked subtree: mostly reads, counter increments.
        stride_accesses(b, 9, stripe_pages * WORDS_PER_PAGE, "rrrwrw")
        b.unlock(reg=13)
        alu_pad(b, 3)
        # Private conditional-pattern projection.
        stride_accesses(b, 6, SCRATCH_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rwrw")
    b.halt()
    return b.build()
