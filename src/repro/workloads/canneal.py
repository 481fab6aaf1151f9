"""canneal: cache-aware simulated annealing for chip routing.

Character: threads swap random netlist elements inside one large shared
array using lock-free atomic operations, with substantial private
cost-evaluation scratch (~12 % sharing in the paper). Crucially, canneal
contains the paper's flagship detected race (§5.3): its Mersenne-Twister
random number generator is advanced by all threads without
synchronization — a "benign" race both FastTrack configurations report.
"""

from __future__ import annotations

from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.machine.program import Program
from repro.workloads.base import (
    WORDS_PER_PAGE,
    alu_pad,
    every_n,
    partition_base,
    per_thread_iters,
    seed_lcg,
    spawn_workers,
    stride_accesses,
)

NETLIST_PAGES = 120
SCRATCH_PAGES_PER_THREAD = 6


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(880, threads, scale)
    b = ProgramBuilder("canneal")
    netlist_base = b.segment("netlist", NETLIST_PAGES * PAGE_SIZE)
    rng_base = b.segment("mt-rng", 64, initial={0: 0x1234})
    scratch_base = b.segment(
        "cost-scratch", threads * SCRATCH_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    b.li(4, netlist_base)
    b.li(5, 3)
    for i in range(4):
        b.store(5, base=4, disp=8 * i)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(4, netlist_base)
    b.li(8, rng_base)
    partition_base(b, 6, scratch_base, SCRATCH_PAGES_PER_THREAD)
    with b.loop(counter=2, count=iters):
        # The racy shared Mersenne-Twister step (every 4th move): read
        # the generator state, "twist", write it back — unsynchronized.
        with every_n(b, counter_reg=2, mask=0x3):
            b.load(12, base=8, disp=0)
            b.mul(12, 12, imm=6364136223846793005)
            b.add(12, 12, imm=1442695040888963407)
            b.store(12, base=8, disp=0)
        # Pick an element and swap atomically (lock-free exchange).
        b.lcg_offset(11, 10, NETLIST_PAGES * WORDS_PER_PAGE)
        b.add(11, 11, 4)
        b.li(12, 1)
        b.atomic_add(13, 12, base=11, disp=0)
        # Private routing-cost evaluation.
        alu_pad(b, 4)
        stride_accesses(b, 6, SCRATCH_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rrwrrwrrw")
    b.halt()
    return b.build()
