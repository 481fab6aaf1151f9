"""swaptions: Monte-Carlo HJM swaption pricing.

Character: task-parallel like blackscholes but with a larger shared
read-only term-structure input consulted more often per simulation step,
putting its sharing around 12 % (paper: ~11.9 %). Heavy private RNG and
path-scratch traffic, no locks.
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

CURVE_PAGES = 4
PATH_PAGES_PER_THREAD = 4


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(880, threads, scale)
    b = ProgramBuilder("swaptions")
    curve_base = b.segment("term-structure", CURVE_PAGES * PAGE_SIZE)
    path_base = b.segment("paths",
                          threads * PATH_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    b.li(4, curve_base)
    b.li(5, 42)
    for i in range(4):
        b.store(5, base=4, disp=8 * i)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(4, curve_base)
    partition_base(b, 6, path_base, PATH_PAGES_PER_THREAD)
    with b.loop(counter=2, count=iters):
        # Forward-rate lookups in the shared term structure.
        stride_accesses(b, 4, CURVE_PAGES * WORDS_PER_PAGE, "rr")
        # HJM path evolution: private path scratch, Monte-Carlo draws.
        alu_pad(b, 8)
        stride_accesses(b, 6, PATH_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rwrwrrwrrwrwrw")
    b.halt()
    return b.build()
