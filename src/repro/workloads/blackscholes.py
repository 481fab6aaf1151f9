"""blackscholes: embarrassingly parallel option pricing.

Character (matching the real benchmark): every thread reads a slice of a
shared read-only option-parameter array and writes results to its own
partition; no locks, no barriers, fork/join only. Sharing comes solely
from the read-only input pages being touched by every thread — low
(paper: ~6.9 % of accesses to shared pages).
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

#: Pages of the shared read-only input (option parameters).
INPUT_PAGES = 4
#: Pages of per-thread output/scratch partition.
OUT_PAGES_PER_THREAD = 4


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(880, threads, scale)
    b = ProgramBuilder("blackscholes")
    input_base = b.segment("options", INPUT_PAGES * PAGE_SIZE)
    out_base = b.segment("results",
                         threads * OUT_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    # Main initializes a few option records (stays private until workers
    # read them, then the input pages become read-shared).
    b.li(4, input_base)
    b.li(5, 100)
    for i in range(4):
        b.store(5, base=4, disp=8 * i)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(4, input_base)
    partition_base(b, 6, out_base, OUT_PAGES_PER_THREAD)
    with b.loop(counter=2, count=iters):
        # One read of shared option parameters...
        stride_accesses(b, 4, INPUT_PAGES * WORDS_PER_PAGE, "r")
        # ...then the Black-Scholes kernel: private compute and private
        # reads/writes of intermediate and final results.
        alu_pad(b, 6)
        stride_accesses(b, 6, OUT_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rrwrrwrw" "rrwrrw")
    b.halt()
    return b.build()
