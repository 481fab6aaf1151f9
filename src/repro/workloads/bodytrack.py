"""bodytrack: particle-filter body tracking.

Character: a worker pool pulls tiles off a lock-protected task queue,
reads the shared camera frames, and updates private particle weights;
moderate sharing (paper: ~20 %) with frequent short critical sections.
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

FRAME_PAGES = 4
PARTICLE_PAGES_PER_THREAD = 4
QUEUE_LOCK = 1


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(800, threads, scale)
    b = ProgramBuilder("bodytrack")
    frame_base = b.segment("frames", FRAME_PAGES * PAGE_SIZE)
    queue_base = b.segment("task-queue", 64)
    particles_base = b.segment(
        "particles", threads * PARTICLE_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    b.li(4, queue_base)
    b.li(5, 0)
    b.store(5, base=4, disp=0)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(4, frame_base)
    b.li(7, queue_base)
    partition_base(b, 6, particles_base, PARTICLE_PAGES_PER_THREAD)
    with b.loop(counter=2, count=iters):
        # Pull a tile index off the shared queue (short critical section).
        b.lock(lock_id=QUEUE_LOCK)
        b.load(12, base=7, disp=0)
        b.add(12, 12, imm=1)
        b.store(12, base=7, disp=0)
        b.unlock(lock_id=QUEUE_LOCK)
        # Edge/likelihood evaluation against the shared frame. The frame
        # header is read with a *direct* (absolute-address) instruction —
        # exercising AikidoSD's patch-the-displacement rewriting — the
        # rest with indirect addressing.
        b.load(12, disp=frame_base)
        stride_accesses(b, 4, FRAME_PAGES * WORDS_PER_PAGE, "r")
        alu_pad(b, 5)
        # Private particle updates.
        stride_accesses(b, 6, PARTICLE_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rwrrwrwrrwrw" "rrwr")
    b.halt()
    return b.build()
