"""vips: image-processing pipeline.

Character: threads form a pipeline over image buffers — each stage reads
the boundary of the previous stage's partition and writes its own, with a
work-queue lock. Sharing ~22 % (paper), concentrated on inter-stage
boundary pages. Table 1 shows vips benefits strongly from Aikido at low
thread counts (45 % faster at 2 threads).
"""

from __future__ import annotations

from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.machine.program import Program
from repro.workloads.base import (
    WORDS_PER_PAGE,
    alu_pad,
    every_n,
    rotating_partition_base,
    per_thread_iters,
    seed_lcg,
    spawn_workers,
    stride_accesses,
)

BUFFER_PAGES_PER_THREAD = 8
QUEUE_LOCK = 2
#: Ring of per-frame buffer generations: vips streams tiles through
#: freshly allocated buffers, so new pages (and new sharing transitions)
#: keep appearing for the whole run.
BUFFER_RING = 5
#: Frames per generation switch (counter >> shift).
RING_SHIFT = 1


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(880, threads, scale)
    b = ProgramBuilder("vips")
    buffers_base = b.segment(
        "image-buffers",
        BUFFER_RING * threads * BUFFER_PAGES_PER_THREAD * PAGE_SIZE)
    queue_base = b.segment("work-queue", 64)
    b.label("main")
    b.li(4, queue_base)
    b.li(5, 0)
    b.store(5, base=4, disp=0)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(9, queue_base)
    with b.loop(counter=2, count=iters):
        # Locate this frame generation's buffers (ring rotation).
        rotating_partition_base(b, 6, buffers_base,
                                BUFFER_PAGES_PER_THREAD, threads,
                                BUFFER_RING, counter_reg=2,
                                shift=RING_SHIFT)
        rotating_partition_base(b, 7, buffers_base,
                                BUFFER_PAGES_PER_THREAD, threads,
                                BUFFER_RING, counter_reg=2,
                                shift=RING_SHIFT, neighbor=True)
        # Read the upstream stage's boundary scanline.
        stride_accesses(b, 7, WORDS_PER_PAGE, "r")
        # Publish this stage's boundary scanline (read by the next
        # stage without synchronization — vips' pipeline handshake is a
        # benign racy-read pattern, cf. paper §5.3).
        stride_accesses(b, 6, WORDS_PER_PAGE, "w")
        # Convolve the interior: these instructions never touch a page
        # another stage reads.
        alu_pad(b, 4)
        b.add(13, 6, imm=PAGE_SIZE)
        stride_accesses(b, 13,
                        (BUFFER_PAGES_PER_THREAD - 1) * WORDS_PER_PAGE,
                        "rrwrwrr")
        # Occasionally grab the work queue for the next tile batch.
        with every_n(b, counter_reg=2, mask=0x7):
            b.lock(lock_id=QUEUE_LOCK)
            b.load(12, base=9, disp=0)
            b.add(12, 12, imm=1)
            b.store(12, base=9, disp=0)
            b.unlock(lock_id=QUEUE_LOCK)
    b.halt()
    return b.build()
