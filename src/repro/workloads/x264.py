"""x264: H.264 video encoding.

Character: frame-level pipeline parallelism — a thread encoding frame N
motion-searches into reference rows of frame N-1, owned by another thread,
so cross-thread reads are frequent (~29 % sharing in the paper). Progress
is rate-limited with per-frame locks.
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

FRAME_PAGES_PER_THREAD = 8
PROGRESS_LOCK_BASE = 30
#: Double-buffered frame ring: new frames are allocated continuously, so
#: x264's fault count per memory access is the paper's highest (Table 2).
FRAME_RING = 2
RING_SHIFT = 2


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(880, threads, scale)
    b = ProgramBuilder("x264")
    frames_base = b.segment(
        "frames", FRAME_RING * threads * FRAME_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    with b.loop(counter=2, count=iters):
        rotating_partition_base(b, 6, frames_base, FRAME_PAGES_PER_THREAD,
                                threads, FRAME_RING, counter_reg=2,
                                shift=RING_SHIFT)
        rotating_partition_base(b, 7, frames_base, FRAME_PAGES_PER_THREAD,
                                threads, FRAME_RING, counter_reg=2,
                                shift=RING_SHIFT, neighbor=True)
        # Motion search in the reference frame (another thread's rows):
        # the boundary page is routinely consulted. x264's progress
        # handshake is coarse, so these reads are the classic benign
        # racy-read the paper's §5.3 mentions.
        b.load(12, base=7, disp=0)
        b.load(12, base=7, disp=8)
        # Publish this frame's reconstructed-row progress word (the
        # handshake is a flag word per frame, read without locking).
        b.store(12, base=6, disp=0)
        alu_pad(b, 4)
        # Encode macroblocks into the interior of this thread's frame.
        b.add(13, 6, imm=PAGE_SIZE)
        stride_accesses(b, 13,
                        (FRAME_PAGES_PER_THREAD - 1) * WORDS_PER_PAGE,
                        "rwrwrrw")
        # Per-row progress handshake with the upstream frame.
        with every_n(b, counter_reg=2, mask=0x3):
            b.mod(9, 1, imm=4)
            b.add(9, 9, imm=PROGRESS_LOCK_BASE)
            b.lock(reg=9)
            b.unlock(reg=9)
    b.halt()
    return b.build()
