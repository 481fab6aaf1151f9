"""raytrace: real-time ray tracing.

Character: by far the paper's best case for Aikido — 0.11 % of accesses
target shared pages. Each thread traces rays through a private tile with
an enormous amount of private intersection work; only very occasionally
does it consult the shared scene/BVH root or update the shared frame
statistics. Long-running (the paper's raytrace executes 13.2 B memory
accesses, an order of magnitude more than its peers).
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

SCENE_PAGES = 2
TILE_PAGES_PER_THREAD = 8


def build(threads: int = 8, scale: float = 1.0) -> Program:
    iters = per_thread_iters(3360, threads, scale)
    b = ProgramBuilder("raytrace")
    scene_base = b.segment("scene", SCENE_PAGES * PAGE_SIZE)
    tiles_base = b.segment("tiles",
                           threads * TILE_PAGES_PER_THREAD * PAGE_SIZE)
    b.label("main")
    b.li(4, scene_base)
    b.li(5, 7)
    b.store(5, base=4, disp=0)
    spawn_workers(b, threads)
    b.halt()

    b.label("worker")
    seed_lcg(b)
    b.li(4, scene_base)
    partition_base(b, 6, tiles_base, TILE_PAGES_PER_THREAD)
    with b.loop(counter=2, count=iters):
        # Intersection tests against the thread's cached BVH sub-tree and
        # shading into its private tile: all private.
        stride_accesses(b, 6, TILE_PAGES_PER_THREAD * WORDS_PER_PAGE,
                        "rrrwrrrw" "rrwr")
        alu_pad(b, 14)
        # Every 256 rays, consult the shared scene root.
        with every_n(b, counter_reg=2, mask=0xFF):
            b.load(12, base=4, disp=0)
    b.halt()
    return b.build()
