"""Soundness cross-check: static PROVABLY_PRIVATE vs dynamic ground truth.

A recorder tool under the plain DBR engine hooks *every* memory access
and rebuilds, per instruction, the set of pages it touched and, per
page, the set of threads that touched it. Any page touched by two or
more threads is dynamically shared, and no PROVABLY_PRIVATE instruction
may ever touch one. This must hold on every bundled workload.
"""

from collections import defaultdict

import pytest

from repro.dbr.engine import DBREngine
from repro.dbr.tool import Tool
from repro.guestos.kernel import Kernel
from repro.machine.paging import PAGE_SHIFT
from repro.staticanalysis import SharingClass, classify_sharing
from repro.workloads.parsec import benchmark_names, get_benchmark

THREADS = 4
SCALE = 0.3


class AccessRecorder(Tool):
    """Hook every memory access; record uid->pages and page->tids."""

    name = "access-recorder"

    def __init__(self):
        super().__init__()
        self.uid_pages = defaultdict(set)
        self.page_tids = defaultdict(set)

    def instrument_block(self, cached):
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None:
                cached.set_hook(pos, self._record)

    def _record(self, thread, instr, ea):
        page = ea >> PAGE_SHIFT
        self.uid_pages[instr.uid].add(page)
        self.page_tids[page].add(thread.tid)
        return None


def _record_run(program, seed):
    kernel = Kernel(seed=seed, quantum=150, jitter=0.1)
    kernel.create_process(program)
    engine = DBREngine(kernel)
    recorder = AccessRecorder()
    engine.attach_tool(recorder)
    kernel.run(max_instructions=50_000_000)
    return recorder


@pytest.mark.parametrize("name", benchmark_names())
def test_provably_private_never_touches_a_shared_page(name):
    spec = get_benchmark(name)
    report = classify_sharing(spec.program(threads=THREADS, scale=SCALE))
    private = report.uids(SharingClass.PROVABLY_PRIVATE)
    for seed in (1, 7):
        recorder = _record_run(
            spec.program(threads=THREADS, scale=SCALE), seed)
        shared_pages = {page for page, tids in recorder.page_tids.items()
                        if len(tids) >= 2}
        for uid in private:
            overlap = recorder.uid_pages.get(uid, set()) & shared_pages
            assert not overlap, (
                f"{name} seed {seed}: provably-private uid {uid} "
                f"touched dynamically shared page(s) "
                f"{sorted(hex(p) for p in overlap)}")


@pytest.mark.parametrize("name", benchmark_names())
def test_provably_shared_is_plausible(name):
    """PROVABLY_SHARED is heuristic, but on the bundled workloads most
    instructions classified shared that executed and touched pages
    should find at least one of their pages genuinely multi-thread
    (sanity, not soundness)."""
    spec = get_benchmark(name)
    report = classify_sharing(spec.program(threads=THREADS, scale=SCALE))
    classified = report.uids(SharingClass.PROVABLY_SHARED)
    if not classified:
        pytest.skip("nothing classified shared")
    recorder = _record_run(spec.program(threads=THREADS, scale=SCALE), 1)
    shared_pages = {page for page, tids in recorder.page_tids.items()
                    if len(tids) >= 2}
    touched = [uid for uid in classified if recorder.uid_pages.get(uid)]
    hits = sum(1 for uid in touched
               if recorder.uid_pages[uid] & shared_pages)
    # Not every execution of the scaled-down run exercises the sharing,
    # but the majority of instructions classified shared must.
    assert hits >= len(touched) // 2
