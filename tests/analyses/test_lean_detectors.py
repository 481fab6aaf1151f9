"""The lean DJIT+, Eraser and MemTag against their former selves.

DJIT+ keeps a block's read and write clocks in one flat list, and
Eraser and MemTag store a block only one thread has touched as its
owner's tid. The classes below are the detectors as they were before
that change, kept verbatim as reference models: on any trace the lean
detectors must make the same reports (down to their ``describe()``
strings), count the same profile counters and charge the same cycles.
The last test checks the one-pass multi-detector :func:`replay` against
one replay per detector on every bundled workload's trace.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import costs
from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector, LockSetReport, VarMode
from repro.analyses.fasttrack.epoch import make_epoch
from repro.analyses.fasttrack.metadata import ThreadState
from repro.analyses.fasttrack.reports import RaceReport
from repro.analyses.fasttrack.vectorclock import VectorClock
from repro.analyses.memtag import MemTagDetector, MemTagReport, lock_tag
from repro.analyses.record import replay
from repro.eventlog.log import EventLogReader
from repro.eventlog.replay import ANALYSES, detector_verdict, record_run
from repro.machine.cpu import CycleCounter
from repro.workloads.parsec import benchmark_names, build_benchmark


# ----------------------------------------------------------------------
# Reference models: the detectors before the lean block state.
# ----------------------------------------------------------------------
class _DjitVar:
    __slots__ = ("read_vc", "write_vc")

    def __init__(self):
        self.read_vc = VectorClock()
        self.write_vc = VectorClock()


class ReferenceDjit:
    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self.threads: Dict[int, ThreadState] = {}
        self.vars: Dict[int, _DjitVar] = {}
        self.locks: Dict[int, VectorClock] = {}
        self.races: List[RaceReport] = []
        self._reported: Set[Tuple[int, str]] = set()
        self.reads = 0
        self.writes = 0
        self.sync_ops = 0

    def _thread(self, tid: int) -> ThreadState:
        state = self.threads.get(tid)
        if state is None:
            state = self.threads[tid] = ThreadState(tid)
        return state

    def _var(self, block: int) -> _DjitVar:
        var = self.vars.get(block)
        if var is None:
            var = self.vars[block] = _DjitVar()
        return var

    def _charge_vc_op(self, width: int) -> None:
        if self.counter is not None:
            self.counter.charge(
                "djit", costs.CLEAN_CALL + costs.FT_VC_BASE
                + costs.FT_VC_PER_THREAD * max(1, width))

    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        if is_write:
            self.on_write(tid, addr, instr_uid)
        else:
            self.on_read(tid, addr, instr_uid)

    def on_read(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.reads += 1
        thread = self._thread(tid)
        var = self._var(addr // self.block_size)
        self._charge_vc_op(len(var.write_vc) + len(thread.vc))
        if not var.write_vc.leq(thread.vc):
            self._report("write-read", addr, var.write_vc, thread,
                         instr_uid)
        var.read_vc.set(tid, thread.vc.get(tid))

    def on_write(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.writes += 1
        thread = self._thread(tid)
        var = self._var(addr // self.block_size)
        self._charge_vc_op(len(var.write_vc) + len(var.read_vc)
                           + len(thread.vc))
        if not var.write_vc.leq(thread.vc):
            self._report("write-write", addr, var.write_vc, thread,
                         instr_uid)
        if not var.read_vc.leq(thread.vc):
            self._report("read-write", addr, var.read_vc, thread,
                         instr_uid)
        var.write_vc.set(tid, thread.vc.get(tid))

    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self._thread(tid)
        thread.vc.join(self.locks.get(lock_id, VectorClock()))
        thread.refresh_epoch()
        self._charge_vc_op(len(thread.vc))

    def on_release(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self._thread(tid)
        self.locks[lock_id] = thread.vc.copy()
        thread.increment()
        self._charge_vc_op(len(thread.vc))

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self._thread(parent_tid)
        child = self._thread(child_tid)
        child.vc.join(parent.vc)
        child.refresh_epoch()
        parent.increment()
        self._charge_vc_op(len(parent.vc))

    def on_join(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self._thread(parent_tid)
        child = self._thread(child_tid)
        parent.vc.join(child.vc)
        parent.refresh_epoch()
        self._charge_vc_op(len(child.vc))

    def on_barrier(self, tids, barrier_id: int = 0) -> None:
        self.sync_ops += 1
        merged = VectorClock()
        members = [self._thread(t) for t in tids]
        for thread in members:
            merged.join(thread.vc)
        for thread in members:
            thread.vc = merged.copy()
            thread.increment()
        self._charge_vc_op(len(merged) * max(1, len(members)))

    def _report(self, kind: str, addr: int, prior_vc: VectorClock,
                thread, instr_uid: int) -> None:
        block = addr // self.block_size
        if (block, kind) in self._reported \
                or len(self.races) >= self.max_reports:
            return
        self._reported.add((block, kind))
        prior = 0
        for tid, clock in prior_vc.items():
            if clock > thread.vc.get(tid):
                prior = make_epoch(tid, clock)
                break
        self.races.append(RaceReport(kind, block, addr, prior,
                                     thread.tid,
                                     thread.vc.get(thread.tid), instr_uid))


class _VarState:
    __slots__ = ("mode", "owner", "candidates")

    def __init__(self):
        self.mode = VarMode.VIRGIN
        self.owner = -1
        self.candidates: FrozenSet[int] = frozenset()


class ReferenceEraser:
    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self._held: Dict[int, Set[int]] = {}
        self._vars: Dict[int, _VarState] = {}
        self.reports: List[LockSetReport] = []
        self._reported: Set[int] = set()
        self.accesses = 0

    def locks_held(self, tid: int) -> Set[int]:
        held = self._held.get(tid)
        if held is None:
            held = self._held[tid] = set()
        return held

    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.locks_held(tid).add(lock_id)

    def on_release(self, tid: int, lock_id: int) -> None:
        self.locks_held(tid).discard(lock_id)

    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        self.accesses += 1
        if self.counter is not None:
            self.counter.charge("eraser", costs.ERASER_ACCESS)
        block = addr // self.block_size
        var = self._vars.get(block)
        if var is None:
            var = self._vars[block] = _VarState()
        mode = var.mode
        if mode is VarMode.VIRGIN:
            var.mode = VarMode.EXCLUSIVE
            var.owner = tid
            return
        if mode is VarMode.EXCLUSIVE:
            if tid == var.owner:
                return
            var.candidates = frozenset(self.locks_held(tid))
            var.mode = (VarMode.SHARED_MODIFIED if is_write
                        else VarMode.SHARED)
            if var.mode is VarMode.SHARED_MODIFIED and not var.candidates:
                self._report(block, addr, tid, is_write)
            return
        var.candidates = var.candidates & frozenset(self.locks_held(tid))
        if is_write and mode is VarMode.SHARED:
            var.mode = VarMode.SHARED_MODIFIED
        if var.mode is VarMode.SHARED_MODIFIED and not var.candidates:
            self._report(block, addr, tid, is_write)

    def _report(self, block: int, addr: int, tid: int,
                is_write: bool) -> None:
        if block in self._reported or len(self.reports) >= self.max_reports:
            return
        self._reported.add(block)
        self.reports.append(LockSetReport(block, addr, tid, is_write))


class _BlockState:
    __slots__ = ("mode", "owner", "tag_mask")

    def __init__(self):
        self.mode = VarMode.VIRGIN
        self.owner = -1
        self.tag_mask = 0


class ReferenceMemTag:
    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self._held_masks: Dict[int, int] = {}
        self._held_counts: Dict[int, Dict[int, int]] = {}
        self._blocks: Dict[int, _BlockState] = {}
        self.reports: List[MemTagReport] = []
        self._reported: Set[int] = set()
        self.accesses = 0
        self.tag_collisions = 0

    def on_acquire(self, tid: int, lock_id: int) -> None:
        tag = lock_tag(lock_id)
        counts = self._held_counts.setdefault(tid, {})
        before = counts.get(tag, 0)
        counts[tag] = before + 1
        if before:
            self.tag_collisions += 1
        self._held_masks[tid] = self._held_masks.get(tid, 0) | (1 << tag)

    def on_release(self, tid: int, lock_id: int) -> None:
        tag = lock_tag(lock_id)
        counts = self._held_counts.setdefault(tid, {})
        remaining = counts.get(tag, 0) - 1
        if remaining > 0:
            counts[tag] = remaining
        else:
            counts.pop(tag, None)
            self._held_masks[tid] = (
                self._held_masks.get(tid, 0) & ~(1 << tag))

    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        self.accesses += 1
        if self.counter is not None:
            self.counter.charge("memtag", costs.MEMTAG_ACCESS)
        block = addr // self.block_size
        state = self._blocks.get(block)
        if state is None:
            state = self._blocks[block] = _BlockState()
        mode = state.mode
        if mode is VarMode.VIRGIN:
            state.mode = VarMode.EXCLUSIVE
            state.owner = tid
            return
        if mode is VarMode.EXCLUSIVE:
            if tid == state.owner:
                return
            state.tag_mask = self._held_masks.get(tid, 0)
            state.mode = (VarMode.SHARED_MODIFIED if is_write
                          else VarMode.SHARED)
            if state.mode is VarMode.SHARED_MODIFIED and not state.tag_mask:
                self._report(block, addr, tid, is_write)
            return
        state.tag_mask &= self._held_masks.get(tid, 0)
        if is_write and mode is VarMode.SHARED:
            state.mode = VarMode.SHARED_MODIFIED
        if state.mode is VarMode.SHARED_MODIFIED and not state.tag_mask:
            self._report(block, addr, tid, is_write)

    def _report(self, block: int, addr: int, tid: int,
                is_write: bool) -> None:
        if block in self._reported or len(self.reports) >= self.max_reports:
            return
        self._reported.add(block)
        self.reports.append(MemTagReport(block, addr, tid, is_write))


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
THREADS = st.integers(1, 5)
LOCKS = st.integers(0, 20)  # 15 tags: lock ids 0 and 15 share one

entry_strategy = st.one_of(
    st.tuples(st.just("access"), THREADS, st.integers(0, 40),
              st.booleans(), st.integers(-1, 9)),
    st.tuples(st.just("acquire"), THREADS, LOCKS),
    st.tuples(st.just("release"), THREADS, LOCKS),
    st.tuples(st.just("fork"), THREADS, THREADS),
    st.tuples(st.just("join"), THREADS, THREADS),
    st.tuples(st.just("barrier"), st.integers(0, 3),
              st.lists(THREADS, min_size=1, max_size=4).map(tuple)),
)
trace_strategy = st.lists(entry_strategy, max_size=80)

#: Three threads read block 0 in turn, then a fourth writes it with no
#: ordering: the read-write report must name the first reader (t3),
#: though t2's read-clock entry comes first in tid order.
THREE_WAY_RACE = [
    ("fork", 1, 3), ("fork", 1, 2), ("fork", 1, 4),
    ("access", 3, 0, False, 1), ("access", 2, 0, False, 2),
    ("access", 4, 0, False, 3), ("access", 1, 0, True, 4),
    ("access", 2, 0, True, 5), ("barrier", 0, (1, 2, 3, 4)),
    ("access", 3, 4, True, 6),
]

PAIRS = [(DjitDetector, ReferenceDjit, "djit"),
         (EraserDetector, ReferenceEraser, "eraser"),
         (MemTagDetector, ReferenceMemTag, "memtag")]


def observed(name, detector, counter):
    verdict = detector_verdict(name, detector)
    reports = getattr(detector, "races", None)
    if reports is None:
        reports = detector.reports
    return (verdict, [r.describe() for r in reports],
            counter.snapshot())


@settings(max_examples=300, deadline=None)
@given(trace_strategy)
@example(THREE_WAY_RACE)
def test_lean_detectors_match_reference_models(trace):
    for lean_cls, reference_cls, name in PAIRS:
        lean_counter, reference_counter = CycleCounter(), CycleCounter()
        lean = lean_cls(lean_counter)
        reference = reference_cls(reference_counter)
        replay(trace, lean)
        replay(trace, reference)
        assert observed(name, lean, lean_counter) \
            == observed(name, reference, reference_counter), name


def test_djit_report_names_first_prior_in_insertion_order():
    lean = DjitDetector()
    replay(THREE_WAY_RACE, lean)
    read_write = [r for r in lean.races if r.kind == "read-write"]
    assert [r.prior_epoch for r in read_write] == [make_epoch(3, 1)]
    reference = ReferenceDjit()
    replay(THREE_WAY_RACE, reference)
    assert [r.describe() for r in lean.races] \
        == [r.describe() for r in reference.races]


@pytest.mark.parametrize("workload", benchmark_names())
def test_one_pass_equals_one_replay_per_detector(tmp_path, workload):
    path = str(tmp_path / "trace.aiklog")
    record_run(build_benchmark(workload, threads=3, scale=0.05), path,
               seed=5, quantum=120)
    trace = EventLogReader(path).read_all()
    names = sorted(ANALYSES)
    together = [ANALYSES[name]() for name in names]
    replay(trace, *together)
    for name, detector in zip(names, together):
        alone = ANALYSES[name]()
        replay(trace, alone)
        assert detector_verdict(name, detector) \
            == detector_verdict(name, alone), (workload, name)
