"""An Eraser-style LockSet race detector (related work, paper §7.3).

Eraser (Savage et al., TOCS'97) checks the *locking discipline*: every
shared variable must be consistently protected by at least one lock. It
is cheaper than happens-before detection but **can report false
positives** — e.g. fork/join- or barrier-ordered accesses with no common
lock are flagged even though no race is possible. The paper cites exactly
this trade-off when motivating FastTrack-style precision; the ablation
benchmark ``bench_ablations.py::test_eraser_vs_fasttrack`` measures both
sides (cost and false positives) on the same workloads.

State machine per variable (classic Eraser):

    VIRGIN -> EXCLUSIVE (first thread) -> SHARED (read by another thread)
           -> SHARED_MODIFIED (written by another thread)

Lockset refinement starts at the first second-thread access; an empty
candidate set in SHARED_MODIFIED is a report.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Set

from repro import costs


class VarMode(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


class LockSetReport:
    """A locking-discipline violation."""

    __slots__ = ("block", "address", "tid", "is_write")

    def __init__(self, block: int, address: int, tid: int, is_write: bool):
        self.block = block
        self.address = address
        self.tid = tid
        self.is_write = is_write

    @property
    def key(self):
        return self.block

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        return (f"lockset violation on block {self.block:#x} "
                f"({kind} by t{self.tid}, candidate set empty)")


class _VarState:
    __slots__ = ("mode", "owner", "candidates")

    def __init__(self):
        self.mode = VarMode.VIRGIN
        self.owner = -1
        self.candidates: FrozenSet[int] = frozenset()


class EraserDetector:
    """The LockSet algorithm over 8-byte blocks."""

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

    # ------------------------------------------------------------------
    def locks_held(self, tid: int) -> Set[int]:
        held = self._held.get(tid)
        if held is None:
            held = self._held[tid] = set()
        return held

    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.locks_held(tid).add(lock_id)

    def on_release(self, tid: int, lock_id: int) -> None:
        self.locks_held(tid).discard(lock_id)

    # ------------------------------------------------------------------
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
            # Second thread: start lockset refinement.
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

    # ------------------------------------------------------------------
    def _report(self, block: int, addr: int, tid: int,
                is_write: bool) -> None:
        if block in self._reported or len(self.reports) >= self.max_reports:
            return
        self._reported.add(block)
        self.reports.append(LockSetReport(block, addr, tid, is_write))
