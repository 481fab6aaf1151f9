"""DJIT+ : precise vector-clock race detection *without* epochs.

FastTrack's contribution (and the reason the paper picked it, §4.1) is
that most of DJIT+'s O(threads) vector-clock operations collapse to O(1)
epoch compares. This module implements plain DJIT+ (Pozniansky & Schuster
style: a full read VC and write VC per variable) so the repository can
measure the epoch optimization itself:

* correctness: DJIT+ and FastTrack report races on exactly the same
  variables (property-tested);
* cost: per-access work is a vector operation whose cycle cost scales
  with thread count, giving the bench
  ``bench_ablations.py::test_djit_vs_fasttrack`` its signal.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro import costs
from repro.analyses.fasttrack.epoch import make_epoch
from repro.analyses.fasttrack.reports import RaceReport


def _join(clock: Dict[int, int], other: Dict[int, int]) -> None:
    """Pointwise maximum, in place: ``clock ⊔= other``."""
    for tid, value in other.items():
        if value > clock.get(tid, 0):
            clock[tid] = value


class DjitDetector:
    """Full-vector-clock happens-before race detection (no fast paths).

    Vector clocks are plain ``tid -> clock`` dicts (absent means 0).
    A block's read and write clocks share one flat list,
    ``[n, w_tid, w_clock, ... (n write pairs), r_tid, r_clock, ...]``,
    built on the block's first access. Pairs keep insertion order: a
    report names the first prior access, in that order, that is not
    ordered before the current one.
    """

    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self.clocks: Dict[int, Dict[int, int]] = {}
        self.vars: Dict[int, List[int]] = {}
        self.locks: Dict[int, Dict[int, int]] = {}
        self.races: List[RaceReport] = []
        self._reported: Set[Tuple[int, str]] = set()
        self.reads = 0
        self.writes = 0
        self.sync_ops = 0

    # ------------------------------------------------------------------
    def _clock(self, tid: int) -> Dict[int, int]:
        clock = self.clocks.get(tid)
        if clock is None:
            clock = self.clocks[tid] = {tid: 1}
        return clock

    def _charge_vc_op(self, width: int) -> None:
        if self.counter is not None:
            self.counter.charge(
                "djit", costs.CLEAN_CALL + costs.FT_VC_BASE
                + costs.FT_VC_PER_THREAD * max(1, width))

    # ------------------------------------------------------------------
    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        if is_write:
            self.on_write(tid, addr, instr_uid)
        else:
            self.on_read(tid, addr, instr_uid)

    def on_read(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.reads += 1
        clock = self.clocks.get(tid) or self._clock(tid)
        now = clock[tid]
        block = addr // self.block_size
        var = self.vars.get(block)
        if var is None:
            self.vars[block] = [0, tid, now]
            if self.counter is not None:
                self._charge_vc_op(len(clock))
            return
        reads = 2 * var[0] + 1
        if self.counter is not None:
            self._charge_vc_op(var[0] + len(clock))
        # Race iff some write is not ordered before us.
        for i in range(1, reads, 2):
            if var[i + 1] > clock.get(var[i], 0):
                self._report("write-read", addr, var[i], var[i + 1], tid,
                             now, instr_uid)
                break
        for i in range(reads, len(var), 2):
            if var[i] == tid:
                var[i + 1] = now
                return
        var += (tid, now)

    def on_write(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.writes += 1
        clock = self.clocks.get(tid) or self._clock(tid)
        now = clock[tid]
        block = addr // self.block_size
        var = self.vars.get(block)
        if var is None:
            self.vars[block] = [1, tid, now]
            if self.counter is not None:
                self._charge_vc_op(len(clock))
            return
        reads = 2 * var[0] + 1
        if self.counter is not None:
            self._charge_vc_op(var[0] + (len(var) - reads) // 2
                               + len(clock))
        for i in range(1, reads, 2):
            if var[i + 1] > clock.get(var[i], 0):
                self._report("write-write", addr, var[i], var[i + 1], tid,
                             now, instr_uid)
                break
        for i in range(reads, len(var), 2):
            if var[i + 1] > clock.get(var[i], 0):
                self._report("read-write", addr, var[i], var[i + 1], tid,
                             now, instr_uid)
                break
        for i in range(1, reads, 2):
            if var[i] == tid:
                var[i + 1] = now
                return
        var[reads:reads] = (tid, now)
        var[0] += 1

    # ------------------------------------------------------------------
    # synchronization (identical semantics to FastTrack's)
    # ------------------------------------------------------------------
    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        clock = self._clock(tid)
        _join(clock, self.locks.get(lock_id, {}))
        self._charge_vc_op(len(clock))

    def on_release(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        clock = self._clock(tid)
        self.locks[lock_id] = dict(clock)
        clock[tid] += 1
        self._charge_vc_op(len(clock))

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self._clock(parent_tid)
        _join(self._clock(child_tid), parent)
        parent[parent_tid] += 1
        self._charge_vc_op(len(parent))

    def on_join(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self._clock(parent_tid)
        child = self._clock(child_tid)
        _join(parent, child)
        self._charge_vc_op(len(child))

    def on_barrier(self, tids, barrier_id: int = 0) -> None:
        self.sync_ops += 1
        merged: Dict[int, int] = {}
        for tid in tids:
            _join(merged, self._clock(tid))
        for tid in tids:
            clock = self.clocks[tid] = dict(merged)
            clock[tid] += 1
        self._charge_vc_op(len(merged) * max(1, len(tids)))

    # ------------------------------------------------------------------
    def _report(self, kind: str, addr: int, prior_tid: int,
                prior_clock: int, tid: int, now: int,
                instr_uid: int) -> None:
        block = addr // self.block_size
        if (block, kind) in self._reported \
                or len(self.races) >= self.max_reports:
            return
        self._reported.add((block, kind))
        self.races.append(RaceReport(kind, block, addr,
                                     make_epoch(prior_tid, prior_clock),
                                     tid, now, instr_uid))
