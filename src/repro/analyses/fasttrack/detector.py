"""The FastTrack algorithm proper.

Implements the read/write/synchronization rules of Flanagan & Freund
(PLDI'09) over 8-byte variable blocks, with the epoch fast paths:

* same-epoch reads/writes are O(1) one-word compares;
* ordered (exclusive) accesses update a single epoch;
* only genuinely concurrent reads inflate to a read vector clock.

Races are recorded (deduplicated per variable × kind) and the analysis
continues, updating metadata as if the access were ordered — FastTrack's
standard behavior to avoid cascading reports.

Every operation charges the cycle cost of its path, so the harness's
slowdown figures reflect the *mix* of fast and slow paths each workload
produces, just as the real tool's overhead does.
"""

from __future__ import annotations

from typing import List, Optional

from repro import costs
from repro.analyses.fasttrack.epoch import (
    EPOCH_NONE,
    epoch_clock,
    epoch_leq_vc,
    epoch_tid,
)
from repro.analyses.fasttrack.metadata import MetadataStore
from repro.analyses.fasttrack.reports import RaceReport
from repro.analyses.fasttrack.vectorclock import VectorClock


class FastTrackDetector:
    """Happens-before race detection with the epoch optimization."""

    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.meta = MetadataStore(block_size)
        self.max_reports = max_reports
        self.races: List[RaceReport] = []
        self._reported_keys = set()
        # Path statistics (useful for calibrating the cost model).
        self.reads = 0
        self.writes = 0
        self.same_epoch_hits = 0
        self.read_shared_transitions = 0
        self.sync_ops = 0
        self.metadata_pings = 0

    # ------------------------------------------------------------------
    # memory accesses
    # ------------------------------------------------------------------
    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        if is_write:
            self.on_write(tid, addr, instr_uid)
        else:
            self.on_read(tid, addr, instr_uid)

    def on_read(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.reads += 1
        thread = self.meta.thread(tid)
        block = addr // self.meta.block_size
        # Same-epoch early exit (epoch mode and read-shared mode): the
        # hot repeat-read needs one metadata peek and no writes, so the
        # path's charges are folded into a single counter update — same
        # category, same sum, and no observation point in between, so
        # every cycle snapshot is bit-identical to the long-hand path.
        var = self.meta.vars.get(block)
        if var is not None:
            read_vc = var.read_vc
            if (read_vc.get(tid) == thread.vc.get(tid)
                    if read_vc is not None
                    else var.read_epoch == thread.epoch):
                self.same_epoch_hits += 1
                charge = costs.CLEAN_CALL + costs.FT_SAME_EPOCH
                last = var.write_epoch or var.read_epoch
                if last and last & 0xFF != tid:
                    self.metadata_pings += 1
                    charge += costs.FT_METADATA_PING
                self._charge(charge)
                return
        self._charge(costs.CLEAN_CALL)
        if var is None:
            var = self._var(block)
        self._charge_ping(var, tid)
        # Write-read race check.
        if not epoch_leq_vc(var.write_epoch, thread.vc):
            self._report("write-read", block, addr, var.write_epoch,
                         thread, instr_uid)
        if var.read_vc is not None:
            # Read shared: O(1) slot update.
            var.read_vc.set(tid, thread.vc.get(tid))
            self._charge(costs.FT_READ_SHARED_BASE)
            return
        if epoch_leq_vc(var.read_epoch, thread.vc):
            # Exclusive: the previous read happens-before this one.
            var.read_epoch = thread.epoch
            self._charge(costs.FT_EPOCH_UPDATE)
            return
        # Share transition: inflate to a read vector clock.
        self.read_shared_transitions += 1
        prev = var.read_epoch
        var.read_vc = VectorClock({epoch_tid(prev): epoch_clock(prev),
                                   tid: thread.vc.get(tid)})
        var.read_epoch = EPOCH_NONE
        self._charge(costs.FT_VC_BASE + 2 * costs.FT_VC_PER_THREAD)

    def on_write(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.writes += 1
        thread = self.meta.thread(tid)
        block = addr // self.meta.block_size
        # Same-epoch early exit: a repeat write means the last accessor
        # was this thread at this epoch, so the metadata ping can never
        # fire — one combined charge covers the whole path.
        var = self.meta.vars.get(block)
        if var is not None and var.write_epoch == thread.epoch:
            self.same_epoch_hits += 1
            self._charge(costs.CLEAN_CALL + costs.FT_SAME_EPOCH)
            return
        self._charge(costs.CLEAN_CALL)
        if var is None:
            var = self._var(block)
        self._charge_ping(var, tid)
        if not epoch_leq_vc(var.write_epoch, thread.vc):
            self._report("write-write", block, addr, var.write_epoch,
                         thread, instr_uid)
        if var.read_vc is None:
            if not epoch_leq_vc(var.read_epoch, thread.vc):
                self._report("read-write", block, addr, var.read_epoch,
                             thread, instr_uid)
            self._charge(costs.FT_EPOCH_UPDATE)
        else:
            # Write after read-shared: full vector comparison, then the
            # read state deflates back to epoch mode.
            if not var.read_vc.leq(thread.vc):
                racing = self._max_entry_epoch(var.read_vc)
                self._report("read-write", block, addr, racing,
                             thread, instr_uid)
            self._charge(costs.FT_VC_BASE
                         + costs.FT_VC_PER_THREAD * len(var.read_vc))
            var.read_vc = None
            var.read_epoch = EPOCH_NONE
        var.write_epoch = thread.epoch

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self.meta.thread(tid)
        lock_vc = self.meta.lock(lock_id)
        thread.vc.join(lock_vc)
        thread.refresh_epoch()
        self._charge(costs.FT_SYNC_BASE
                     + costs.FT_VC_PER_THREAD * len(lock_vc))

    def on_release(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self.meta.thread(tid)
        self.meta.locks[lock_id] = thread.vc.copy()
        thread.increment()
        self._charge(costs.FT_SYNC_BASE
                     + costs.FT_VC_PER_THREAD * len(thread.vc))

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self.meta.thread(parent_tid)
        child = self.meta.thread(child_tid)
        child.vc.join(parent.vc)
        child.refresh_epoch()
        parent.increment()
        self._charge(costs.FT_SYNC_BASE
                     + costs.FT_VC_PER_THREAD * len(parent.vc))

    def on_join(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self.meta.thread(parent_tid)
        child = self.meta.thread(child_tid)
        parent.vc.join(child.vc)
        parent.refresh_epoch()
        self._charge(costs.FT_SYNC_BASE
                     + costs.FT_VC_PER_THREAD * len(child.vc))

    def on_barrier(self, tids, barrier_id: int = 0) -> None:
        """All-to-all ordering across the barrier's participants.

        ``barrier_id`` identifies which barrier fired; the vector-clock
        math is the same for all of them, but every adapter passes it
        so recorders can round-trip the id (see ``TraceRecorder``).
        """
        self.sync_ops += 1
        merged = VectorClock()
        participants = [self.meta.thread(t) for t in tids]
        for thread in participants:
            merged.join(thread.vc)
        for thread in participants:
            thread.vc = merged.copy()
            thread.increment()
        self._charge(costs.FT_SYNC_BASE
                     + costs.FT_VC_PER_THREAD * len(merged)
                     * max(1, len(participants)))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _charge_ping(self, var, tid: int) -> None:
        """Shadow-metadata cache-line transfer when the last accessor of
        this variable was a different thread (see FT_METADATA_PING)."""
        last = var.write_epoch or var.read_epoch
        if last and last & 0xFF != tid:
            self.metadata_pings += 1
            self._charge(costs.FT_METADATA_PING)

    def _var(self, block: int):
        var = self.meta.vars.get(block)
        if var is None:
            var = self.meta.var(block)
            self._charge(costs.FT_METADATA_INIT)
        return var

    def _report(self, kind: str, block: int, addr: int, prior_epoch: int,
                thread, instr_uid: int) -> None:
        if len(self.races) >= self.max_reports:
            return
        report = RaceReport(kind, block, addr, prior_epoch, thread.tid,
                            thread.vc.get(thread.tid), instr_uid)
        if report.key in self._reported_keys:
            return
        self._reported_keys.add(report.key)
        self.races.append(report)

    @staticmethod
    def _max_entry_epoch(vc: VectorClock) -> int:
        from repro.analyses.fasttrack.epoch import make_epoch
        best = EPOCH_NONE
        for tid, clock in vc.items():
            if clock > 0:
                best = make_epoch(tid, clock)
        return best

    def _charge(self, cycles: int) -> None:
        if self.counter is not None:
            self.counter.charge("fasttrack", cycles)
