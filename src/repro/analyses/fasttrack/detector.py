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
produces, just as the real tool's overhead does. Each entry point sums
its path's costs locally and adds them to the ``fasttrack`` cycle cell
once: one category, the same sum, and no observation point in between,
so every cycle snapshot is bit-identical to charging each cost as it
is incurred.
"""

from __future__ import annotations

from typing import List

from repro import costs
from repro.analyses.fasttrack.epoch import (
    EPOCH_NONE,
    TID_BITS,
    TID_MASK,
    make_epoch,
)
from repro.analyses.fasttrack.metadata import MetadataStore, VarState
from repro.analyses.fasttrack.reports import RaceReport
from repro.analyses.fasttrack.vectorclock import VectorClock

_SAME_EPOCH = costs.CLEAN_CALL + costs.FT_SAME_EPOCH
_SAME_EPOCH_PING = _SAME_EPOCH + costs.FT_METADATA_PING
_FIRST_TOUCH = costs.CLEAN_CALL + costs.FT_METADATA_INIT
_READ_SHARE = costs.FT_VC_BASE + 2 * costs.FT_VC_PER_THREAD


class FastTrackDetector:
    """Happens-before race detection with the epoch optimization.

    ``counter`` is the run's :class:`~repro.machine.cpu.CycleCounter`;
    without one (replay, unit tests) the costs go to a private cell.
    A thread's own clock is read from its epoch
    (``thread.epoch >> TID_BITS``): :class:`ThreadState` refreshes the
    epoch after every change to its vector clock.
    """

    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self._cell = (counter.cell("fasttrack") if counter is not None
                      else [0])
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
        meta = self.meta
        thread = meta.threads.get(tid)
        if thread is None:
            thread = meta.thread(tid)
        epoch = thread.epoch
        clock = epoch >> TID_BITS
        block = addr // meta.block_size
        var = meta.vars.get(block)
        if var is None:
            # First touch: ``MetadataStore.var``, inlined past the miss.
            var = meta.vars[block] = VarState()
            meta.var_inits += 1
            cycles = _FIRST_TOUCH
        else:
            # Same-epoch early exit (epoch mode and read-shared mode):
            # the hot repeat-read needs one metadata peek and no writes.
            read_vc = var.read_vc
            last = var.write_epoch or var.read_epoch
            ping = last and last & TID_MASK != tid
            if (read_vc.get(tid) == clock if read_vc is not None
                    else var.read_epoch == epoch):
                self.same_epoch_hits += 1
                if ping:
                    self.metadata_pings += 1
                    self._cell[0] += _SAME_EPOCH_PING
                else:
                    self._cell[0] += _SAME_EPOCH
                return
            cycles = costs.CLEAN_CALL
            if ping:
                # Shadow-metadata cache-line transfer: the last accessor
                # was another thread (see FT_METADATA_PING).
                self.metadata_pings += 1
                cycles += costs.FT_METADATA_PING
            # Write-read race check: ``epoch_leq_vc``, inlined.
            vc = thread.vc
            write_epoch = var.write_epoch
            if write_epoch and (write_epoch >> TID_BITS
                                > vc.get(write_epoch & TID_MASK)):
                self._report("write-read", block, addr, write_epoch,
                             thread, instr_uid)
            if read_vc is not None:
                # Read shared: O(1) slot update.
                read_vc.set(tid, clock)
                self._cell[0] += cycles + costs.FT_READ_SHARED_BASE
                return
            prev = var.read_epoch
            if prev and prev >> TID_BITS > vc.get(prev & TID_MASK):
                # Share transition: inflate to a read vector clock.
                self.read_shared_transitions += 1
                var.read_vc = VectorClock({prev & TID_MASK:
                                           prev >> TID_BITS,
                                           tid: clock})
                var.read_epoch = EPOCH_NONE
                self._cell[0] += cycles + _READ_SHARE
                return
        # Exclusive: the previous read (if any) happens-before this one.
        var.read_epoch = epoch
        self._cell[0] += cycles + costs.FT_EPOCH_UPDATE

    def on_write(self, tid: int, addr: int, instr_uid: int = -1) -> None:
        self.writes += 1
        meta = self.meta
        thread = meta.threads.get(tid)
        if thread is None:
            thread = meta.thread(tid)
        epoch = thread.epoch
        block = addr // meta.block_size
        var = meta.vars.get(block)
        if var is None:
            var = meta.vars[block] = VarState()
            meta.var_inits += 1
            var.write_epoch = epoch
            self._cell[0] += _FIRST_TOUCH + costs.FT_EPOCH_UPDATE
            return
        write_epoch = var.write_epoch
        if write_epoch == epoch:
            # Same-epoch early exit: a repeat write means the last
            # accessor was this thread at this epoch, so the metadata
            # ping can never fire.
            self.same_epoch_hits += 1
            self._cell[0] += _SAME_EPOCH
            return
        cycles = costs.CLEAN_CALL
        last = write_epoch or var.read_epoch
        if last and last & TID_MASK != tid:
            self.metadata_pings += 1
            cycles += costs.FT_METADATA_PING
        vc = thread.vc
        if write_epoch and (write_epoch >> TID_BITS
                            > vc.get(write_epoch & TID_MASK)):
            self._report("write-write", block, addr, write_epoch,
                         thread, instr_uid)
        read_vc = var.read_vc
        if read_vc is None:
            prev = var.read_epoch
            if prev and prev >> TID_BITS > vc.get(prev & TID_MASK):
                self._report("read-write", block, addr, prev,
                             thread, instr_uid)
            cycles += costs.FT_EPOCH_UPDATE
        else:
            # Write after read-shared: full vector comparison, then the
            # read state deflates back to epoch mode.
            if not read_vc.leq(vc):
                racing = self._max_entry_epoch(read_vc)
                self._report("read-write", block, addr, racing,
                             thread, instr_uid)
            cycles += costs.FT_VC_BASE + costs.FT_VC_PER_THREAD * len(read_vc)
            var.read_vc = None
            var.read_epoch = EPOCH_NONE
        var.write_epoch = epoch
        self._cell[0] += cycles

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self.meta.thread(tid)
        lock_vc = self.meta.lock(lock_id)
        thread.vc.join(lock_vc)
        thread.refresh_epoch()
        self._cell[0] += (costs.FT_SYNC_BASE
                          + costs.FT_VC_PER_THREAD * len(lock_vc))

    def on_release(self, tid: int, lock_id: int) -> None:
        self.sync_ops += 1
        thread = self.meta.thread(tid)
        self.meta.locks[lock_id] = thread.vc.copy()
        thread.increment()
        self._cell[0] += (costs.FT_SYNC_BASE
                          + costs.FT_VC_PER_THREAD * len(thread.vc))

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self.meta.thread(parent_tid)
        child = self.meta.thread(child_tid)
        child.vc.join(parent.vc)
        child.refresh_epoch()
        parent.increment()
        self._cell[0] += (costs.FT_SYNC_BASE
                          + costs.FT_VC_PER_THREAD * len(parent.vc))

    def on_join(self, parent_tid: int, child_tid: int) -> None:
        self.sync_ops += 1
        parent = self.meta.thread(parent_tid)
        child = self.meta.thread(child_tid)
        parent.vc.join(child.vc)
        parent.refresh_epoch()
        self._cell[0] += (costs.FT_SYNC_BASE
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
        self._cell[0] += (costs.FT_SYNC_BASE
                          + costs.FT_VC_PER_THREAD * len(merged)
                          * max(1, len(participants)))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
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
        best = EPOCH_NONE
        for tid, clock in vc.items():
            if clock > 0:
                best = make_epoch(tid, clock)
        return best
