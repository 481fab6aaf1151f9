"""An AVIO-style atomicity checker (shared-data analysis #2).

The paper's introduction motivates Aikido with *both* race detectors and
atomicity checkers [18, 32, 26, 20]; this module implements the
access-interleaving-invariant checker of AVIO (Lu et al., ASPLOS'06,
the paper's citation [26]) as a second detector, which runs under Aikido
through :class:`~repro.analyses.generic_tool.GenericAnalysis`,
demonstrating that AikidoSD accelerates the whole analysis class, not
just FastTrack.

AVIO's insight: for two consecutive accesses by one thread to the same
variable inside an atomic region, exactly four interleavings by a remote
access are unserializable:

====  =======  ======  ===========================================
# 1   read     write   read    (the two local reads see different data)
# 2   write    write   read    (local read sees the remote write)
# 3   read     write   write   (local write is based on a stale read)
# 4   write    read    write   (remote read sees an intermediate value)
====  =======  ======  ===========================================

Atomic regions are lock-delimited critical sections (the analysis only
checks invariants *inside* them; code outside critical sections makes no
atomicity promise to violate).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import costs

#: The four unserializable (local, remote, local) interleavings, as
#: (prev_local_is_write, remote_is_write, current_local_is_write).
UNSERIALIZABLE = frozenset({
    (False, True, False),   # case 1
    (True, True, False),    # case 2
    (False, True, True),    # case 3
    (True, False, True),    # case 4
})


class AtomicityViolation:
    """One broken access-interleaving invariant."""

    __slots__ = ("block", "address", "tid", "remote_tid", "pattern")

    def __init__(self, block: int, address: int, tid: int,
                 remote_tid: int, pattern: Tuple[bool, bool, bool]):
        self.block = block
        self.address = address
        self.tid = tid
        self.remote_tid = remote_tid
        self.pattern = pattern

    @property
    def key(self):
        return (self.block, self.pattern)

    def describe(self) -> str:
        def kind(w):
            return "W" if w else "R"
        p = self.pattern
        return (f"atomicity violation on block {self.block:#x}: "
                f"t{self.tid} {kind(p[0])}..{kind(p[2])} interleaved by "
                f"t{self.remote_tid} {kind(p[1])} inside a critical "
                "section")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AtomicityViolation {self.describe()}>"


class _LocalMark:
    """A thread's previous access to a variable inside its current region."""

    __slots__ = ("region_serial", "is_write", "remote")

    def __init__(self, region_serial: int, is_write: bool):
        self.region_serial = region_serial
        self.is_write = is_write
        #: The most conflicting remote access since this mark, if any:
        #: (tid, is_write). Writes dominate reads.
        self.remote: Optional[Tuple[int, bool]] = None


class AVIOChecker:
    """The access-interleaving-invariant checker."""

    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self.violations: List[AtomicityViolation] = []
        self._reported: Set = set()
        #: tid -> serial of the critical-section region it is inside, or
        #: None outside any region. Serials never repeat.
        self._region: Dict[int, Optional[int]] = {}
        self._next_region = 1
        #: tid -> nesting depth (region survives until the outermost
        #: release).
        self._depth: Dict[int, int] = {}
        # block -> tid -> _LocalMark
        self._marks: Dict[int, Dict[int, _LocalMark]] = {}
        self.checked = 0

    # ------------------------------------------------------------------
    # region management
    # ------------------------------------------------------------------
    def on_acquire(self, tid: int, lock_id: int) -> None:
        depth = self._depth.get(tid, 0)
        if depth == 0:
            self._region[tid] = self._next_region
            self._next_region += 1
        self._depth[tid] = depth + 1

    def on_release(self, tid: int, lock_id: int) -> None:
        depth = self._depth.get(tid, 0)
        if depth <= 1:
            self._depth[tid] = 0
            self._region[tid] = None
        else:
            self._depth[tid] = depth - 1

    def region_of(self, tid: int) -> Optional[int]:
        return self._region.get(tid)

    # ------------------------------------------------------------------
    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        self.checked += 1
        if self.counter is not None:
            self.counter.charge("avio", costs.AVIO_ACCESS)
        block = addr // self.block_size
        marks = self._marks.get(block)
        if marks is None:
            marks = self._marks[block] = {}
        # 1. This access is "remote" for every other thread's mark.
        for other_tid, mark in marks.items():
            if other_tid == tid:
                continue
            if mark.remote is None or (is_write and not mark.remote[1]):
                mark.remote = (tid, is_write)
        # 2. Check the invariant against our own previous access.
        region = self._region.get(tid)
        mine = marks.get(tid)
        if (mine is not None and region is not None
                and mine.region_serial == region
                and mine.remote is not None):
            remote_tid, remote_write = mine.remote
            pattern = (mine.is_write, remote_write, is_write)
            if pattern in UNSERIALIZABLE:
                self._report(block, addr, tid, remote_tid, pattern)
        # 3. Become the new local mark (only meaningful inside a region).
        if region is not None:
            marks[tid] = _LocalMark(region, is_write)
        else:
            marks.pop(tid, None)

    # ------------------------------------------------------------------
    def _report(self, block: int, addr: int, tid: int, remote_tid: int,
                pattern) -> None:
        violation = AtomicityViolation(block, addr, tid, remote_tid,
                                       pattern)
        if violation.key in self._reported \
                or len(self.violations) >= self.max_reports:
            return
        self._reported.add(violation.key)
        self.violations.append(violation)
