"""A memory-tagging-style lock checker (HMTRace-inspired, PAPERS.md).

HMTRace piggybacks race detection on ARM MTE: each lock hashes to a
small hardware tag, memory blocks remember which tags guarded them, and
a tag mismatch on access flags a locking-discipline violation. This
module reproduces that scheme in software as the *fourth* consumer of a
recorded event log — the proof that the replay fan-out generalizes
beyond vector clocks.

The state machine per block is exactly Eraser's
(VIRGIN → EXCLUSIVE → SHARED / SHARED_MODIFIED), with an EXCLUSIVE
block stored as its owner's tid alone, but the candidate set is a
**tag bitmask**, not a lockset: every lock id hashes into one of
``(1 << TAG_BITS) - 1`` nonzero tags, and refinement is a mask AND.
Distinct locks can collide into one tag, and a collision makes the
intersection *larger* than the true lockset's — so tag checking can
only *suppress* reports Eraser would make, never add new ones. That
containment (``memtag report blocks ⊆ eraser report blocks``) is the
cross-analysis agreement invariant the replay pipeline checks.
"""

from __future__ import annotations

from typing import Dict, List, Set, Union

from repro import costs
from repro.analyses.eraser import VarMode

#: Tag width in bits (ARM MTE uses 4). Tag 0 is reserved for "untagged"
#: so lock ids map onto the 15 nonzero tags.
TAG_BITS = 4
TAG_COUNT = (1 << TAG_BITS) - 1


def lock_tag(lock_id: int) -> int:
    """Hash a lock id onto a nonzero tag (1..TAG_COUNT)."""
    return (lock_id % TAG_COUNT) + 1


class MemTagReport:
    """A tag-lock violation (no common tag guards a shared block)."""

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
        return (f"tag-lock violation on block {self.block:#x} "
                f"({kind} by t{self.tid}, tag mask empty)")


class _BlockState:
    """A block a second thread has touched (SHARED or SHARED_MODIFIED)."""

    __slots__ = ("mode", "tag_mask")

    def __init__(self, mode: VarMode, tag_mask: int):
        self.mode = mode
        self.tag_mask = tag_mask


class MemTagDetector:
    """Tag-mask locking-discipline checking over 8-byte blocks.

    Implements the standard detector protocol (``on_access`` plus
    ``on_acquire``/``on_release``); like Eraser it has no fork/join or
    barrier notion — tag checking inherits LockSet's imprecision, just
    cheaper.
    """

    def __init__(self, counter=None, block_size: int = 8,
                 max_reports: int = 10_000):
        self.counter = counter
        self.block_size = block_size
        self.max_reports = max_reports
        self._held_masks: Dict[int, int] = {}
        self._held_counts: Dict[int, Dict[int, int]] = {}
        #: block -> owner tid while EXCLUSIVE, else its _BlockState.
        self._blocks: Dict[int, Union[int, _BlockState]] = {}
        self.reports: List[MemTagReport] = []
        self._reported: Set[int] = set()
        self.accesses = 0
        self.tag_collisions = 0

    # ------------------------------------------------------------------
    def on_acquire(self, tid: int, lock_id: int) -> None:
        tag = lock_tag(lock_id)
        counts = self._held_counts.setdefault(tid, {})
        before = counts.get(tag, 0)
        counts[tag] = before + 1
        if before:
            # Two held locks share a tag — the source of suppression.
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

    # ------------------------------------------------------------------
    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        self.accesses += 1
        if self.counter is not None:
            self.counter.charge("memtag", costs.MEMTAG_ACCESS)
        block = addr // self.block_size
        state = self._blocks.get(block)
        if state is None:
            self._blocks[block] = tid  # VIRGIN -> EXCLUSIVE
            return
        if state.__class__ is int:
            if tid == state:
                return
            tag_mask = self._held_masks.get(tid, 0)
            self._blocks[block] = _BlockState(
                VarMode.SHARED_MODIFIED if is_write else VarMode.SHARED,
                tag_mask)
            if is_write and not tag_mask:
                self._report(block, addr, tid, is_write)
            return
        state.tag_mask &= self._held_masks.get(tid, 0)
        if is_write and state.mode is VarMode.SHARED:
            state.mode = VarMode.SHARED_MODIFIED
        if state.mode is VarMode.SHARED_MODIFIED and not state.tag_mask:
            self._report(block, addr, tid, is_write)

    # ------------------------------------------------------------------
    def _report(self, block: int, addr: int, tid: int,
                is_write: bool) -> None:
        if block in self._reported or len(self.reports) >= self.max_reports:
            return
        self._reported.add(block)
        self.reports.append(MemTagReport(block, addr, tid, is_write))
