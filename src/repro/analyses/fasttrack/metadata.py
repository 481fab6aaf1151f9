"""FastTrack metadata: per-variable, per-lock and per-thread state.

Following the paper's Aikido port (§4.2), "variables" are fixed-size
8-byte blocks of the address space; per-variable metadata lives in shadow
memory, per-lock metadata in a hash table, and per-thread metadata in
thread-local storage. Here those storage classes are host dictionaries,
with the lookup costs charged by the callers through the Umbra model.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analyses.fasttrack.epoch import (
    EPOCH_NONE,
    format_epoch,
    make_epoch,
)
from repro.analyses.fasttrack.vectorclock import VectorClock


class VarState:
    """One variable's access history: a write epoch plus read state.

    ``read_vc`` is None while reads are totally ordered (epoch mode); it
    is materialized only on concurrent reads (the read-shared transition).
    """

    __slots__ = ("write_epoch", "read_epoch", "read_vc")

    def __init__(self):
        self.write_epoch = EPOCH_NONE
        self.read_epoch = EPOCH_NONE
        self.read_vc: Optional[VectorClock] = None

    @property
    def read_shared(self) -> bool:
        return self.read_vc is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        read = (repr(self.read_vc) if self.read_vc is not None
                else format_epoch(self.read_epoch))
        return f"<VarState W={format_epoch(self.write_epoch)} R={read}>"


class ThreadState:
    """One thread's vector clock and cached epoch.

    ``epoch`` is refreshed after every change to ``vc``, so
    ``epoch >> TID_BITS == vc.get(tid)`` always holds and the detector
    reads the thread's own clock from the epoch.
    """

    __slots__ = ("tid", "vc", "epoch")

    def __init__(self, tid: int):
        self.tid = tid
        self.vc = VectorClock({tid: 1})
        self.epoch = make_epoch(tid, 1)

    def refresh_epoch(self) -> None:
        self.epoch = make_epoch(self.tid, self.vc.get(self.tid))

    def increment(self) -> None:
        self.vc.increment(self.tid)
        self.refresh_epoch()


class MetadataStore:
    """All detector state: variables, locks, threads, barriers."""

    def __init__(self, block_size: int = 8):
        self.block_size = block_size
        self.vars: Dict[int, VarState] = {}
        self.locks: Dict[int, VectorClock] = {}
        self.threads: Dict[int, ThreadState] = {}
        #: barrier id -> accumulated clock (for all-to-all ordering).
        self.barrier_clocks: Dict[int, VectorClock] = {}
        #: Variables whose metadata had to be initialized (cost model).
        self.var_inits = 0

    def thread(self, tid: int) -> ThreadState:
        state = self.threads.get(tid)
        if state is None:
            state = self.threads[tid] = ThreadState(tid)
        return state

    def var(self, block: int) -> VarState:
        state = self.vars.get(block)
        if state is None:
            state = self.vars[block] = VarState()
            self.var_inits += 1
        return state

    def lock(self, lock_id: int) -> VectorClock:
        vc = self.locks.get(lock_id)
        if vc is None:
            vc = self.locks[lock_id] = VectorClock()
        return vc

    def block_of(self, addr: int) -> int:
        return addr // self.block_size

    def drop_var(self, block: int) -> None:
        self.vars.pop(block, None)
