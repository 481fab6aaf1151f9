"""Trace recording, offline replay, and the one sync-event table.

Record mode is a classic use of shared-data instrumentation: capture the
access stream plus all synchronization once, then replay it through any
number of detectors offline — FastTrack, Eraser and AVIO can all be run
from one recorded execution without re-running the program.
:class:`TraceRecorder` is itself a detector, so it records through
whichever adapter feeds it: under Aikido
(``GenericAnalysis(TraceRecorder())``) the trace holds only shared-page
accesses, cheap to collect and exactly what those analyses need; under
full instrumentation
(``FullInstrumentationTool(kernel, TraceRecorder())``) it holds every
access, which ground-truth happens-before graphs need.

Trace entries are tuples (kept pickle-friendly):

* ``("access", tid, addr, is_write, instr_uid)``
* ``("acquire"|"release", tid, lock_id)``
* ``("fork"|"join", parent_tid, child_tid)``
* ``("barrier", barrier_id, tids)``

:data:`SYNC_HANDLERS` is the single map from synchronization to detector
handlers; live dispatch (:func:`dispatch_sync`) and :func:`replay` both
read it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Tuple

from repro.errors import ToolError
from repro.events import (
    AcquireEvent,
    BarrierEvent,
    ForkEvent,
    JoinEvent,
    ReleaseEvent,
    ThreadExitEvent,
)

TraceEntry = Tuple

#: Live sync event class -> (trace entry kind, detector handler, the
#: event's fields in handler-argument order). Every handler is optional:
#: a detector without one simply does not track that relation (Eraser has
#: no fork/join notion). A thread exit maps to None — the join carries
#: the happens-before edge, so nothing is dispatched or recorded. Any
#: other event class or entry kind raises :class:`ToolError`, because
#: dropping it would silently desynchronize the detector.
SYNC_HANDLERS = {
    AcquireEvent: ("acquire", "on_acquire", attrgetter("tid", "lock_id")),
    ReleaseEvent: ("release", "on_release", attrgetter("tid", "lock_id")),
    ForkEvent: ("fork", "on_fork",
                attrgetter("parent_tid", "child_tid")),
    JoinEvent: ("join", "on_join", attrgetter("parent_tid", "child_tid")),
    BarrierEvent: ("barrier", "on_barrier",
                   attrgetter("tids", "barrier_id")),
    ThreadExitEvent: None,
}

#: Trace entry kind -> detector handler, derived from the table above.
_ENTRY_HANDLERS = {row[0]: row[1] for row in SYNC_HANDLERS.values() if row}


def dispatch_sync(detector, event) -> None:
    """Forward a kernel sync event to the detector's handler, if any."""
    try:
        row = SYNC_HANDLERS[event.__class__]
    except KeyError:
        raise ToolError(
            f"dispatch_sync: unrecognized sync event "
            f"{event.__class__.__name__}; dropping it would silently "
            f"desynchronize the detector") from None
    if row is not None:
        handler = getattr(detector, row[1], None)
        if handler is not None:
            handler(*row[2](event))


class TraceRecorder:
    """A detector that records what it is fed as trace entries.

    Entries go to ``target``, anything with ``.append``: an in-memory
    list (the default, exposed as ``trace``) or an
    :class:`~repro.eventlog.log.EventLogWriter`, which streams them to
    disk so recording memory stays bounded by the chunk size.
    """

    def __init__(self, target=None):
        self.trace = [] if target is None else target

    def on_access(self, tid: int, addr: int, is_write: bool,
                  instr_uid: int = -1) -> None:
        self.trace.append(("access", tid, addr, bool(is_write), instr_uid))

    def on_acquire(self, tid: int, lock_id: int) -> None:
        self.trace.append(("acquire", tid, lock_id))

    def on_release(self, tid: int, lock_id: int) -> None:
        self.trace.append(("release", tid, lock_id))

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        self.trace.append(("fork", parent_tid, child_tid))

    def on_join(self, parent_tid: int, child_tid: int) -> None:
        self.trace.append(("join", parent_tid, child_tid))

    def on_barrier(self, tids, barrier_id: int) -> None:
        self.trace.append(("barrier", barrier_id, tuple(tids)))

    # ------------------------------------------------------------------
    @property
    def access_count(self) -> int:
        return sum(1 for e in self.trace if e[0] == "access")

    @property
    def sync_count(self) -> int:
        return len(self.trace) - self.access_count


def replay(trace: List[TraceEntry], detector) -> None:
    """Feed a recorded trace into a detector.

    The detector needs ``on_access`` and whichever sync handlers of
    :data:`SYNC_HANDLERS` it tracks. An entry kind outside that table
    raises :class:`ToolError` — the contract :func:`dispatch_sync`
    applies to unrecognized live sync events — instead of being silently
    skipped. Barrier entries dispatch with their recorded barrier id, so
    a replay→re-record round trip is identity.
    """
    on_access = detector.on_access
    for entry in trace:
        kind = entry[0]
        if kind == "access":
            _, tid, addr, is_write, uid = entry
            on_access(tid, addr, is_write, uid)
            continue
        name = _ENTRY_HANDLERS.get(kind)
        if name is None:
            raise ToolError(
                f"replay: unrecognized trace entry kind {kind!r}; "
                f"skipping it would silently desynchronize the "
                f"replayed detector from the live run")
        handler = getattr(detector, name, None)
        if handler is None:
            continue
        if kind == "barrier":
            handler(entry[2], entry[1])
        else:
            handler(entry[1], entry[2])


def replay_into(trace: List[TraceEntry],
                detector_factory: Callable[[], object]):
    """Convenience: build a detector, replay, return it."""
    detector = detector_factory()
    replay(trace, detector)
    return detector
