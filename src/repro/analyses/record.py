"""Trace recording and offline replay.

Record mode is a classic use of shared-data instrumentation: capture the
(shared) access stream plus all synchronization once, then replay it
through any number of detectors offline — FastTrack, Eraser and AVIO can
all be run from one recorded execution without re-running the program.
Under Aikido the recorded stream contains only shared-page accesses, so
the trace is both cheap to collect and exactly what those analyses need.

Trace entries are tuples (kept pickle-friendly):

* ``("access", tid, addr, is_write, instr_uid)``
* ``("acquire"|"release", tid, lock_id)``
* ``("fork"|"join", parent_tid, child_tid)``
* ``("barrier", barrier_id, tids)``
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.analysis import SharedDataAnalysis
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


class TraceRecorder(SharedDataAnalysis):
    """Records the shared-access + synchronization stream."""

    name = "trace-recorder"

    def __init__(self):
        self.trace: List[TraceEntry] = []

    def on_shared_access(self, thread, instr, addr: int,
                         is_write: bool) -> None:
        self.trace.append(("access", thread.tid, addr, is_write,
                           instr.uid))

    def on_sync_event(self, event) -> None:
        cls = event.__class__
        if cls is AcquireEvent:
            self.trace.append(("acquire", event.tid, event.lock_id))
        elif cls is ReleaseEvent:
            self.trace.append(("release", event.tid, event.lock_id))
        elif cls is ForkEvent:
            self.trace.append(("fork", event.parent_tid, event.child_tid))
        elif cls is JoinEvent:
            self.trace.append(("join", event.parent_tid, event.child_tid))
        elif cls is BarrierEvent:
            self.trace.append(("barrier", event.barrier_id,
                               tuple(event.tids)))
        elif cls is ThreadExitEvent:
            # Deliberately not recorded: JOIN carries the happens-before
            # edge, so replay needs no exit entry (the live detectors
            # make the same call).
            pass
        else:
            raise ToolError(
                f"trace-recorder: unrecognized sync event "
                f"{cls.__name__}; dropping it would make the recorded "
                f"trace silently diverge from the live run")

    # ------------------------------------------------------------------
    @property
    def access_count(self) -> int:
        return sum(1 for e in self.trace if e[0] == "access")

    @property
    def sync_count(self) -> int:
        return len(self.trace) - self.access_count


class FullTraceRecorder:
    """Detector-protocol recorder for *full-instrumentation* tracing.

    Use with :class:`repro.analyses.generic_tool.FullInstrumentationTool`
    when the trace must include every access (an Aikido-collected trace
    inherits Aikido's first-touch blind spot — fine for shared-data
    analyses, wrong for ground-truth happens-before graphs).

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

    def on_barrier(self, tids, barrier_id: int = 0) -> None:
        self.trace.append(("barrier", barrier_id, tuple(tids)))


#: Sync handlers the replay contract documents as *optional*: a detector
#: without one of these simply does not track that relation (Eraser has
#: no fork/join notion). Anything outside this set is an unknown entry
#: kind and replaying past it would desynchronize the detector.
_OPTIONAL_SYNC = frozenset({"acquire", "release", "fork", "join", "barrier"})


def replay(trace: List[TraceEntry], detector) -> None:
    """Feed a recorded trace into a detector.

    The detector needs ``on_access`` and whichever of
    ``on_acquire/on_release/on_fork/on_join/on_barrier`` the trace's
    synchronization requires (those handlers are optional — Eraser, for
    instance, has no fork/join notion). An entry kind outside that set
    raises :class:`ToolError` — the same contract ``TraceRecorder``
    applies to unrecognized live sync events — instead of being silently
    skipped. Barrier entries dispatch with their recorded barrier id, so
    a replay→re-record round trip is identity.
    """
    from repro.analyses.generic_tool import call_barrier_handler

    for entry in trace:
        kind = entry[0]
        if kind == "access":
            _, tid, addr, is_write, uid = entry
            detector.on_access(tid, addr, is_write, uid)
        elif kind in _OPTIONAL_SYNC:
            handler = getattr(detector, f"on_{kind}", None)
            if handler is None:
                continue
            if kind == "barrier":
                call_barrier_handler(handler, entry[2], entry[1])
            else:
                handler(entry[1], entry[2])
        else:
            raise ToolError(
                f"replay: unrecognized trace entry kind {kind!r}; "
                f"skipping it would silently desynchronize the "
                f"replayed detector from the live run")


def replay_into(trace: List[TraceEntry],
                detector_factory: Callable[[], object]):
    """Convenience: build a detector, replay, return it."""
    detector = detector_factory()
    replay(trace, detector)
    return detector
