"""Tests for trace recording and offline replay."""

import pytest

from repro.analyses.atomicity import AVIOChecker
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import (
    FullInstrumentationTool,
    GenericAnalysis,
)
from repro.analyses.record import (
    TraceRecorder,
    dispatch_sync,
    replay,
    replay_into,
)
from repro.dbr.engine import DBREngine
from repro.errors import ToolError
from repro.events import SyncEvent, ThreadExitEvent
from repro.core.system import AikidoSystem
from repro.guestos.kernel import Kernel
from repro.harness.runner import run_aikido_fasttrack
from repro.workloads import micro


def record(program_factory, seed=3, quantum=20):
    """Aikido recording: shared-page accesses plus all sync."""
    system = AikidoSystem(program_factory(),
                          GenericAnalysis(TraceRecorder()), seed=seed,
                          quantum=quantum, jitter=0.0)
    system.run()
    return system.analysis.detector


class TestRecording:
    def test_trace_contains_accesses_and_sync(self):
        recorder = record(lambda: micro.racy_counter(2, 15)[0])
        assert recorder.access_count > 0
        assert recorder.sync_count > 0
        kinds = {e[0] for e in recorder.trace}
        assert "fork" in kinds and "join" in kinds

    def test_private_workload_records_no_accesses(self):
        recorder = record(lambda: micro.private_work(2, 15)[0])
        assert recorder.access_count == 0
        assert recorder.sync_count > 0  # fork/join still recorded

    def test_barrier_entries(self):
        recorder = record(lambda: micro.barrier_phases(2, 3)[0])
        barriers = [e for e in recorder.trace if e[0] == "barrier"]
        assert len(barriers) == 3
        assert all(len(e[2]) == 2 for e in barriers)

    def test_trace_is_pickle_friendly(self):
        import pickle
        recorder = record(lambda: micro.racy_counter(2, 10)[0])
        assert pickle.loads(pickle.dumps(recorder.trace)) == recorder.trace


class TestReplay:
    def test_offline_fasttrack_equals_online(self):
        """Replaying the recorded trace finds the same races as running
        FastTrack inline under Aikido."""
        online = run_aikido_fasttrack(micro.racy_counter(2, 15)[0],
                                      seed=3, quantum=20)
        recorder = record(lambda: micro.racy_counter(2, 15)[0])
        offline = replay_into(recorder.trace, FastTrackDetector)
        assert {r.key for r in offline.races} \
            == {r.key for r in online.races}

    def test_one_trace_many_detectors(self):
        recorder = record(lambda: micro.racy_counter(2, 15)[0])
        ft = replay_into(recorder.trace, FastTrackDetector)
        eraser = replay_into(recorder.trace, EraserDetector)
        avio = replay_into(recorder.trace, AVIOChecker)
        assert ft.races          # happens-before race
        assert eraser.reports    # no consistent lock either
        assert avio.checked > 0  # ran (violations need a lock region)

    def test_replay_skips_handlers_a_detector_lacks(self):
        recorder = record(lambda: micro.barrier_phases(2, 3)[0])
        # Eraser has no on_barrier/on_fork/on_join: must not crash.
        eraser = replay_into(recorder.trace, EraserDetector)
        assert not eraser.reports or True

    def test_clean_trace_stays_clean(self):
        recorder = record(lambda: micro.locked_counter(2, 15)[0])
        ft = replay_into(recorder.trace, FastTrackDetector)
        eraser = replay_into(recorder.trace, EraserDetector)
        assert not ft.races
        assert not eraser.reports

    def test_replay_is_repeatable(self):
        recorder = record(lambda: micro.racy_flag()[0])
        first = replay_into(recorder.trace, FastTrackDetector)
        second = replay_into(recorder.trace, FastTrackDetector)
        assert [r.key for r in first.races] == [r.key for r in second.races]


class TestFullRecording:
    def test_full_trace_includes_first_touch_accesses(self):
        """An Aikido trace misses first touches (§6); a full trace does
        not — the distinction full-instrumentation recording exists
        for."""
        program, info = micro.first_touch_race()
        full = record_full(lambda: program)
        accesses = [e for e in full.trace if e[0] == "access"
                    and e[2] == info["cell"]]
        assert len(accesses) == 2  # the write AND the read

        aikido = record(lambda: micro.first_touch_race()[0])
        # The owner's write is consumed by the private->shared
        # transition; the sharer's read is re-executed instrumented and
        # IS observed — exactly one of the two accesses survives.
        assert aikido.access_count == 1

    def test_full_trace_replays_into_detectors(self):
        full = record_full(lambda: micro.racy_counter(2, 10)[0])
        detector = replay_into(full.trace, FastTrackDetector)
        assert detector.races


class TestUnrecognizedSyncEvents:
    """Regression: unknown sync events must fail loudly, not vanish.

    ``on_sync_event`` used to fall through silently for any event class
    it did not recognize — the recorded trace would diverge from the
    live run with no signal at all, poisoning every offline replay.
    """

    class NovelEvent(SyncEvent):
        __slots__ = ("tid",)

        def __init__(self, tid):
            self.tid = tid

    def test_recorder_rejects_unknown_event(self):
        analysis = GenericAnalysis(TraceRecorder())
        with pytest.raises(ToolError, match="unrecognized sync event"):
            analysis.on_sync_event(self.NovelEvent(1))
        assert analysis.detector.trace == []  # nothing half-recorded

    def test_recorder_tolerates_thread_exit(self):
        # JOIN carries the happens-before edge; EXIT is deliberately
        # (and now explicitly) not recorded.
        analysis = GenericAnalysis(TraceRecorder())
        analysis.on_sync_event(ThreadExitEvent(3))
        assert analysis.detector.trace == []

    def test_dispatch_sync_rejects_unknown_event(self):
        with pytest.raises(ToolError, match="unrecognized sync event"):
            dispatch_sync(FastTrackDetector(), self.NovelEvent(1))

    def test_dispatch_sync_tolerates_thread_exit(self):
        dispatch_sync(FastTrackDetector(), ThreadExitEvent(3))

    @pytest.mark.parametrize("adapter", [
        "AikidoFastTrack", "GenericAnalysis", "FullInstrumentationTool"])
    def test_every_adapter_rejects_unknown_event(self, adapter):
        """The paper's configuration used to drop a novel event silently
        while the other adapters raised."""
        kernel = Kernel(jitter=0.0)
        kernel.create_process(micro.private_work(1, 1)[0])
        detector = FastTrackDetector(kernel.counter)
        tool = {
            "AikidoFastTrack": lambda: AikidoFastTrack(kernel, detector),
            "GenericAnalysis": lambda: GenericAnalysis(detector),
            "FullInstrumentationTool":
                lambda: FullInstrumentationTool(kernel, detector),
        }[adapter]()
        with pytest.raises(ToolError, match="unrecognized sync event"):
            tool.on_sync_event(self.NovelEvent(1))
        assert detector.sync_ops == 0


def record_full(program_factory, seed=3, quantum=20):
    """Full-instrumentation ground-truth recording."""
    kernel = Kernel(seed=seed, quantum=quantum, jitter=0.0)
    kernel.create_process(program_factory())
    engine = DBREngine(kernel)
    recorder = TraceRecorder()
    engine.attach_tool(FullInstrumentationTool(kernel, recorder))
    kernel.run()
    return recorder


class TestBarrierIdFidelity:
    """Regression: barrier ids must survive record -> replay -> re-record.

    The full-instrumentation recorder's ``on_barrier`` used to hardcode
    ``barrier_id=0``
    and ``replay`` dropped the recorded id on dispatch, so a round trip
    collapsed every barrier to id 0 and HBGraph edge labels degenerated
    to ``barrier-0``.
    """

    def test_full_recorder_keeps_real_barrier_ids(self):
        # barrier_phases crosses ONE barrier three times: every entry
        # must carry its real id (1), not the hardcoded 0 of the bug.
        recorder = record_full(lambda: micro.barrier_phases(2, 3)[0])
        ids = [e[1] for e in recorder.trace if e[0] == "barrier"]
        assert len(ids) == 3
        assert all(i != 0 for i in ids), ids

    def test_aikido_and_full_recorders_agree_on_barrier_ids(self):
        full = record_full(lambda: micro.barrier_phases(2, 3)[0])
        aikido = record(lambda: micro.barrier_phases(2, 3)[0])
        full_ids = [e[1] for e in full.trace if e[0] == "barrier"]
        aikido_ids = [e[1] for e in aikido.trace if e[0] == "barrier"]
        assert full_ids == aikido_ids

    def test_replay_rerecord_round_trip_is_identity(self):
        recorder = record_full(lambda: micro.barrier_phases(2, 3)[0])
        rerecorded = replay_into(recorder.trace, TraceRecorder)
        assert rerecorded.trace == recorder.trace

    def test_round_trip_identity_on_lock_heavy_trace(self):
        recorder = record_full(lambda: micro.producer_consumer(
            items=20, consumers=2)[0])
        rerecorded = replay_into(recorder.trace, TraceRecorder)
        assert rerecorded.trace == recorder.trace

    def test_hbgraph_labels_carry_real_barrier_ids(self):
        from repro.analyses.hbgraph import HBGraph

        recorder = record_full(lambda: micro.barrier_phases(2, 3)[0])
        graph = HBGraph(recorder.trace).graph
        kinds = {data["kind"] for _, _, data in graph.edges(data=True)
                 if data["kind"].startswith("barrier-")}
        # The bug collapsed every label to "barrier-0"; the real barrier
        # allocated by the workload has a nonzero id.
        assert kinds and "barrier-0" not in kinds, kinds

    def test_replay_passes_id_to_barrier_aware_detector(self):
        class IdCollector:
            def __init__(self):
                self.ids = []

            def on_access(self, tid, addr, is_write, instr_uid=-1):
                pass

            def on_barrier(self, tids, barrier_id):
                self.ids.append(barrier_id)

        trace = [("barrier", 7, (0, 1)), ("barrier", 9, (0, 1))]
        collector = replay_into(trace, IdCollector)
        assert collector.ids == [7, 9]


class TestUnknownEntryKinds:
    """Regression: replay used to silently skip unknown entry kinds."""

    def test_replay_rejects_unknown_kind(self):
        trace = [("access", 1, 4096, True, 1), ("wakeup", 1, 1)]
        with pytest.raises(ToolError, match="unrecognized trace entry"):
            replay(trace, FastTrackDetector())

    def test_replay_rejects_typoed_sync_kind(self):
        with pytest.raises(ToolError, match="unrecognized trace entry"):
            replay([("aquire", 0, 1)], EraserDetector())

    def test_optional_handlers_still_skipped(self):
        # Eraser has no fork/join/barrier: documented-optional, no error.
        trace = [("fork", 0, 1), ("barrier", 2, (0, 1)), ("join", 0, 1)]
        replay(trace, EraserDetector())
