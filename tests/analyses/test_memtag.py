"""Tests for the memory-tagging-style lock checker."""

import pytest

from repro.analyses.eraser import EraserDetector
from repro.analyses.generic_tool import GenericAnalysis
from repro.analyses.memtag import (
    TAG_COUNT,
    MemTagDetector,
    lock_tag,
)
from repro.analyses.record import TraceRecorder, replay_into
from repro.core.system import AikidoSystem
from repro.workloads import micro


def record(program_factory, seed=3, quantum=20):
    system = AikidoSystem(program_factory(),
                          GenericAnalysis(TraceRecorder()), seed=seed,
                          quantum=quantum, jitter=0.0)
    system.run()
    return system.analysis.detector.trace


class TestTagMapping:
    def test_tags_are_nonzero(self):
        assert all(1 <= lock_tag(lock) <= TAG_COUNT
                   for lock in range(200))

    def test_distinct_locks_can_collide(self):
        assert lock_tag(1) == lock_tag(1 + TAG_COUNT)


class TestDetection:
    def test_unlocked_shared_write_is_reported(self):
        trace = record(lambda: micro.racy_counter(2, 15)[0])
        detector = replay_into(trace, MemTagDetector)
        assert detector.reports
        assert "tag-lock violation" in detector.reports[0].describe()

    def test_locked_counter_is_clean(self):
        trace = record(lambda: micro.locked_counter(2, 15)[0])
        detector = replay_into(trace, MemTagDetector)
        assert not detector.reports

    def test_reports_deduplicate_per_block(self):
        trace = record(lambda: micro.racy_counter(2, 30)[0])
        detector = replay_into(trace, MemTagDetector)
        blocks = [r.block for r in detector.reports]
        assert len(blocks) == len(set(blocks))

    def test_exclusive_owner_never_reports(self):
        detector = MemTagDetector()
        for i in range(10):
            detector.on_access(1, 4096 + 8 * i, True)
            detector.on_access(1, 4096 + 8 * i, False)
        assert not detector.reports


class TestTagCollisionSuppression:
    """Tag collisions may only SUPPRESS reports — never add them."""

    def test_colliding_locks_suppress_the_eraser_report(self):
        # Locks 1 and 1+TAG_COUNT protect the same block from different
        # threads. Eraser's lockset intersection is empty (a report);
        # memtag's tag masks collide to the same tag (no report).
        colliding = 1 + TAG_COUNT
        trace = [
            ("acquire", 1, 1), ("access", 1, 4096, True, -1),
            ("release", 1, 1),
            ("acquire", 2, colliding), ("access", 2, 4096, True, -1),
            ("release", 2, colliding),
            ("acquire", 1, 1), ("access", 1, 4096, True, -1),
            ("release", 1, 1),
        ]
        eraser = replay_into(trace, EraserDetector)
        memtag = replay_into(trace, MemTagDetector)
        assert eraser.reports
        assert not memtag.reports

    @pytest.mark.parametrize("workload", [
        lambda: micro.racy_counter(2, 15)[0],
        lambda: micro.locked_counter(2, 15)[0],
        lambda: micro.racy_flag()[0],
        lambda: micro.producer_consumer(items=20, consumers=2)[0],
        lambda: micro.barrier_phases(2, 3)[0],
    ])
    def test_memtag_blocks_subset_of_eraser(self, workload):
        trace = record(workload)
        eraser = replay_into(trace, EraserDetector)
        memtag = replay_into(trace, MemTagDetector)
        assert {r.block for r in memtag.reports} \
            <= {r.block for r in eraser.reports}


class TestHeldMaskBookkeeping:
    def test_collision_counter_counts_overlapping_holds(self):
        detector = MemTagDetector()
        detector.on_acquire(1, 1)
        detector.on_acquire(1, 1 + TAG_COUNT)  # same tag, held together
        assert detector.tag_collisions == 1

    def test_release_of_one_colliding_lock_keeps_the_tag(self):
        # Holding two locks with the same tag, releasing one must keep
        # the tag in the mask (the other lock still holds it).
        colliding = 1 + TAG_COUNT
        detector = MemTagDetector()
        detector.on_access(1, 4096, True)        # EXCLUSIVE for t1
        detector.on_acquire(2, 1)
        detector.on_acquire(2, colliding)
        detector.on_release(2, 1)
        detector.on_access(2, 4096, True)        # still guarded by tag
        assert not detector.reports
        detector.on_release(2, colliding)
        detector.on_access(2, 4096, True)        # now unguarded
        # Same thread, but the mask intersection is empty now.
        assert detector.reports

    def test_detector_runs_counter_free_by_default(self):
        detector = MemTagDetector()
        detector.on_access(1, 4096, True)
        assert detector.counter is None and detector.accesses == 1
