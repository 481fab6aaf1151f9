"""Tests for the LockSet and sampling extension analyses."""

import pytest

from repro.analyses.eraser import EraserDetector, VarMode
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import GenericAnalysis
from repro.analyses.sampling import SamplingDetector
from repro.core.system import AikidoSystem
from repro.workloads import micro


class TestEraserDetector:
    def test_unlocked_shared_write_reported(self):
        d = EraserDetector()
        d.on_access(1, 0x100, True)
        d.on_access(2, 0x100, True)
        assert len(d.reports) == 1
        assert "lockset violation" in d.reports[0].describe()

    def test_consistent_lock_discipline_clean(self):
        d = EraserDetector()
        for tid in (1, 2, 3):
            d.on_acquire(tid, 7)
            d.on_access(tid, 0x100, True)
            d.on_release(tid, 7)
        assert not d.reports

    def test_candidate_set_intersection(self):
        d = EraserDetector()
        d.on_acquire(1, 7)
        d.on_acquire(1, 8)
        d.on_access(1, 0x100, True)
        d.on_release(1, 8)
        d.on_release(1, 7)
        d.on_acquire(2, 7)          # common lock 7 survives
        d.on_access(2, 0x100, True)
        d.on_release(2, 7)
        assert not d.reports
        d.on_acquire(3, 8)          # lock 8 only: intersection empty
        d.on_access(3, 0x100, True)
        d.on_release(3, 8)
        assert len(d.reports) == 1

    def test_read_shared_without_locks_is_clean(self):
        d = EraserDetector()
        d.on_access(1, 0x100, False)
        d.on_access(2, 0x100, False)
        d.on_access(3, 0x100, False)
        assert not d.reports

    def test_exclusive_mode_single_thread_never_reports(self):
        d = EraserDetector()
        for _ in range(10):
            d.on_access(1, 0x100, True)
        assert not d.reports

    def test_one_report_per_block(self):
        d = EraserDetector()
        d.on_access(1, 0x100, True)
        d.on_access(2, 0x100, True)
        d.on_access(1, 0x100, True)
        d.on_access(2, 0x100, True)
        assert len(d.reports) == 1

    def test_false_positive_on_fork_join(self):
        """Eraser's signature weakness: fork/join ordering is invisible
        to the lockset discipline (FastTrack handles it precisely)."""
        eraser = EraserDetector()
        eraser.on_access(1, 0x100, True)
        # ... fork happens here; child is ordered after the parent ...
        eraser.on_access(2, 0x100, True)
        assert eraser.reports  # Eraser flags it

        ft = FastTrackDetector()
        ft.on_write(1, 0x100)
        ft.on_fork(1, 2)
        ft.on_write(2, 0x100)
        assert not ft.races  # FastTrack does not


class TestEraserUnderAikido:
    def test_eraser_analysis_runs_on_aikido(self):
        program, info = micro.racy_counter(2, 20)
        system = AikidoSystem(
            program,
            lambda kernel: GenericAnalysis(EraserDetector(kernel.counter)),
            jitter=0.0)
        system.run()
        assert system.analysis.detector.reports

    def test_eraser_clean_on_locked_counter(self):
        program, info = micro.locked_counter(2, 20)
        system = AikidoSystem(
            program,
            lambda kernel: GenericAnalysis(EraserDetector(kernel.counter)),
            jitter=0.0)
        system.run()
        assert not system.analysis.detector.reports


class TestSampling:
    def test_cold_burst_fully_sampled(self):
        inner = FastTrackDetector()
        s = SamplingDetector(inner, cold_threshold=5, hot_rate=1000)
        for i in range(5):
            s.on_access(1, 0x100 + 8 * i, True, instr_uid=1)
        assert s.sampled == 5 and s.skipped == 0

    def test_hot_code_sampled_at_rate(self):
        inner = FastTrackDetector()
        s = SamplingDetector(inner, cold_threshold=0, hot_rate=10)
        for _ in range(100):
            s.on_access(1, 0x100, True, instr_uid=1)
        assert s.sampled == 10
        assert abs(s.sampling_fraction - 0.1) < 0.01

    def test_sampling_introduces_false_negatives(self):
        """The §1 argument: a sampled detector misses hot races."""
        full = FastTrackDetector()
        sampled_inner = FastTrackDetector()
        s = SamplingDetector(sampled_inner, cold_threshold=0, hot_rate=2)
        # Alternating racy writes; sampling thread 2's instruction at
        # 1-in-2 offset means the conflicting pair can be missed.
        for detector in (full,):
            detector.on_write(1, 0x100)
            detector.on_write(2, 0x100)
        s.on_access(1, 0x100, True, instr_uid=1)   # sampled (count 0)
        s.on_access(2, 0x100, True, instr_uid=2)   # sampled (count 0)
        s.on_access(1, 0x100, True, instr_uid=1)   # skipped
        assert full.races
        # The sampled inner detector saw both writes here, so it still
        # reports: lower the rate to force the miss deterministically.
        s2 = SamplingDetector(FastTrackDetector(), cold_threshold=0,
                              hot_rate=2)
        s2.on_access(1, 0x100, True, instr_uid=1)  # count 0: sampled
        s2.on_access(1, 0x100, True, instr_uid=1)  # count 1: skipped
        s2.on_access(2, 0x108, True, instr_uid=2)  # different block
        s2.on_access(2, 0x100, True, instr_uid=2)  # count 1: skipped! miss
        assert not s2.inner.races

    def test_delegates_sync_to_inner(self):
        inner = FastTrackDetector()
        s = SamplingDetector(inner)
        s.on_acquire(1, 5)   # resolved via __getattr__
        assert inner.sync_ops == 1

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SamplingDetector(FastTrackDetector(), hot_rate=0)
        with pytest.raises(ValueError):
            SamplingDetector(FastTrackDetector(), cold_threshold=-1)
