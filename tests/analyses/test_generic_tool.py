"""Tests for the generic full/Aikido adapters with every detector."""

import pytest

from repro.analyses.atomicity import AVIOChecker
from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import (
    FullInstrumentationTool,
    GenericAnalysis,
)
from repro.analyses.memtag import MemTagDetector
from repro.core.system import AikidoSystem
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.workloads import micro

DETECTORS = [FastTrackDetector, EraserDetector, AVIOChecker]


def work(detector):
    """Accesses the detector was fed, whatever it calls the counter."""
    return (getattr(detector, "reads", 0)
            + getattr(detector, "writes", 0)
            + getattr(detector, "accesses", 0)
            + getattr(detector, "checked", 0))


def run_full_engine(program, detector):
    kernel = Kernel(seed=3, quantum=20, jitter=0.0)
    kernel.create_process(program)
    engine = DBREngine(kernel)
    tool = FullInstrumentationTool(kernel, detector)
    engine.attach_tool(tool)
    kernel.run()
    return engine


def run_full(program, detector):
    run_full_engine(program, detector)
    return detector


def run_aikido(program, detector):
    system = AikidoSystem(program, GenericAnalysis(detector), seed=3,
                          quantum=20, jitter=0.0)
    system.run()
    return detector


@pytest.mark.parametrize("detector_cls", DETECTORS)
class TestBothModesRunEveryDetector:
    def test_full_mode(self, detector_cls):
        detector = run_full(micro.racy_counter(2, 10)[0], detector_cls())
        # Every detector exposes a nonzero work counter.
        assert work(detector) > 0

    def test_aikido_mode(self, detector_cls):
        detector = run_aikido(micro.racy_counter(2, 10)[0], detector_cls())
        assert work(detector) > 0


@pytest.mark.parametrize("detector_cls",
                         DETECTORS + [DjitDetector, MemTagDetector])
def test_full_mode_counts_one_tool_invocation_per_access(detector_cls):
    detector = detector_cls()
    engine = run_full_engine(micro.racy_counter(2, 10)[0], detector)
    assert engine.stats.tool_invocations == work(detector) > 0


class TestEraserEquivalence:
    def test_aikido_eraser_reports_subset_of_full(self):
        full = run_full(micro.racy_counter(2, 15)[0], EraserDetector())
        aik = run_aikido(micro.racy_counter(2, 15)[0], EraserDetector())
        assert {r.key for r in aik.reports} \
            <= {r.key for r in full.reports}
        assert full.reports  # the unlocked counter violates the discipline

    def test_locked_counter_clean_in_both_modes(self):
        full = run_full(micro.locked_counter(2, 15)[0], EraserDetector())
        aik = run_aikido(micro.locked_counter(2, 15)[0], EraserDetector())
        assert not full.reports and not aik.reports


class TestFastTrackViaGenericAdapters:
    def test_generic_full_equals_dedicated_tool(self):
        """The generic adapter and the ``fasttrack`` mode runner must
        see the same races."""
        from repro.harness.runner import run_fasttrack
        dedicated = run_fasttrack(micro.racy_counter(2, 15)[0], seed=3,
                                  quantum=20)
        generic = run_full(micro.racy_counter(2, 15)[0],
                           FastTrackDetector())
        assert {r.key for r in generic.races} \
            == {r.key for r in dedicated.races}

    def test_detector_sync_handlers_dispatched(self):
        detector = run_full(micro.barrier_phases(2, 3)[0],
                            FastTrackDetector())
        assert detector.sync_ops > 0
        assert not detector.races


class TestAikidoWorkReduction:
    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_aikido_feeds_fewer_accesses(self, detector_cls):
        """On a mostly-private workload, Aikido must deliver strictly
        fewer accesses to the detector than full instrumentation."""
        full = work(run_full(micro.private_work(2, 20)[0], detector_cls()))
        aik = work(run_aikido(micro.private_work(2, 20)[0],
                              detector_cls()))
        assert aik == 0
        assert full > 0
