"""Tests for the happens-before graph explainer and schedule explorer."""

import pytest

from repro.analyses.generic_tool import GenericAnalysis
from repro.analyses.hbgraph import HBGraph, explain_pair
from repro.analyses.record import TraceRecorder
from repro.core.system import AikidoSystem
from repro.harness.explore import (
    ExplorationResult,
    explore,
    render_exploration,
)
from repro.workloads import micro


def recorded_trace(program_factory, seed=3, quantum=20):
    system = AikidoSystem(program_factory(),
                          GenericAnalysis(TraceRecorder()), seed=seed,
                          quantum=quantum, jitter=0.0)
    system.run()
    return system.analysis.detector.trace


class TestHBGraphStructure:
    def test_lock_chain_orders_critical_sections(self):
        trace = [
            ("acquire", 1, 9),
            ("access", 1, 0x100, True, 1),
            ("release", 1, 9),
            ("acquire", 2, 9),
            ("access", 2, 0x100, True, 2),
            ("release", 2, 9),
        ]
        graph = HBGraph(trace)
        assert graph.ordered(1, 4)
        chain = graph.sync_chain(1, 4)
        assert "lock-9" in chain
        assert "RACE" not in explain_pair(graph, 1, 4)

    def test_unordered_accesses_race(self):
        trace = [
            ("access", 1, 0x100, True, 1),
            ("access", 2, 0x100, True, 2),
        ]
        graph = HBGraph(trace)
        assert not graph.ordered(0, 1)
        assert graph.racing_pairs(0x100 // 8) == [(0, 1)]
        assert "RACE" in explain_pair(graph, 0, 1)

    def test_fork_orders_parent_prefix_before_child(self):
        trace = [
            ("access", 1, 0x100, True, 1),
            ("fork", 1, 2),
            ("access", 2, 0x100, True, 2),
        ]
        graph = HBGraph(trace)
        assert graph.ordered(0, 2)
        assert not graph.racing_pairs(0x100 // 8)

    def test_parent_after_fork_races_with_child(self):
        trace = [
            ("fork", 1, 2),
            ("access", 1, 0x100, True, 1),
            ("access", 2, 0x100, True, 2),
        ]
        graph = HBGraph(trace)
        assert graph.racing_pairs(0x100 // 8) == [(1, 2)]

    def test_join_orders_child_before_parent_suffix(self):
        trace = [
            ("fork", 1, 2),
            ("access", 2, 0x100, True, 2),
            ("join", 1, 2),
            ("access", 1, 0x100, True, 1),
        ]
        graph = HBGraph(trace)
        assert graph.ordered(1, 3)
        chain = graph.sync_chain(1, 3)
        assert "join" in chain

    def test_barrier_all_to_all(self):
        trace = [
            ("access", 1, 0x100, True, 1),
            ("access", 2, 0x200, True, 2),
            ("barrier", 7, (1, 2)),
            ("access", 2, 0x100, True, 2),
        ]
        graph = HBGraph(trace)
        assert graph.ordered(0, 3)
        assert "barrier-7" in graph.sync_chain(0, 3)

    def test_reads_never_race_with_reads(self):
        trace = [
            ("access", 1, 0x100, False, 1),
            ("access", 2, 0x100, False, 2),
        ]
        assert not HBGraph(trace).racing_pairs(0x100 // 8)


class TestHBGraphOnRealTraces:
    def test_agrees_with_fasttrack_on_racy_counter(self):
        program, info = micro.racy_counter(2, 10)
        trace = recorded_trace(lambda: micro.racy_counter(2, 10)[0])
        graph = HBGraph(trace)
        block = info["counter"] // 8
        assert graph.racing_pairs(block)

    def test_agrees_with_fasttrack_on_locked_counter(self):
        program, info = micro.locked_counter(2, 10)
        trace = recorded_trace(lambda: micro.locked_counter(2, 10)[0])
        graph = HBGraph(trace)
        block = info["counter"] // 8
        assert not graph.racing_pairs(block)


class TestExploration:
    def test_flaky_detection_across_schedules(self):
        """racy_flag's window is schedule-dependent: exploring seeds can
        surface it even when a single run misses it."""
        result = explore(lambda: micro.racy_flag()[0],
                         seeds=range(6), quanta=(3, 20))
        assert result.runs == 12
        assert result.union, "some schedule must expose the race"

    def test_race_free_program_clean_under_all_schedules(self):
        result = explore(lambda: micro.locked_counter(2, 10)[0],
                         seeds=range(5))
        assert not result.union

    def test_always_detected_race_is_in_intersection(self):
        result = explore(lambda: micro.racy_counter(2, 20)[0],
                         seeds=range(4))
        assert result.intersection
        for key in result.intersection:
            assert result.detection_rate(key) == 1.0

    def test_render(self):
        result = explore(lambda: micro.racy_counter(2, 15)[0],
                         seeds=range(3))
        text = render_exploration(result)
        assert "schedules explored: 3" in text

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            explore(lambda: micro.racy_flag()[0], mode="eraser")

    def test_aikido_mode_supported(self):
        result = explore(lambda: micro.racy_counter(2, 15)[0],
                         seeds=range(3), mode="aikido-fasttrack")
        assert result.runs == 3
