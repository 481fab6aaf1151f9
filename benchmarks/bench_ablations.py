"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper artifacts — these quantify *why* the design is the way it is:

* mirror pages vs unprotect-on-share (completeness loss for speed);
* the §6 first-access ordering workaround's overhead (claimed cheap);
* hypercall vs GS-trap context-switch interception (§3.2.3);
* per-thread protection vs process-wide protection (Grace/Dthreads
  style), emulated by forcing every page shared;
* FastTrack block-size sweep (4/8/16 bytes, §4.2's trade-off);
* LiteRace-style sampling rate vs detection (the §1 argument);
* Eraser (LockSet) vs FastTrack precision and cost (§7.3).

    pytest benchmarks/bench_ablations.py --benchmark-only
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import GenericAnalysis
from repro.analyses.record import TraceRecorder, replay_into
from repro.analyses.sampling import SamplingDetector
from repro.core.config import AikidoConfig
from repro.core.system import AikidoSystem
from repro.harness.runner import run_aikido_fasttrack, run_fasttrack
from repro.workloads import micro
from repro.workloads.parsec import get_benchmark

ABLATION_BENCH = "bodytrack"   # mid-sharing, locks: a representative case
FAST = dict(seed=1, quantum=150)


def _program(threads=4, scale=0.5):
    return get_benchmark(ABLATION_BENCH).program(threads=threads,
                                                 scale=scale)


class TestMirrorPagesAblation:
    def test_no_mirror_is_faster_but_blind(self, benchmark):
        with_mirror = run_aikido_fasttrack(_program(), **FAST)
        without = run_once(benchmark, lambda: run_aikido_fasttrack(
            _program(), config=AikidoConfig(mirror_pages=False), **FAST))
        benchmark.extra_info.update({
            "mirror_cycles": with_mirror.cycles,
            "no_mirror_cycles": without.cycles,
            "mirror_shared_accesses": with_mirror.shared_accesses,
            "no_mirror_shared_accesses": without.shared_accesses,
        })
        print(f"\nAblation[mirror]: with={with_mirror.cycles} "
              f"without={without.cycles}; observed shared accesses "
              f"{with_mirror.shared_accesses} vs {without.shared_accesses}")
        # Without mirrors the page is unprotected once shared: cheaper...
        assert without.cycles < with_mirror.cycles
        # ...but the analysis goes partially blind (the design's whole
        # point): accesses are missed, and fewer instructions are ever
        # discovered (only the one-fault-per-page winners).
        assert without.shared_accesses < with_mirror.shared_accesses * 0.9
        assert (without.aikido_stats["instructions_instrumented"]
                <= with_mirror.aikido_stats["instructions_instrumented"])


class TestOrderingWorkaroundAblation:
    def test_ordering_workaround_is_cheap(self, benchmark):
        base = run_aikido_fasttrack(_program(), **FAST)
        ordered = run_once(benchmark, lambda: run_aikido_fasttrack(
            _program(), config=AikidoConfig(order_first_accesses=True),
            **FAST))
        overhead = ordered.cycles / base.cycles
        benchmark.extra_info["overhead_ratio"] = round(overhead, 4)
        print(f"\nAblation[§6 ordering]: overhead {overhead:.4f}x")
        assert overhead < 1.05  # §6 claims the workaround is cheap


class TestContextSwitchModeAblation:
    def test_gs_trap_vs_hypercall(self, benchmark):
        hypercall = run_aikido_fasttrack(
            _program(), config=AikidoConfig(ctx_switch_mode="hypercall"),
            **FAST)
        gs_trap = run_once(benchmark, lambda: run_aikido_fasttrack(
            _program(), config=AikidoConfig(ctx_switch_mode="gs_trap"),
            **FAST))
        benchmark.extra_info.update({
            "hypercall_cycles": hypercall.cycles,
            "gs_trap_cycles": gs_trap.cycles,
        })
        print(f"\nAblation[ctx-switch]: hypercall={hypercall.cycles} "
              f"gs_trap={gs_trap.cycles}")
        # Same sharing results either way; only the trap cost differs.
        assert gs_trap.segfaults == hypercall.segfaults
        delta = abs(gs_trap.cycles - hypercall.cycles) / hypercall.cycles
        assert delta < 0.2


class TestPerThreadProtectionAblation:
    def test_process_wide_protection_loses_the_acceleration(self, benchmark):
        """The paper's core novelty claim, quantified: with only
        process-wide protection (what Grace/Dthreads-style designs get
        from stock mprotect), every touched page must be treated as
        shared, and the instrumentation savings evaporate."""
        per_thread = run_aikido_fasttrack(_program(), **FAST)
        per_process = run_once(benchmark, lambda: run_aikido_fasttrack(
            _program(), config=AikidoConfig(per_thread_protection=False),
            **FAST))
        pt_frac = (per_thread.instrumented_execs
                   / max(1, per_thread.memory_refs))
        pp_frac = (per_process.instrumented_execs
                   / max(1, per_process.memory_refs))
        benchmark.extra_info.update({
            "per_thread_instrumented_frac": round(pt_frac, 3),
            "per_process_instrumented_frac": round(pp_frac, 3),
            "per_thread_cycles": per_thread.cycles,
            "per_process_cycles": per_process.cycles,
        })
        print(f"\nAblation[per-thread protection]: instrumented fraction "
              f"{pt_frac:.0%} (per-thread) vs {pp_frac:.0%} (process-wide); "
              f"cycles {per_thread.cycles} vs {per_process.cycles}")
        assert pp_frac > 0.95           # everything gets instrumented
        assert pt_frac < 0.5            # the paper's design avoids most
        assert per_process.cycles > per_thread.cycles


class TestBlockSizeAblation:
    @pytest.mark.parametrize("block_size", (4, 8, 16))
    def test_block_size_sweep(self, benchmark, block_size):
        """§4.2: 8-byte blocks trade false positives for shadow size.
        Larger blocks mean fewer metadata entries but more false sharing
        inside a block."""
        result = run_once(benchmark, lambda: run_fasttrack(
            micro.racy_counter(2, 40)[0], block_size=block_size,
            seed=1, quantum=50))
        benchmark.extra_info.update({
            "block_size": block_size,
            "races": len(result.races),
        })
        assert result.races  # the real race is found at every granularity


class TestSamplingAblation:
    @pytest.mark.parametrize("hot_rate", (1, 10, 100))
    def test_sampling_rate_vs_detection(self, benchmark, hot_rate):
        """The §1 trade-off, quantified: sampling saves work but loses
        detection as the rate drops."""

        def run():
            detector = FastTrackDetector()
            sampler = SamplingDetector(detector, cold_threshold=2,
                                       hot_rate=hot_rate)
            # A hot racy loop: thread 2's conflicting accesses are hot.
            for i in range(300):
                sampler.on_access(1, 0x100, True, instr_uid=1)
                sampler.on_access(2, 0x100, True, instr_uid=2)
            return sampler

        sampler = run_once(benchmark, run)
        benchmark.extra_info.update({
            "hot_rate": hot_rate,
            "sampling_fraction": round(sampler.sampling_fraction, 3),
            "races": len(sampler.inner.races),
        })
        if hot_rate == 1:
            assert sampler.inner.races  # full rate: always found


class TestQuantumSensitivityAblation:
    @pytest.mark.parametrize("quantum", (50, 150, 600))
    def test_scheduling_granularity(self, benchmark, quantum):
        """Finer scheduling quanta mean more context switches — which
        only Aikido pays VM exits for (§3.2.3). The speedup should be
        mildly quantum-sensitive but never flip sign on a clear-win
        benchmark."""
        def program():
            return get_benchmark("blackscholes").program(threads=4,
                                                         scale=0.5)
        from repro.harness.runner import run_native
        native = run_native(program(), seed=1, quantum=quantum)
        ft = run_fasttrack(program(), seed=1, quantum=quantum)
        aik = run_once(benchmark, lambda: run_aikido_fasttrack(
            program(), seed=1, quantum=quantum))
        speedup = ft.slowdown_vs(native) / aik.slowdown_vs(native)
        benchmark.extra_info.update({"quantum": quantum,
                                     "speedup": round(speedup, 2)})
        print(f"\nAblation[quantum={quantum}]: speedup {speedup:.2f}x")
        assert speedup > 2.0


class TestEpochOptimizationAblation:
    def test_djit_vs_fasttrack(self, benchmark):
        """Why the paper built on FastTrack (§4.1): DJIT+'s full-vector
        operations vs epoch fast paths on the same event stream."""
        from repro.machine.cpu import CycleCounter

        system = AikidoSystem(_program(), GenericAnalysis(TraceRecorder()),
                              seed=1, quantum=150)
        system.run()
        trace = system.analysis.detector.trace

        def replay_cost(detector_cls):
            counter = CycleCounter()
            replay_into(trace, lambda: detector_cls(counter))
            return counter.total

        ft_cost = replay_cost(FastTrackDetector)
        djit_cost = run_once(benchmark,
                             lambda: replay_cost(DjitDetector))
        benchmark.extra_info.update({
            "fasttrack_cycles": ft_cost,
            "djit_cycles": djit_cost,
            "epoch_speedup": round(djit_cost / ft_cost, 2),
        })
        print(f"\nAblation[epochs]: DJIT+ {djit_cost} vs FastTrack "
              f"{ft_cost} cycles ({djit_cost/ft_cost:.2f}x)")
        assert djit_cost > ft_cost


class TestEraserAblation:
    def test_eraser_cheaper_but_imprecise(self, benchmark):
        """§7.3: LockSet costs less per access than vector clocks but
        reports false positives on fork/join-ordered code."""

        def run():
            eraser = EraserDetector()
            # fork/join-ordered accesses: no race is possible.
            eraser.on_access(1, 0x100, True)
            eraser.on_access(2, 0x100, True)
            return eraser

        eraser = run_once(benchmark, run)
        ft = FastTrackDetector()
        ft.on_write(1, 0x100)
        ft.on_fork(1, 2)
        ft.on_write(2, 0x100)
        benchmark.extra_info.update({
            "eraser_false_positives": len(eraser.reports),
            "fasttrack_reports": len(ft.races),
        })
        assert eraser.reports and not ft.races
