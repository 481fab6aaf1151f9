"""Run one workload in one of the paper's three configurations.

=====================  ====================================================
mode                   stack
=====================  ====================================================
``native``             guest kernel + CPU; no tool (the normalization
                       baseline of Figure 5)
``fasttrack``          DBR engine + Umbra + FastTrack instrumenting every
                       memory access (the paper's baseline tool)
``aikido-fasttrack``   AikidoVM + AikidoSD + mirror pages; FastTrack fed
                       only shared-page accesses (the paper's system)
=====================  ====================================================

Slowdowns are ratios of deterministic simulated cycle counts; see
DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional

from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import FullInstrumentationTool
from repro.core.config import AikidoConfig
from repro.core.system import AikidoSystem
from repro.dbr.engine import DBREngine
from repro.errors import HarnessError
from repro.guestos.kernel import Kernel
from repro.observability.attribution import attribute_cycles

MODES = ("native", "fasttrack", "aikido-fasttrack")

_DEFAULT_BUDGET = 200_000_000


class RunResult:
    """Everything one run produced."""

    def __init__(self, mode: str, cycles: int, run_stats: Dict[str, int],
                 cycle_breakdown: Dict[str, int],
                 races: Optional[List] = None,
                 aikido_stats: Optional[Dict[str, int]] = None,
                 hypervisor_stats: Optional[Dict[str, int]] = None,
                 detector_profile: Optional[Dict[str, int]] = None,
                 chaos: Optional[Dict] = None,
                 timeline: Optional[List[Dict]] = None,
                 superblocks: Optional[Dict] = None):
        self.mode = mode
        self.cycles = cycles
        self.run_stats = run_stats
        self.cycle_breakdown = cycle_breakdown
        self.races = races if races is not None else []
        self.aikido_stats = aikido_stats or {}
        self.hypervisor_stats = hypervisor_stats or {}
        self.detector_profile = detector_profile or {}
        #: Chaos/invariant payload (None when the run had chaos disabled):
        #: {"plan", "delivered", "recovered", "events", "invariant_checks",
        #:  "invariant_violations"}.
        self.chaos = chaos
        #: Metrics timeline samples ([] unless the run's config set
        #: ``metrics_cadence`` > 0).
        self.timeline = timeline if timeline is not None else []
        #: Superblock-tier payload (None unless the engine ran with
        #: ``superblocks``): {"superblocks_built", "superblocks_dropped",
        #: "side_exits", "entries", "completions", "instructions",
        #: "live"}. Host-side observability — deliberately NOT part of
        #: run_stats, which stays bit-identical across all three tiers.
        self.superblocks = superblocks

    @property
    def cycle_attribution(self) -> Dict[str, int]:
        """The run's cycles decomposed into app / discovery-fault /
        re-JIT / tool-hook / kernel-emulation buckets.

        Computed from the per-category breakdown, which the counter
        guarantees sums to ``cycles`` — passing the total re-asserts the
        exact-sum invariant on every access.
        """
        return attribute_cycles(self.cycle_breakdown, total=self.cycles)

    @property
    def memory_refs(self) -> int:
        """Dynamic memory-referencing instructions (Table 2 col 1)."""
        return self.run_stats.get("memory_refs", 0)

    @property
    def instrumented_execs(self) -> int:
        """Dynamic executions of instrumented instructions (col 2)."""
        return self.run_stats.get("instrumented_execs", 0)

    @property
    def shared_accesses(self) -> int:
        """Accesses that targeted shared pages (col 3)."""
        return self.aikido_stats.get("shared_accesses", 0)

    @property
    def segfaults(self) -> int:
        """Fake faults delivered by AikidoVM (col 4)."""
        return self.hypervisor_stats.get("segfaults_delivered", 0)

    @property
    def chaos_injections(self) -> int:
        """Faults the chaos injector actually delivered this run."""
        if self.chaos is None:
            return 0
        return sum(self.chaos.get("delivered", {}).values())

    @property
    def chaos_recovered(self) -> int:
        """Delivered injections the stack demonstrably absorbed."""
        if self.chaos is None:
            return 0
        return sum(self.chaos.get("recovered", {}).values())

    @property
    def invariant_checks(self) -> int:
        return 0 if self.chaos is None else self.chaos.get(
            "invariant_checks", 0)

    @property
    def rejit_flushes(self) -> int:
        """Code-cache flushes forced by instrumentation upgrades."""
        return self.aikido_stats.get("rejit_flushes", 0)

    def slowdown_vs(self, native: "RunResult") -> float:
        if native.cycles == 0:
            raise HarnessError("native run has zero cycles")
        return self.cycles / native.cycles

    def summary(self, native: Optional["RunResult"] = None) -> str:
        """Multi-line human summary; includes the slowdown when the
        matching native run is provided."""
        lines = [f"mode: {self.mode}",
                 f"simulated cycles: {self.cycles:,}"]
        if native is not None:
            lines.append(f"slowdown vs native: "
                         f"{self.slowdown_vs(native):.1f}x")
        instructions = self.run_stats.get("instructions", 0)
        lines.append(f"instructions: {instructions:,} "
                     f"({self.memory_refs:,} memory refs)")
        if self.mode == "aikido-fasttrack":
            frac = self.shared_accesses / max(1, self.memory_refs)
            lines.append(f"shared accesses: {self.shared_accesses:,} "
                         f"({frac:.1%}); faults: {self.segfaults}")
        if self.races:
            lines.append(f"races: {len(self.races)}")
            lines.extend("  " + r.describe() for r in self.races[:5])
        else:
            lines.append("races: none")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunResult {self.mode} cycles={self.cycles}>"


def _detector_profile(detector) -> Dict[str, int]:
    return {
        "reads": detector.reads,
        "writes": detector.writes,
        "same_epoch_hits": detector.same_epoch_hits,
        "read_shared_transitions": detector.read_shared_transitions,
        "sync_ops": detector.sync_ops,
        "race_count": len(detector.races),
    }


def _engine_run_stats(engine) -> Dict[str, int]:
    """Driver stats plus the engine's code-cache traffic counters.

    Every discovery re-JIT costs one flush and one rebuild, so DBR-backed
    modes surface builds/flushes/traces alongside the execution counts.
    """
    stats = engine.stats.as_dict()
    cache = engine.codecache
    stats["codecache_builds"] = cache.builds
    stats["codecache_flushes"] = cache.flushes
    stats["traces_built"] = cache.traces_built
    return stats


def run_native(program, *, seed: int = 0, quantum: int = 200,
               jitter: float = 0.1,
               max_instructions: int = _DEFAULT_BUDGET) -> RunResult:
    """Bare execution: the baseline every slowdown is normalized to."""
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    try:
        kernel.create_process(program)
        kernel.run(max_instructions=max_instructions)
        return RunResult("native", kernel.counter.total,
                         kernel.driver.stats.as_dict(),
                         kernel.counter.snapshot())
    finally:
        kernel.close()


def run_fasttrack(program, *, seed: int = 0, quantum: int = 200,
                  jitter: float = 0.1, block_size: int = 8,
                  compile_blocks: bool = True, superblocks: bool = True,
                  max_instructions: int = _DEFAULT_BUDGET) -> RunResult:
    """The conservative instrument-everything FastTrack baseline."""
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    try:
        kernel.create_process(program)
        engine = DBREngine(kernel, compile_blocks=compile_blocks,
                           superblocks=superblocks)
        detector = FastTrackDetector(kernel.counter, block_size)
        engine.attach_tool(
            FullInstrumentationTool(kernel, detector,
                                    block_size=block_size))
        kernel.run(max_instructions=max_instructions)
        return RunResult("fasttrack", kernel.counter.total,
                         _engine_run_stats(engine),
                         kernel.counter.snapshot(),
                         races=list(detector.races),
                         detector_profile=_detector_profile(detector),
                         superblocks=engine.superblock_snapshot())
    finally:
        kernel.close()


def build_aikido_system(program, *, seed: int = 0, quantum: int = 200,
                        jitter: float = 0.1,
                        config: Optional[AikidoConfig] = None
                        ) -> AikidoSystem:
    """Assemble (but do not run) the aikido-fasttrack stack.

    The system exposes the live tracer/metrics recorder, which the trace
    CLI artifact needs after the run — :func:`run_aikido_fasttrack` only
    hands back the distilled :class:`RunResult`.
    """
    config = config if config is not None else AikidoConfig()
    return AikidoSystem(
        program,
        lambda kernel: AikidoFastTrack(kernel, block_size=config.block_size),
        config, seed=seed, quantum=quantum, jitter=jitter)


def system_result(system: AikidoSystem) -> RunResult:
    """Distill a finished :class:`AikidoSystem` run into a RunResult."""
    analysis = system.analysis
    chaos_payload = None
    if system.chaos is not None or system.monitor is not None:
        chaos_payload = system.chaos.as_dict() if system.chaos else {}
        if system.monitor is not None:
            chaos_payload.update(system.monitor.snapshot())
    return RunResult("aikido-fasttrack", system.cycles,
                     _engine_run_stats(system.engine),
                     system.kernel.counter.snapshot(),
                     races=list(analysis.races),
                     aikido_stats=system.stats.as_dict(),
                     hypervisor_stats=system.hypervisor_stats.as_dict(),
                     detector_profile=_detector_profile(analysis.detector),
                     chaos=chaos_payload,
                     timeline=system.timeline(),
                     superblocks=system.engine.superblock_snapshot())


def run_aikido_fasttrack(program, *, seed: int = 0, quantum: int = 200,
                         jitter: float = 0.1,
                         config: Optional[AikidoConfig] = None,
                         max_instructions: int = _DEFAULT_BUDGET
                         ) -> RunResult:
    """The paper's system: FastTrack on shared-page accesses only."""
    system = build_aikido_system(program, seed=seed, quantum=quantum,
                                 jitter=jitter, config=config)
    try:
        system.run(max_instructions=max_instructions)
        return system_result(system)
    finally:
        system.kernel.close()


_MODE_RUNNERS = {
    "native": run_native,
    "fasttrack": run_fasttrack,
    "aikido-fasttrack": run_aikido_fasttrack,
}

#: Keyword arguments each mode's runner actually accepts.
_MODE_KWARGS = {
    mode: frozenset(
        p.name for p in inspect.signature(fn).parameters.values()
        if p.kind == inspect.Parameter.KEYWORD_ONLY)
    for mode, fn in _MODE_RUNNERS.items()
}

#: The shared kwarg set: anything at least one mode understands.
SHARED_KWARGS = frozenset().union(*_MODE_KWARGS.values())


def run_mode(program, mode: str, **kwargs) -> RunResult:
    """Dispatch by mode name.

    Accepts the union of all three runners' keyword arguments and strips
    the ones the selected mode does not take (``config`` for native and
    fasttrack, ``block_size`` for native), so suite drivers can pass one
    kwarg set to every mode. For ``aikido-fasttrack``, a bare
    ``block_size``, ``compile_blocks`` or ``superblocks`` is folded into
    the :class:`AikidoConfig`.
    """
    if mode not in _MODE_RUNNERS:
        raise HarnessError(f"unknown mode {mode!r}; expected one of {MODES}")
    unknown = set(kwargs) - SHARED_KWARGS
    if unknown:
        raise HarnessError(
            f"unknown keyword argument(s) {sorted(unknown)} for run_mode; "
            f"accepted: {sorted(SHARED_KWARGS)}")
    if mode == "aikido-fasttrack":
        bare = {field: kwargs.pop(field)
                for field in ("block_size", "compile_blocks",
                              "superblocks")
                if field in kwargs}
        if bare:
            config = kwargs.get("config")
            if config is None:
                kwargs["config"] = AikidoConfig(**bare)
            else:
                for field, value in bare.items():
                    if getattr(config, field) != value:
                        raise HarnessError(
                            f"conflicting {field}={value} and "
                            f"config.{field}={getattr(config, field)}")
    accepted = _MODE_KWARGS[mode]
    return _MODE_RUNNERS[mode](
        program, **{k: v for k, v in kwargs.items() if k in accepted})
