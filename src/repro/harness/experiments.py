"""Drivers for every table and figure of the paper's evaluation (§5).

* :func:`run_suite` executes all ten PARSEC-like benchmarks in all three
  modes once and caches the results; Figure 5, Figure 6 and Table 2 are
  different projections of the same suite run, exactly as in the paper
  (one set of measured executions, several views).
* :func:`table1` runs fluidanimate and vips at 2/4/8 threads.
* :func:`detected_races` reproduces §5.3: the two tools report the same
  races (the canneal Mersenne-Twister race included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.errors import HarnessError
from repro.harness.parallel import BatchEntry, Job, JobFailure, ParallelRunner
from repro.harness.resultcache import ResultCache
from repro.harness.runner import (
    MODES,
    RunResult,
    run_aikido_fasttrack,
    run_fasttrack,
    run_native,
)
from repro.workloads.base import WorkloadSpec
from repro.workloads.parsec import PARSEC_BENCHMARKS, get_benchmark

#: Default experiment parameters (8 threads = the paper's configuration).
DEFAULT_THREADS = 8
DEFAULT_SCALE = 1.0
DEFAULT_SEED = 1
DEFAULT_QUANTUM = 150


@dataclass
class BenchmarkRuns:
    """One benchmark's three runs."""

    spec: WorkloadSpec
    native: RunResult
    fasttrack: RunResult
    aikido: RunResult

    @property
    def ft_slowdown(self) -> float:
        return self.fasttrack.slowdown_vs(self.native)

    @property
    def aikido_slowdown(self) -> float:
        return self.aikido.slowdown_vs(self.native)

    @property
    def speedup(self) -> float:
        """FastTrack time / Aikido-FastTrack time (>1 means Aikido wins)."""
        return self.ft_slowdown / self.aikido_slowdown

    @property
    def shared_fraction(self) -> float:
        """Fraction of memory accesses that target shared pages (Fig. 6)."""
        return self.aikido.shared_accesses / max(1, self.aikido.memory_refs)

    @property
    def instrumented_fraction(self) -> float:
        return (self.aikido.instrumented_execs
                / max(1, self.aikido.memory_refs))


@dataclass
class SuiteResult:
    """All benchmarks, all modes, one configuration."""

    threads: int
    scale: float
    seed: int
    runs: Dict[str, BenchmarkRuns] = field(default_factory=dict)

    def geomean_speedup(self) -> float:
        values = [r.speedup for r in self.runs.values()]
        return _geomean(values, "geomean speedup")

    def geomean_instrumentation_reduction(self) -> float:
        """Table 2's headline: geomean of col1/col2 across benchmarks."""
        values = []
        for r in self.runs.values():
            values.append(r.aikido.memory_refs
                          / max(1, r.aikido.instrumented_execs))
        return _geomean(values, "geomean instrumentation reduction")


def _geomean(values: Sequence[float], what: str) -> float:
    if not values:
        raise HarnessError(
            f"cannot compute {what}: the suite is empty (did a "
            f"--benchmarks filter match nothing?)")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _mode_jobs(spec: WorkloadSpec, *, threads: int, scale: float,
               seed: int, quantum: int,
               config: Optional[AikidoConfig] = None) -> List[Job]:
    """The three-mode job triple for one benchmark (MODES order).

    ``config`` only applies to the aikido-fasttrack run; attaching it to
    the native/fasttrack jobs would needlessly split their cache keys
    across configurations that cannot affect them.
    """
    return [Job(spec.name, mode, threads=threads, scale=scale,
                seed=seed, quantum=quantum,
                config=config if mode == "aikido-fasttrack" else None)
            for mode in MODES]


def run_benchmark(spec: WorkloadSpec, *, threads: int = DEFAULT_THREADS,
                  scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                  quantum: int = DEFAULT_QUANTUM,
                  config: Optional[AikidoConfig] = None,
                  runner: Optional[ParallelRunner] = None) -> BenchmarkRuns:
    """Run one benchmark in all three modes.

    Without a ``runner`` the three runs execute inline (works for any
    spec, registered or not). With one, the triple goes through its
    cache/pool — the spec must then be a registered benchmark, since
    worker processes rebuild the program by name. ``config`` shapes the
    aikido-fasttrack run only (see :func:`_mode_jobs`).
    """
    if runner is None:
        kwargs = dict(seed=seed, quantum=quantum)

        def program():
            return spec.program(threads=threads, scale=scale)

        return BenchmarkRuns(
            spec=spec,
            native=run_native(program(), **kwargs),
            fasttrack=run_fasttrack(program(), **kwargs),
            aikido=run_aikido_fasttrack(program(), config=config,
                                        **kwargs),
        )
    native, fasttrack, aikido = runner.run(_mode_jobs(
        spec, threads=threads, scale=scale, seed=seed, quantum=quantum,
        config=config))
    return BenchmarkRuns(spec=spec, native=native, fasttrack=fasttrack,
                         aikido=aikido)


def run_suite(*, threads: int = DEFAULT_THREADS, scale: float = DEFAULT_SCALE,
              seed: int = DEFAULT_SEED, quantum: int = DEFAULT_QUANTUM,
              benchmarks: Optional[List[str]] = None, jobs: int = 1,
              cache: Optional[ResultCache] = None,
              config: Optional[AikidoConfig] = None,
              runner: Optional[ParallelRunner] = None) -> SuiteResult:
    """Run the full PARSEC suite (or a named subset) in all modes.

    All ``3 × len(benchmarks)`` runs are submitted as one batch, so
    ``jobs=N`` parallelizes across benchmarks and modes alike;
    ``jobs=1`` with no cache reproduces the historical serial behavior
    exactly. Pass ``cache`` to reuse archived runs, or a pre-built
    ``runner`` (which overrides ``jobs``/``cache``) to share counters
    across calls. ``config`` shapes the aikido-fasttrack runs only
    (e.g. ``AikidoConfig(static_elide=True)`` for ``--static-elide``).
    """
    suite = SuiteResult(threads=threads, scale=scale, seed=seed)
    specs = (PARSEC_BENCHMARKS if benchmarks is None
             else [get_benchmark(n) for n in benchmarks])
    if runner is None:
        runner = ParallelRunner(jobs=jobs, cache=cache)
    batch: List[Job] = []
    for spec in specs:
        batch.extend(_mode_jobs(spec, threads=threads, scale=scale,
                                seed=seed, quantum=quantum, config=config))
    results = runner.run(batch)
    for index, spec in enumerate(specs):
        native, fasttrack, aikido = results[3 * index:3 * index + 3]
        suite.runs[spec.name] = BenchmarkRuns(
            spec=spec, native=native, fasttrack=fasttrack, aikido=aikido)
    return suite


# ---------------------------------------------------------------------
# Figure 5: slowdown vs native, FastTrack vs Aikido-FastTrack
# ---------------------------------------------------------------------
def figure5(suite: SuiteResult) -> List[Tuple[str, float, float]]:
    """Rows of (benchmark, ft_slowdown, aikido_slowdown) + geomean row."""
    rows = [(name, runs.ft_slowdown, runs.aikido_slowdown)
            for name, runs in suite.runs.items()]
    ft_geo = _geomean([r[1] for r in rows], "Figure 5 FastTrack geomean")
    aik_geo = _geomean([r[2] for r in rows], "Figure 5 Aikido geomean")
    rows.append(("geomean", ft_geo, aik_geo))
    return rows


# ---------------------------------------------------------------------
# Figure 6: percentage of accesses targeting shared pages
# ---------------------------------------------------------------------
def figure6(suite: SuiteResult) -> List[Tuple[str, float]]:
    return [(name, runs.shared_fraction)
            for name, runs in suite.runs.items()]


# ---------------------------------------------------------------------
# Table 1: fluidanimate and vips at 2/4/8 threads
# ---------------------------------------------------------------------
TABLE1_BENCHMARKS = ("fluidanimate", "vips")
TABLE1_THREADS = (2, 4, 8)


def table1(*, scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
           quantum: int = DEFAULT_QUANTUM, jobs: int = 1,
           cache: Optional[ResultCache] = None,
           runner: Optional[ParallelRunner] = None
           ) -> Dict[str, Dict[int, Tuple[float, float]]]:
    """benchmark -> {threads: (ft_slowdown, aikido_slowdown)}.

    All ``2 benchmarks × 3 thread counts × 3 modes = 18`` runs are
    submitted as one batch (see :func:`run_suite` for the
    ``jobs``/``cache``/``runner`` semantics).
    """
    if runner is None:
        runner = ParallelRunner(jobs=jobs, cache=cache)
    cells = [(name, threads) for name in TABLE1_BENCHMARKS
             for threads in TABLE1_THREADS]
    batch: List[Job] = []
    for name, threads in cells:
        batch.extend(_mode_jobs(get_benchmark(name), threads=threads,
                                scale=scale, seed=seed, quantum=quantum))
    results = runner.run(batch)
    out: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for index, (name, threads) in enumerate(cells):
        native, fasttrack, aikido = results[3 * index:3 * index + 3]
        out.setdefault(name, {})[threads] = (
            fasttrack.slowdown_vs(native), aikido.slowdown_vs(native))
    return out


# ---------------------------------------------------------------------
# Table 2: instrumentation statistics
# ---------------------------------------------------------------------
@dataclass
class Table2Row:
    benchmark: str
    memory_refs: int          # col 1: instrs referencing memory (dynamic)
    instrumented_execs: int   # col 2: executions of instrumented instrs
    shared_accesses: int      # col 3: accesses that hit shared pages
    segfaults: int            # col 4: faults delivered by AikidoVM


def table2(suite: SuiteResult) -> List[Table2Row]:
    return [Table2Row(name, runs.aikido.memory_refs,
                      runs.aikido.instrumented_execs,
                      runs.aikido.shared_accesses,
                      runs.aikido.segfaults)
            for name, runs in suite.runs.items()]


# ---------------------------------------------------------------------
# Static-elision ablation: shared-check elision with parity enforcement
# ---------------------------------------------------------------------
@dataclass
class ElisionComparison:
    """One benchmark's aikido-fasttrack run, plain vs ``static_elide``.

    Elision is bit-identical by contract: every simulated statistic of
    the elided run must equal the baseline's (the fast paths replay the
    exact charges of the steps they fuse, and the dynamic tripwire
    retires any elided access whose page turns SHARED). The elision
    payload (checks elided, fast-path instructions, retired uids) is
    host-side observability and the only thing allowed to differ.
    """

    benchmark: str
    baseline: RunResult
    elided: RunResult

    @property
    def parity(self) -> bool:
        return (self.baseline.cycles == self.elided.cycles
                and self.baseline.run_stats == self.elided.run_stats
                and self.baseline.aikido_stats == self.elided.aikido_stats
                and [r.describe() for r in self.baseline.races]
                == [r.describe() for r in self.elided.races])

    @property
    def elision(self) -> Dict:
        return self.elided.elision or {}

    @property
    def checks_elided(self) -> int:
        return self.elision.get("checks_elided", 0)

    @property
    def fast_path_instructions(self) -> int:
        return self.elision.get("fast_path_instructions", 0)

    @property
    def retired_uids(self) -> int:
        return len(self.elision.get("retired_uids", ()))

    @property
    def plan(self) -> Dict:
        return self.elision.get("plan", {})


def elision_ablation(*, threads: int = DEFAULT_THREADS,
                     scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                     quantum: int = DEFAULT_QUANTUM,
                     benchmarks: Optional[List[str]] = None, jobs: int = 1,
                     cache: Optional[ResultCache] = None,
                     runner: Optional[ParallelRunner] = None
                     ) -> List[ElisionComparison]:
    """Run every benchmark twice in aikido-fasttrack mode: with and
    without ``static_elide``, same seed/quantum, one batch. Raises when
    any pair breaks bit-identity."""
    specs = (PARSEC_BENCHMARKS if benchmarks is None
             else [get_benchmark(n) for n in benchmarks])
    if runner is None:
        runner = ParallelRunner(jobs=jobs, cache=cache)
    eliding = AikidoConfig(static_elide=True)
    batch: List[Job] = []
    for spec in specs:
        for config in (None, eliding):
            batch.append(Job(spec.name, "aikido-fasttrack",
                             threads=threads, scale=scale, seed=seed,
                             quantum=quantum, config=config))
    results = runner.run(batch)
    out: List[ElisionComparison] = []
    for index, spec in enumerate(specs):
        baseline, elided = results[2 * index:2 * index + 2]
        comparison = ElisionComparison(spec.name, baseline, elided)
        if not comparison.parity:
            raise HarnessError(
                f"{spec.name}: static_elide changed simulated results "
                f"(cycles {baseline.cycles} vs {elided.cycles}) — "
                f"elision must be bit-identical")
        out.append(comparison)
    return out


# ---------------------------------------------------------------------
# Chaos sweep: survivability under deterministic fault injection
# ---------------------------------------------------------------------
@dataclass
class ChaosCell:
    """One (benchmark, plan, chaos seed) run next to its clean baseline.

    ``run`` is either a :class:`RunResult` (the stack absorbed every
    injection) or a :class:`JobFailure` (it failed — *structurally*: an
    invariant violation or simulated error record, never an unhandled
    crash, because the hardened runner converts everything).
    """

    benchmark: str
    plan: str
    chaos_seed: int
    schedule_neutral: bool
    baseline: RunResult
    run: BatchEntry

    @property
    def survived(self) -> bool:
        return isinstance(self.run, RunResult)

    @property
    def injected(self) -> int:
        return self.run.chaos_injections if self.survived else 0

    @property
    def recovered(self) -> int:
        return self.run.chaos_recovered if self.survived else 0

    @property
    def invariant_checks(self) -> int:
        return self.run.invariant_checks if self.survived else 0

    @property
    def races_match(self) -> bool:
        """Chaos run reported bit-identical races to the clean run.

        The guarantee only holds for schedule-neutral plans; hostile
        (preemption) cells report the comparison for information.
        """
        if not self.survived:
            return False
        return (sorted(r.describe() for r in self.run.races)
                == sorted(r.describe() for r in self.baseline.races))

    def to_dict(self) -> Dict:
        cell = {
            "benchmark": self.benchmark,
            "plan": self.plan,
            "chaos_seed": self.chaos_seed,
            "schedule_neutral": self.schedule_neutral,
            "survived": self.survived,
            "injected": self.injected,
            "recovered": self.recovered,
            "invariant_checks": self.invariant_checks,
            "races_match": self.races_match,
            "baseline_races": len(self.baseline.races),
        }
        if isinstance(self.run, JobFailure):
            cell["failure"] = {
                "kind": self.run.kind,
                "error_type": self.run.error_type,
                "message": self.run.message,
                "invariant": self.run.invariant,
            }
        else:
            cell["races"] = len(self.run.races)
        return cell


@dataclass
class ChaosSweep:
    """Every cell of one chaos sweep plus its parameters."""

    threads: int
    scale: float
    seed: int
    intensity: float
    cells: List[ChaosCell] = field(default_factory=list)

    @property
    def delivered(self) -> int:
        return sum(c.injected for c in self.cells)

    @property
    def recovered(self) -> int:
        return sum(c.recovered for c in self.cells)

    def all_recovery_cells_clean(self) -> bool:
        """Every schedule-neutral cell survived with identical races."""
        return all(c.survived and c.races_match
                   for c in self.cells if c.schedule_neutral)

    def to_dict(self) -> Dict:
        return {
            "threads": self.threads,
            "scale": self.scale,
            "seed": self.seed,
            "intensity": self.intensity,
            "delivered": self.delivered,
            "recovered": self.recovered,
            "cells": [c.to_dict() for c in self.cells],
        }


DEFAULT_CHAOS_SEEDS = (11, 23, 47)


def chaos_sweep(*, threads: int = DEFAULT_THREADS,
                scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                quantum: int = DEFAULT_QUANTUM,
                benchmarks: Optional[List[str]] = None,
                chaos_seeds: Sequence[int] = DEFAULT_CHAOS_SEEDS,
                intensity: float = 0.05, include_hostile: bool = False,
                jobs: int = 1, cache: Optional[ResultCache] = None,
                runner: Optional[ParallelRunner] = None) -> ChaosSweep:
    """Survivability sweep: aikido-fasttrack under fault injection.

    Per benchmark: one chaos-free baseline, then one recovery-plan run
    (every recoverable schedule-neutral injection point active, with the
    invariant monitor on) per chaos seed — and, with ``include_hostile``,
    one adversarial-preemption run per benchmark. The batch runs
    non-strict: a failed cell becomes a failure record in its row, and
    the rest of the sweep completes.
    """
    specs = (PARSEC_BENCHMARKS if benchmarks is None
             else [get_benchmark(n) for n in benchmarks])
    if runner is None:
        runner = ParallelRunner(jobs=jobs, cache=cache)
    plans: List[Tuple[str, int, ChaosPlan]] = []
    for chaos_seed in chaos_seeds:
        plans.append(("recovery", chaos_seed,
                      ChaosPlan.recovery(seed=chaos_seed,
                                         intensity=intensity)))
    if include_hostile:
        plans.append(("hostile", chaos_seeds[0],
                      ChaosPlan.hostile(seed=chaos_seeds[0],
                                        intensity=intensity)))

    batch: List[Job] = []
    for spec in specs:
        batch.append(Job(spec.name, "aikido-fasttrack", threads=threads,
                         scale=scale, seed=seed, quantum=quantum))
        for _, _, plan in plans:
            batch.append(Job(spec.name, "aikido-fasttrack",
                             threads=threads, scale=scale, seed=seed,
                             quantum=quantum,
                             config=AikidoConfig(chaos=plan,
                                                 check_invariants=True)))
    results = runner.run(batch, strict=False)

    sweep = ChaosSweep(threads=threads, scale=scale, seed=seed,
                       intensity=intensity)
    stride = 1 + len(plans)
    for index, spec in enumerate(specs):
        row = results[stride * index:stride * (index + 1)]
        baseline = row[0]
        if isinstance(baseline, JobFailure):
            raise HarnessError(
                f"{spec.name}: chaos-free baseline failed "
                f"({baseline.describe()}) — the sweep cannot judge "
                f"survivability without it")
        for (plan_name, chaos_seed, plan), entry in zip(plans, row[1:]):
            sweep.cells.append(ChaosCell(
                benchmark=spec.name, plan=plan_name,
                chaos_seed=chaos_seed,
                schedule_neutral=plan.schedule_neutral,
                baseline=baseline, run=entry))
    return sweep


# ---------------------------------------------------------------------
# §5.3: detected races
# ---------------------------------------------------------------------
def detected_races(suite: SuiteResult) -> Dict[str, Dict[str, int]]:
    """benchmark -> {'fasttrack': n_races, 'aikido': n_races}."""
    return {name: {"fasttrack": len(runs.fasttrack.races),
                   "aikido": len(runs.aikido.races)}
            for name, runs in suite.runs.items()}
