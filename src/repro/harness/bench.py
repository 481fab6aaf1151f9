"""Wall-clock benchmark suite for the DBR execution tiers.

Everything else in the harness measures *simulated cycles* — a
deterministic quantity that is bit-identical between the interpreter and
block-compiled tiers by design. This module measures the one thing that
is allowed to differ: **host wall-clock speed**. It runs each bundled
workload under both tiers and reports seconds, instructions/second and
the compiled-tier speedup, in a stable JSON document
(``BENCH_simulator.json``) that the regression gate
(``scripts/bench_gate.py``) diffs against the committed trajectory.

Five sections:

* ``workloads`` — the headline: each PARSEC-style workload on the bare
  DBR engine (no tool attached), all three tiers — interpreter,
  block-compiled, and superblock (compiled blocks chained into
  trace-scheduled superblocks). This isolates the execution engine
  itself, where the block compiler and the superblock builder do their
  work.
* ``macro`` — the full aikido-fasttrack stack on a few workloads, where
  hook dispatch and analysis time dilute the engine's share.
* ``micro`` — synthetic kernels (pure ALU spin, lock traffic, a
  producer/consumer queue) that bound the best and worst case.
* ``elision`` — the full stack on the compiled tier, plain vs
  ``static_elide``: the wall-clock value of fusing statically
  race-free shared-checks into straight-line fast paths, measured at
  enforced bit-identity of every simulated statistic.
* ``replay`` — the record-once/analyze-everywhere economics: record one
  full-instrumentation run to an event log, replay it through all four
  registered analyses, and compare against running each analysis live.
  Measured at enforced verdict bit-identity (every replayed verdict
  must equal its live counterpart); the headline is the amortization
  factor ``live_total / (record + replay)``.

Each measurement is best-of-``repeats`` (minimum seconds), the standard
way to strip scheduler noise from a throughput number. The suite also
cross-checks that both tiers retired the *same instruction count* per
workload — a cheap standing parity assertion in every bench run.
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Callable, Dict, List, Optional

from repro.core.config import AikidoConfig
from repro.dbr.engine import DBREngine
from repro.errors import HarnessError
from repro.guestos.kernel import Kernel
from repro.harness.runner import run_aikido_fasttrack
from repro.staticanalysis.analysiscache import analysis_for
from repro.workloads import micro
from repro.workloads.parsec import benchmark_names, build_benchmark

#: Bump when the JSON layout changes incompatibly.
#: 2: three execution tiers per row (interp/compiled/superblock),
#:    superblock speedup columns + summary geomeans, and an optional
#:    ``history`` list carrying prior documents' summaries forward.
BENCH_SCHEMA_VERSION = 2

#: Older documents the loader/gate still accept (read-compatible).
SUPPORTED_BENCH_VERSIONS = (1, BENCH_SCHEMA_VERSION)

#: The execution tiers one bench row measures, with the engine knobs
#: each maps to: ``(compile_blocks, superblocks)``.
TIER_FLAGS = (
    ("interp", (False, False)),
    ("compiled", (True, False)),
    ("superblock", (True, True)),
)

#: Workloads the full-stack macro section runs (engine share is diluted
#: by analysis work there, so a few representatives suffice).
MACRO_BENCHMARKS = ("freqmine", "canneal", "streamcluster")

#: Workloads the record/replay fan-out section measures, and the
#: analyses each recorded log is replayed through.
REPLAY_BENCHMARKS = ("canneal", "streamcluster")
REPLAY_ANALYSES = ("fasttrack", "djit", "eraser", "memtag")

DEFAULT_REPEATS = 3
DEFAULT_THREADS = 4
#: Longer runs than the old default (1.0): superblock-vs-compiled
#: deltas are tens of percent on runs of tens of milliseconds, and the
#: best-of only punches through host noise when a run lasts long enough
#: to amortize scheduler wakeups.
DEFAULT_SCALE = 4.0
DEFAULT_SEED = 3
DEFAULT_QUANTUM = 200
DEFAULT_JITTER = 0.1


def _geomean(values: List[float]) -> float:
    if not values:
        raise HarnessError("geomean of an empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _micro_programs() -> Dict[str, Callable]:
    return {
        "alu_spin": lambda: micro.private_work(4, 400)[0],
        "locked_counter": lambda: micro.locked_counter(4, 300)[0],
        "producer_consumer": lambda: micro.producer_consumer(
            items=200, consumers=2)[0],
    }


def _bare_dbr_run(program_factory, *, compile_blocks: bool,
                  superblocks: bool, seed: int, quantum: int,
                  jitter: float) -> Dict[str, float]:
    """One bare-engine run (no tool): seconds + retired instructions."""
    program = program_factory()
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    kernel.create_process(program)
    engine = DBREngine(kernel, compile_blocks=compile_blocks,
                       superblocks=superblocks)
    start = time.perf_counter()
    kernel.run()
    seconds = time.perf_counter() - start
    return {"seconds": seconds,
            "instructions": engine.stats.instructions,
            "cycles": kernel.counter.total}


def _aikido_run(program_factory, *, compile_blocks: bool,
                superblocks: bool, seed: int, quantum: int,
                jitter: float) -> Dict[str, float]:
    """One full aikido-fasttrack stack run."""
    config = AikidoConfig(compile_blocks=compile_blocks,
                          superblocks=superblocks)
    start = time.perf_counter()
    result = run_aikido_fasttrack(program_factory(), seed=seed,
                                  quantum=quantum, jitter=jitter,
                                  config=config)
    seconds = time.perf_counter() - start
    return {"seconds": seconds,
            "instructions": result.run_stats["instructions"],
            "cycles": result.cycles}


def _elide_run(program_factory, *, static_elide: bool, seed: int,
               quantum: int, jitter: float) -> Dict[str, float]:
    """One compiled-tier full-stack run, with or without elision.

    The static analysis is compile-time work amortized across runs
    (it is memoized per program fingerprint), so the elided arm warms
    the analysis cache *outside* the timed region — the section
    measures the runtime value of the elided checks, not the one-off
    cost of computing the plan.
    """
    config = AikidoConfig(compile_blocks=True, static_elide=static_elide)
    program = program_factory()
    if static_elide:
        analysis_for(program).elision
    start = time.perf_counter()
    result = run_aikido_fasttrack(program, seed=seed,
                                  quantum=quantum, jitter=jitter,
                                  config=config)
    seconds = time.perf_counter() - start
    elision = result.elision or {}
    return {"seconds": seconds,
            "instructions": result.run_stats["instructions"],
            "cycles": result.cycles,
            "checks_elided": elision.get("checks_elided", 0)}


def _best_of(run: Callable[[], Dict], repeats: int) -> Dict:
    """Fastest of ``repeats`` samples; every sample must retire the same
    instruction count and simulated cycles as the first one."""
    first = best = None
    for _ in range(max(1, repeats)):
        sample = run()
        if first is None:
            first = sample
        for what in ("instructions", "cycles"):
            if sample[what] != first[what]:
                raise HarnessError(
                    f"non-deterministic {what} across repeats "
                    f"({sample[what]} vs {first[what]})")
        if best is None or sample["seconds"] < best["seconds"]:
            best = sample
    return best


def _tier_row(name: str, run_tier: Callable[[bool, bool], Dict],
              repeats: int) -> Dict:
    """Measure one subject under all three tiers, derive speedups.

    ``run_tier`` takes ``(compile_blocks, superblocks)``. Each tier
    must retire the same instruction count and the same simulated
    cycle total — a standing parity assertion in every bench run.
    """
    samples = {}
    for tier, (cb, sb) in TIER_FLAGS:
        samples[tier] = _best_of(
            lambda cb=cb, sb=sb: run_tier(cb, sb), repeats)
    interp = samples["interp"]
    for tier in ("compiled", "superblock"):
        for what in ("instructions", "cycles"):
            if samples[tier][what] != interp[what]:
                raise HarnessError(
                    f"{name}: tiers disagree on {what} "
                    f"(interp={interp[what]}, "
                    f"{tier}={samples[tier][what]}) — parity violation")
    instructions = interp["instructions"]

    def rate(sample):
        return instructions / sample["seconds"] if sample["seconds"] else 0.0

    def ratio(slow, fast):
        return (samples[slow]["seconds"] / samples[fast]["seconds"]
                if samples[fast]["seconds"] else 0.0)

    row = {"name": name, "instructions": instructions}
    for tier, _ in TIER_FLAGS:
        row[tier] = {"seconds": samples[tier]["seconds"],
                     "instrs_per_sec": rate(samples[tier])}
    row["speedup"] = ratio("interp", "compiled")
    row["superblock_speedup"] = ratio("interp", "superblock")
    row["superblock_over_compiled"] = ratio("compiled", "superblock")
    return row


def _elision_row(name: str, run_elide: Callable[[bool], Dict],
                 repeats: int) -> Dict:
    """Measure plain vs static_elide and derive the elision speedup."""
    baseline = _best_of(lambda: run_elide(False), repeats)
    elided = _best_of(lambda: run_elide(True), repeats)
    if baseline["instructions"] != elided["instructions"]:
        raise HarnessError(
            f"{name}: static_elide changed retired instructions "
            f"(plain={baseline['instructions']}, "
            f"elided={elided['instructions']}) — parity violation")
    if baseline["cycles"] != elided["cycles"]:
        raise HarnessError(
            f"{name}: static_elide changed simulated cycles "
            f"(plain={baseline['cycles']}, "
            f"elided={elided['cycles']}) — parity violation")
    instructions = baseline["instructions"]

    def rate(sample):
        return instructions / sample["seconds"] if sample["seconds"] else 0.0

    return {
        "name": name,
        "instructions": instructions,
        "checks_elided": elided["checks_elided"],
        "baseline": {"seconds": baseline["seconds"],
                     "instrs_per_sec": rate(baseline)},
        "elided": {"seconds": elided["seconds"],
                   "instrs_per_sec": rate(elided)},
        "speedup": (baseline["seconds"] / elided["seconds"]
                    if elided["seconds"] else 0.0),
    }


def _replay_row(name: str, factory: Callable, *, seed: int, quantum: int,
                jitter: float, repeats: int) -> Dict:
    """Record once, replay through every analysis, diff against live.

    Each arm is best-of-``repeats`` seconds. Verdict bit-identity
    between the replayed and live runs is *enforced* — a mismatch is a
    fidelity regression, not a timing artifact, so it raises.
    """
    import os
    import tempfile

    from repro.eventlog.replay import (
        live_run_verdict,
        record_run,
        replay_log,
    )

    tmpdir = tempfile.mkdtemp(prefix="aikido-bench-replay-")
    path = os.path.join(tmpdir, f"{name}.aiklog")
    try:
        record_seconds = None
        events = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            stats = record_run(factory(), path, seed=seed,
                               quantum=quantum, jitter=jitter)
            seconds = time.perf_counter() - start
            if events is not None and stats["events"] != events:
                raise HarnessError(
                    f"replay bench {name}: non-deterministic recording "
                    f"({stats['events']} vs {events} events)")
            events = stats["events"]
            if record_seconds is None or seconds < record_seconds:
                record_seconds = seconds

        live_seconds = 0.0
        live_verdicts = {}
        for analysis in REPLAY_ANALYSES:
            best = None
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                verdict = live_run_verdict(factory(), analysis,
                                           seed=seed, quantum=quantum,
                                           jitter=jitter)
                seconds = time.perf_counter() - start
                if best is None or seconds < best:
                    best = seconds
                live_verdicts[analysis] = verdict
            live_seconds += best

        replay_seconds = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            replayed = {analysis: replay_log(path, analysis)[0]
                        for analysis in REPLAY_ANALYSES}
            seconds = time.perf_counter() - start
            if replay_seconds is None or seconds < replay_seconds:
                replay_seconds = seconds
        for analysis in REPLAY_ANALYSES:
            if replayed[analysis] != live_verdicts[analysis]:
                raise HarnessError(
                    f"replay bench {name}: replayed {analysis} verdict "
                    f"differs from the live run — fidelity regression")
    finally:
        if os.path.exists(path):
            os.unlink(path)
        os.rmdir(tmpdir)

    fanout_seconds = record_seconds + replay_seconds
    return {
        "name": name,
        "events": events,
        "analyses": list(REPLAY_ANALYSES),
        "record": {"seconds": record_seconds},
        "live": {"seconds": live_seconds},
        "replay": {"seconds": replay_seconds},
        "amortization": (live_seconds / fanout_seconds
                         if fanout_seconds else 0.0),
    }


def bench_suite(*, threads: int = DEFAULT_THREADS,
                scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                quantum: int = DEFAULT_QUANTUM,
                jitter: float = DEFAULT_JITTER,
                repeats: int = DEFAULT_REPEATS, quick: bool = False,
                benchmarks: Optional[List[str]] = None,
                progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the wall-clock suite; returns the BENCH_simulator document.

    ``quick`` shrinks everything (small scale, one repeat, a workload
    subset, no macro section) — for smoke tests that only need a valid
    document, not a stable measurement.
    """
    names = list(benchmarks) if benchmarks else list(benchmark_names())
    if quick:
        scale = min(scale, 0.1)
        repeats = 1
        if benchmarks is None:
            names = names[:3]

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    workloads = []
    for name in names:
        note(f"bench: {name} (bare DBR, both tiers)")
        factory = (lambda name=name:
                   build_benchmark(name, threads=threads, scale=scale))
        workloads.append(_tier_row(
            name,
            lambda cb, sb, factory=factory: _bare_dbr_run(
                factory, compile_blocks=cb, superblocks=sb, seed=seed,
                quantum=quantum, jitter=jitter),
            repeats))

    macro = []
    if not quick:
        for name in MACRO_BENCHMARKS:
            if name not in names:
                continue
            note(f"bench: {name} (full aikido-fasttrack stack)")
            factory = (lambda name=name:
                       build_benchmark(name, threads=threads, scale=scale))
            macro.append(_tier_row(
                f"aikido:{name}",
                lambda cb, sb, factory=factory: _aikido_run(
                    factory, compile_blocks=cb, superblocks=sb, seed=seed,
                    quantum=quantum, jitter=jitter),
                repeats))

    micro_rows = []
    for name, factory in _micro_programs().items():
        note(f"bench: micro {name}")
        micro_rows.append(_tier_row(
            f"micro:{name}",
            lambda cb, sb, factory=factory: _bare_dbr_run(
                factory, compile_blocks=cb, superblocks=sb, seed=seed,
                quantum=quantum, jitter=jitter),
            repeats))

    elision_rows = []
    for name in names:
        note(f"bench: {name} (elision ablation, plain vs --static-elide)")
        factory = (lambda name=name:
                   build_benchmark(name, threads=threads, scale=scale))
        # Elision deltas are a few percent on runs of a few hundred
        # milliseconds — extra repeats are cheap here and the best-of
        # needs them to punch through host timing noise.
        elision_rows.append(_elision_row(
            name,
            lambda elide, factory=factory: _elide_run(
                factory, static_elide=elide, seed=seed, quantum=quantum,
                jitter=jitter),
            repeats if quick else max(repeats, 5)))

    replay_rows = []
    for name in REPLAY_BENCHMARKS:
        if name not in names:
            continue
        note(f"bench: {name} (record once, replay through "
             f"{len(REPLAY_ANALYSES)} analyses)")
        factory = (lambda name=name:
                   build_benchmark(name, threads=threads, scale=scale))
        replay_rows.append(_replay_row(
            name, factory, seed=seed, quantum=quantum, jitter=jitter,
            repeats=repeats))

    speedups = [row["speedup"] for row in workloads]
    super_speedups = [row["superblock_speedup"] for row in workloads]
    super_over_compiled = [row["superblock_over_compiled"]
                           for row in workloads]
    elision_speedups = [row["speedup"] for row in elision_rows]
    amortizations = [row["amortization"] for row in replay_rows]
    doc = {
        "version": BENCH_SCHEMA_VERSION,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "params": {
            "threads": threads, "scale": scale, "seed": seed,
            "quantum": quantum, "jitter": jitter, "repeats": repeats,
            "quick": quick,
        },
        "workloads": workloads,
        "macro": macro,
        "micro": micro_rows,
        "elision": elision_rows,
        "replay": replay_rows,
        "summary": {
            "geomean_speedup": _geomean(speedups) if speedups else 0.0,
            "workloads_2x": sum(1 for s in speedups if s >= 2.0),
            "workload_count": len(workloads),
            "superblock_geomean_speedup": (
                _geomean(super_speedups) if super_speedups else 0.0),
            "superblock_over_compiled_geomean": (
                _geomean(super_over_compiled)
                if super_over_compiled else 0.0),
            "elision_geomean_speedup": (_geomean(elision_speedups)
                                        if elision_speedups else 0.0),
            "elision_nonzero": sum(1 for row in elision_rows
                                   if row["checks_elided"] > 0),
            "replay_amortization_geomean": (_geomean(amortizations)
                                            if amortizations else 0.0),
            "replay_analyses": len(REPLAY_ANALYSES),
        },
    }
    validate_bench(doc)
    return doc


# ----------------------------------------------------------------------
# schema validation (shared by the CLI, the smoke test and the gate)
# ----------------------------------------------------------------------
_RATE_KEYS = ("seconds", "instrs_per_sec")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HarnessError(f"invalid bench document: {message}")


def validate_bench(doc: Dict) -> Dict:
    """Raise :class:`HarnessError` unless ``doc`` is a valid bench
    document; returns it unchanged so call sites can chain."""
    _require(isinstance(doc, dict), "not a JSON object")
    version = doc.get("version")
    _require(version in SUPPORTED_BENCH_VERSIONS,
             f"version not in {SUPPORTED_BENCH_VERSIONS}")
    tiers = (("interp", "compiled", "superblock") if version >= 2
             else ("interp", "compiled"))
    speedup_keys = (("speedup", "superblock_speedup",
                     "superblock_over_compiled") if version >= 2
                    else ("speedup",))
    for section in ("host", "params", "summary"):
        _require(isinstance(doc.get(section), dict),
                 f"missing object {section!r}")
    history = doc.get("history", [])
    _require(isinstance(history, list)
             and all(isinstance(entry, dict) for entry in history),
             "history is not a list of objects")
    for section in ("workloads", "macro", "micro"):
        rows = doc.get(section)
        _require(isinstance(rows, list), f"missing list {section!r}")
        for row in rows:
            _require(isinstance(row, dict) and isinstance(
                row.get("name"), str), f"{section}: row without a name")
            name = row["name"]
            _require(isinstance(row.get("instructions"), int)
                     and row["instructions"] > 0,
                     f"{name}: bad instruction count")
            for tier in tiers:
                sample = row.get(tier)
                _require(isinstance(sample, dict), f"{name}: missing {tier}")
                for key in _RATE_KEYS:
                    value = sample.get(key)
                    _require(isinstance(value, (int, float))
                             and value >= 0,
                             f"{name}: bad {tier}.{key}")
            for key in speedup_keys:
                _require(isinstance(row.get(key), (int, float))
                         and row[key] > 0,
                         f"{name}: bad {key}")
    # The elision section is optional (older documents predate it);
    # when present its rows pair a baseline and an elided sample.
    elision = doc.get("elision", [])
    _require(isinstance(elision, list), "elision is not a list")
    for row in elision:
        _require(isinstance(row, dict) and isinstance(
            row.get("name"), str), "elision: row without a name")
        name = row["name"]
        _require(isinstance(row.get("instructions"), int)
                 and row["instructions"] > 0,
                 f"elision {name}: bad instruction count")
        _require(isinstance(row.get("checks_elided"), int)
                 and row["checks_elided"] >= 0,
                 f"elision {name}: bad checks_elided")
        for arm in ("baseline", "elided"):
            sample = row.get(arm)
            _require(isinstance(sample, dict),
                     f"elision {name}: missing {arm}")
            for key in _RATE_KEYS:
                value = sample.get(key)
                _require(isinstance(value, (int, float)) and value >= 0,
                         f"elision {name}: bad {arm}.{key}")
        _require(isinstance(row.get("speedup"), (int, float))
                 and row["speedup"] > 0,
                 f"elision {name}: bad speedup")
    # The replay section is likewise optional; each row pairs recording
    # and serial-replay timings against the sum of live runs.
    replay = doc.get("replay", [])
    _require(isinstance(replay, list), "replay is not a list")
    for row in replay:
        _require(isinstance(row, dict) and isinstance(
            row.get("name"), str), "replay: row without a name")
        name = row["name"]
        _require(isinstance(row.get("events"), int) and row["events"] > 0,
                 f"replay {name}: bad event count")
        _require(isinstance(row.get("analyses"), list)
                 and len(row["analyses"]) >= 1,
                 f"replay {name}: bad analyses list")
        for arm in ("record", "live", "replay"):
            sample = row.get(arm)
            _require(isinstance(sample, dict)
                     and isinstance(sample.get("seconds"), (int, float))
                     and sample["seconds"] >= 0,
                     f"replay {name}: bad {arm}.seconds")
        _require(isinstance(row.get("amortization"), (int, float))
                 and row["amortization"] > 0,
                 f"replay {name}: bad amortization")
    _require(len(doc["workloads"]) > 0, "no workload rows")
    summary = doc["summary"]
    _require(isinstance(summary.get("geomean_speedup"), (int, float)),
             "summary.geomean_speedup missing")
    _require(isinstance(summary.get("workloads_2x"), int),
             "summary.workloads_2x missing")
    _require(summary.get("workload_count") == len(doc["workloads"]),
             "summary.workload_count disagrees with workloads")
    if version >= 2:
        for key in ("superblock_geomean_speedup",
                    "superblock_over_compiled_geomean"):
            _require(isinstance(summary.get(key), (int, float)),
                     f"summary.{key} missing")
    return doc


def write_bench(doc: Dict, path: str, *,
                carry_history: bool = True) -> str:
    """Validate and write ``doc``; carry the trajectory forward.

    When overwriting an existing document, the prior document's
    ``params`` and ``summary`` (plus any history it already carried)
    are folded into ``doc["history"]`` — per-tier geomeans across
    regenerations stay diffable in one file instead of vanishing with
    every refresh.
    """
    validate_bench(doc)
    if carry_history:
        try:
            with open(path) as handle:
                prior = json.load(handle)
        except (OSError, ValueError):
            prior = None
        if isinstance(prior, dict) and isinstance(
                prior.get("summary"), dict):
            history = [entry for entry in prior.get("history", [])
                       if isinstance(entry, dict)]
            history.append({
                "version": prior.get("version"),
                "params": prior.get("params"),
                "summary": prior.get("summary"),
            })
            doc = dict(doc, history=history)
            validate_bench(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot load bench document {path}: {exc}")
    return validate_bench(doc)


def render_bench(doc: Dict) -> str:
    """Human-readable table of one bench document."""
    lines = [f"simulator wall-clock bench "
             f"(threads={doc['params']['threads']}, "
             f"scale={doc['params']['scale']}, "
             f"repeats={doc['params']['repeats']}"
             f"{', quick' if doc['params'].get('quick') else ''})",
             f"{'workload':<24s} {'instrs':>10s} {'interp/s':>12s} "
             f"{'compiled/s':>12s} {'super/s':>12s} {'speedup':>8s} "
             f"{'sb/comp':>8s}"]
    for section in ("workloads", "macro", "micro"):
        for row in doc[section]:
            superblock = row.get("superblock")
            lines.append(
                f"{row['name']:<24s} {row['instructions']:>10,d} "
                f"{row['interp']['instrs_per_sec']:>12,.0f} "
                f"{row['compiled']['instrs_per_sec']:>12,.0f} "
                + (f"{superblock['instrs_per_sec']:>12,.0f} "
                   if superblock else f"{'-':>12s} ")
                + f"{row['speedup']:>7.2f}x "
                + (f"{row['superblock_over_compiled']:>7.2f}x"
                   if superblock else f"{'-':>8s}"))
    elision = doc.get("elision", [])
    if elision:
        lines.append("")
        lines.append(f"{'elision ablation':<24s} {'elided':>10s} "
                     f"{'plain/s':>12s} {'elided/s':>12s} {'speedup':>8s}")
        for row in elision:
            lines.append(
                f"{row['name']:<24s} {row['checks_elided']:>10,d} "
                f"{row['baseline']['instrs_per_sec']:>12,.0f} "
                f"{row['elided']['instrs_per_sec']:>12,.0f} "
                f"{row['speedup']:>7.2f}x")
    replay = doc.get("replay", [])
    if replay:
        lines.append("")
        lines.append(f"{'record/replay fan-out':<24s} {'events':>10s} "
                     f"{'record s':>10s} {'replay s':>10s} "
                     f"{'live s':>10s} {'amortize':>8s}")
        for row in replay:
            lines.append(
                f"{row['name']:<24s} {row['events']:>10,d} "
                f"{row['record']['seconds']:>10.3f} "
                f"{row['replay']['seconds']:>10.3f} "
                f"{row['live']['seconds']:>10.3f} "
                f"{row['amortization']:>7.2f}x")
    summary = doc["summary"]
    lines.append(f"geomean speedup {summary['geomean_speedup']:.2f}x; "
                 f"{summary['workloads_2x']}/{summary['workload_count']} "
                 f"workloads at >=2x")
    if summary.get("superblock_geomean_speedup"):
        lines.append(
            f"superblock geomean speedup "
            f"{summary['superblock_geomean_speedup']:.2f}x vs interp, "
            f"{summary.get('superblock_over_compiled_geomean', 0.0):.2f}x "
            f"vs compiled")
    if elision:
        lines.append(f"elision geomean speedup "
                     f"{summary.get('elision_geomean_speedup', 0.0):.2f}x; "
                     f"{summary.get('elision_nonzero', 0)}/{len(elision)} "
                     f"workloads elide checks")
    if replay:
        lines.append(
            f"replay amortization geomean "
            f"{summary.get('replay_amortization_geomean', 0.0):.2f}x over "
            f"{summary.get('replay_analyses', 0)} analyses "
            f"(verdicts bit-identical to live by construction)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# regression gate (scripts/bench_gate.py calls this)
# ----------------------------------------------------------------------
def compare_bench(baseline: Dict, current: Dict,
                  threshold: float = 0.15) -> Dict:
    """Compare two bench documents' per-tier throughput.

    For every execution tier present in both documents, the gated
    quantity is the geomean, over workloads present in both, of
    ``current instrs/sec / baseline instrs/sec``. Any tier's geomean
    below ``1 - threshold`` fails the gate, so a regression confined
    to the superblock tier (e.g. a builder bail-out that silently
    degrades it to the compiled tier) cannot hide behind a healthy
    compiled-tier number. Per-workload ratios ride along for
    diagnosis; the top-level ``ratios``/``geomean_ratio`` keep the
    legacy compiled-tier view.
    """
    validate_bench(baseline)
    validate_bench(current)
    base_rows = {row["name"]: row for row in baseline["workloads"]}
    tiers: Dict[str, Dict] = {}
    for tier, _ in TIER_FLAGS:
        ratios = {}
        for row in current["workloads"]:
            base = base_rows.get(row["name"])
            if (base is None or not isinstance(base.get(tier), dict)
                    or not isinstance(row.get(tier), dict)):
                continue
            old = base[tier]["instrs_per_sec"]
            new = row[tier]["instrs_per_sec"]
            if old > 0 and new > 0:
                ratios[row["name"]] = new / old
        if ratios:
            geomean = _geomean(list(ratios.values()))
            tiers[tier] = {
                "ratios": ratios,
                "geomean_ratio": geomean,
                "ok": geomean >= 1.0 - threshold,
            }
    if "compiled" not in tiers:
        raise HarnessError("no common workloads between bench documents")
    compiled = tiers["compiled"]
    return {
        "tiers": tiers,
        "ratios": compiled["ratios"],
        "geomean_ratio": compiled["geomean_ratio"],
        "threshold": threshold,
        "ok": all(entry["ok"] for entry in tiers.values()),
    }
