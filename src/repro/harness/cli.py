"""Command-line entry point: regenerate any of the paper's artifacts.

Usage (installed as ``aikido-repro`` or ``python -m repro.harness.cli``)::

    aikido-repro fig5             # Figure 5 bar chart
    aikido-repro fig6             # Figure 6 sharing fractions
    aikido-repro table1           # Table 1 thread-count sweep
    aikido-repro table2           # Table 2 instrumentation statistics
    aikido-repro races            # §5.3 detected-races comparison
    aikido-repro races-static     # static race analyzer verdicts
    aikido-repro profile --benchmark vips   # workload profile
    aikido-repro lint             # static linter over the workloads
    aikido-repro instr            # instrumentation-machinery counters
    aikido-repro chaos            # fault-injection survivability sweep
    aikido-repro chaos --benchmark canneal --jobs 2 --journal c.jsonl \
        --json chaos.json         # checkpointed grid; rerun with --resume
    aikido-repro trace --benchmark vips     # Chrome trace + attribution
    aikido-repro fuzz --seed 1 --count 200 --quick  # differential fuzz
    aikido-repro fuzz --seed 1 --count 500 --journal f.jsonl --resume
    aikido-repro record --benchmark canneal --out canneal.aiklog
    aikido-repro replay --log canneal.aiklog \
        --analyses fasttrack,djit,eraser,memtag --jobs 4
    aikido-repro all              # everything, one suite run
    aikido-repro all --scale 0.5  # faster, smaller run
    aikido-repro all --jobs 8     # fan runs out over 8 processes
    aikido-repro all --no-cache   # force fresh simulations

Suite runs, chaos sweeps and fuzz campaigns fan out over a process pool
(``--jobs``, default one worker per CPU) and are served from the on-disk
result cache when an identical run was already simulated (disable with
``--no-cache``).

Robustness knobs: ``--timeout`` bounds each job's wall clock,
``--retries`` grants transient failures extra attempts, ``--journal`` +
``--resume`` checkpoint a suite so an interrupted invocation picks up
with zero re-simulation. Chaos runs: ``--chaos`` activates the recovery
fault-injection plan in aikido-fasttrack runs (``--chaos-seed``,
``--chaos-intensity`` shape it) and ``--check-invariants`` turns on the
cross-layer invariant monitor. Failed jobs never abort a batch — they
are reported per job and the exit code is 3. The ``chaos`` sweep exits 3
too when a schedule-neutral cell failed or its races differ from the
chaos-free baseline.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.errors import HarnessError, SuiteFailureError, WorkloadError
from repro.harness import experiments
from repro.harness.journal import RunJournal
from repro.harness.parallel import ParallelRunner
from repro.harness.resultcache import ResultCache
from repro.harness.report import (
    render_chaos,
    render_figure5,
    render_figure6,
    render_races,
    render_summary,
    render_table1,
    render_table2,
)

SUITE_ARTIFACTS = ("fig5", "fig6", "table2", "races", "breakdown",
                   "instr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aikido-repro",
        description="Regenerate the Aikido paper's evaluation artifacts")
    parser.add_argument("artifact",
                        choices=("fig5", "fig6", "table1", "table2",
                                 "races", "races-static", "profile",
                                 "breakdown", "instr", "chaos",
                                 "trace", "fuzz", "lint", "all"))
    parser.add_argument("--benchmark", default=None,
                        help="restrict 'profile'/'lint'/'trace' to one "
                             "benchmark")
    parser.add_argument("--trace-out", metavar="PATH",
                        default="aikido-trace.json",
                        help="Chrome trace_event output of the 'trace' "
                             "artifact (open in chrome://tracing or "
                             "Perfetto)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="also write the trace as one JSON object "
                             "per line")
    parser.add_argument("--quick", action="store_true",
                        help="run the 'fuzz' campaign on smaller "
                             "generated programs with a lower per-run "
                             "instruction budget")
    parser.add_argument("--threads", type=int,
                        default=experiments.DEFAULT_THREADS)
    parser.add_argument("--scale", type=float,
                        default=experiments.DEFAULT_SCALE,
                        help="workload size multiplier")
    parser.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    parser.add_argument("--quantum", type=int,
                        default=experiments.DEFAULT_QUANTUM)
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes for suite runs, chaos "
                             "sweeps and fuzz campaigns (0 = one per CPU, "
                             "1 = serial; default 0)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate instead of reusing the "
                             "on-disk result cache")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump machine-readable suite, chaos "
                             "sweep or fuzz campaign results")
    parser.add_argument("--latex", metavar="PATH",
                        help="also write booktabs LaTeX tables")
    parser.add_argument("--chaos", action="store_true",
                        help="inject the recovery fault plan into "
                             "aikido-fasttrack runs (and for the 'chaos' "
                             "artifact, include hostile preemption)")
    parser.add_argument("--chaos-seed", type=int, default=11,
                        help="seed of the chaos plan's RNG streams")
    parser.add_argument("--chaos-intensity", type=float, default=0.05,
                        help="per-opportunity injection probability")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run the cross-layer invariant monitor "
                             "during aikido-fasttrack runs")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts for transient job failures")
    parser.add_argument("--journal", metavar="PATH",
                        help="checkpoint finished jobs to this JSONL file")
    parser.add_argument("--resume", action="store_true",
                        help="replay finished jobs from --journal instead "
                             "of re-simulating them")
    parser.add_argument("--count", type=int, default=100, metavar="N",
                        help="scenarios per 'fuzz' campaign (seeds "
                             "--seed .. --seed+N-1)")
    parser.add_argument("--corpus-dir", metavar="DIR", default=None,
                        help="archive failing fuzz scenarios (verdict + "
                             "minimized repro) as JSON under this "
                             "directory")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["record"], ["replay"]):
        # Record/replay fan-out verbs; same exit-code contract (3 =
        # cross-analysis disagreement or a --diff-live mismatch).
        from repro.eventlog.cli import main as eventlog_main

        return eventlog_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = auto), got {args.jobs}")
    if args.resume and not args.journal:
        parser.error("--resume requires --journal PATH")
    if args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    try:
        return _run(args)
    except SuiteFailureError as exc:
        # Completed runs were kept; report what failed, job by job.
        print(f"error: {len(exc.failures)} job(s) failed:", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        return 3
    except (HarnessError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _lint_workloads(threads: int, benchmark=None) -> int:
    """Lint every bundled workload (or one); exit status style return."""
    from repro.staticanalysis import lint_program
    from repro.workloads.parsec import benchmark_names, get_benchmark

    names = [benchmark] if benchmark else benchmark_names()
    total = 0
    for name in names:
        program = get_benchmark(name).program(threads=threads)
        findings = lint_program(program)
        if findings:
            total += len(findings)
            print(f"{name}:")
            for finding in findings:
                print(f"  {finding.render()}")
        else:
            print(f"{name}: clean")
    if total:
        print(f"{total} finding(s)")
    return 1 if total else 0


def _trace_artifact(args) -> list:
    """Run one traced benchmark; emit + validate the Chrome trace."""
    from repro.harness.runner import build_aikido_system, system_result
    from repro.observability import BUCKETS, TraceSink, load_chrome
    from repro.workloads.parsec import get_benchmark

    name = args.benchmark or "freqmine"
    spec = get_benchmark(name)
    program = spec.program(threads=args.threads, scale=args.scale)
    chaos_plan = (ChaosPlan.recovery(seed=args.chaos_seed,
                                     intensity=args.chaos_intensity)
                  if args.chaos else None)
    config = AikidoConfig(chaos=chaos_plan,
                          check_invariants=args.check_invariants,
                          trace=True, metrics_cadence=25)
    system = build_aikido_system(program, seed=args.seed,
                                 quantum=args.quantum, config=config)
    system.run()
    result = system_result(system)
    sink = TraceSink(system.tracer)
    chrome_path = sink.write_chrome(args.trace_out,
                                    label=f"aikido-repro {name}")
    load_chrome(chrome_path)  # round-trip validation before reporting
    pieces = [f"trace: {name} ({args.threads} threads) — "
              f"{len(system.tracer.events)} events, "
              f"{system.tracer.dropped} dropped, "
              f"{len(result.timeline)} timeline samples\n"
              f"chrome trace written to {chrome_path} (validated; open "
              "in chrome://tracing or Perfetto)"]
    if args.trace_jsonl:
        jsonl_path = sink.write_jsonl(args.trace_jsonl)
        pieces.append(f"jsonl trace written to {jsonl_path}")
    attribution = result.cycle_attribution
    total = max(1, attribution["total"])
    lines = [f"cycle attribution ({attribution['total']:,} total):"]
    lines.extend(f"  {bucket:>16s}: {attribution[bucket]:>12,d} "
                 f"({100 * attribution[bucket] / total:5.1f}%)"
                 for bucket in BUCKETS)
    pieces.append("\n".join(lines))
    return pieces


def _fuzz_artifact(args, started: float) -> int:
    """Seeded differential fuzz campaign over generated scenarios."""
    from repro.scengen import campaign_to_dict, render_campaign, run_campaign

    cache = None if args.no_cache else ResultCache()
    journal = (RunJournal(args.journal, resume=args.resume)
               if args.journal else None)
    result = run_campaign(
        args.seed, args.count, quick=args.quick, journal=journal,
        cache=cache, corpus_dir=args.corpus_dir, jobs=args.jobs,
        timeout=args.timeout, retries=args.retries,
        progress=lambda message: print(message, file=sys.stderr))
    print(render_campaign(result))
    if args.corpus_dir and result.disagreements:
        print(f"(failing scenarios archived under {args.corpus_dir})")
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(campaign_to_dict(result), handle, indent=2,
                      sort_keys=True)
        print(f"(json written to {args.json})")
    print(f"[{time.monotonic() - started:.1f}s; {result.stats_line()}]",
          file=sys.stderr)
    return 3 if result.disagreements else 0


def _run(args) -> int:
    started = time.monotonic()
    if args.artifact == "lint":
        return _lint_workloads(args.threads, args.benchmark)
    if args.artifact == "fuzz":
        return _fuzz_artifact(args, started)
    pieces = []
    status = 0
    cache = None if args.no_cache else ResultCache()
    journal = (RunJournal(args.journal, resume=args.resume)
               if args.journal else None)
    runner = ParallelRunner(jobs=args.jobs, cache=cache,
                            timeout=args.timeout, retries=args.retries,
                            journal=journal)
    chaos_plan = (ChaosPlan.recovery(seed=args.chaos_seed,
                                     intensity=args.chaos_intensity)
                  if args.chaos else None)
    config = None
    if chaos_plan or args.check_invariants:
        config = AikidoConfig(chaos=chaos_plan,
                              check_invariants=args.check_invariants)
    wants_suite = args.artifact in SUITE_ARTIFACTS or args.artifact == "all"
    suite = None
    if wants_suite:
        suite = experiments.run_suite(threads=args.threads,
                                      scale=args.scale, seed=args.seed,
                                      quantum=args.quantum, runner=runner,
                                      config=config)
    if args.artifact in ("fig5", "all"):
        pieces.append(render_figure5(suite))
    if args.artifact in ("fig6", "all"):
        pieces.append(render_figure6(suite))
    if args.artifact in ("table1", "all"):
        results = experiments.table1(scale=args.scale, seed=args.seed,
                                     quantum=args.quantum, runner=runner)
        pieces.append(render_table1(results))
    if args.artifact in ("table2", "all"):
        pieces.append(render_table2(suite))
    if args.artifact in ("races", "all"):
        pieces.append(render_races(experiments.detected_races(suite)))
    if args.artifact == "breakdown":
        from repro.harness.report import render_breakdown

        pieces.append(render_breakdown(suite))
    if args.artifact in ("instr", "all"):
        from repro.harness.report import render_instrumentation

        pieces.append(render_instrumentation(suite))
    if args.artifact == "all":
        from repro.harness.report import render_attribution

        pieces.append(render_attribution(suite))
    if args.artifact == "trace":
        pieces.extend(_trace_artifact(args))
    if args.artifact == "chaos":
        sweep = experiments.chaos_sweep(
            threads=args.threads, scale=args.scale, seed=args.seed,
            quantum=args.quantum, runner=runner,
            chaos_seeds=(args.chaos_seed,
                         args.chaos_seed + 12, args.chaos_seed + 36),
            intensity=args.chaos_intensity, include_hostile=args.chaos,
            benchmarks=[args.benchmark] if args.benchmark else None)
        pieces.append(render_chaos(sweep))
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(sweep.to_dict(), handle, indent=2)
            pieces.append(f"(json written to {args.json})")
        if not sweep.all_recovery_cells_clean():
            status = 3
    if args.artifact == "races-static":
        from repro.harness.report import render_static_races
        from repro.staticanalysis.analysiscache import analysis_for
        from repro.workloads.parsec import benchmark_names, get_benchmark

        names = ([args.benchmark] if args.benchmark
                 else benchmark_names())
        reports = []
        for name in names:
            program = get_benchmark(name).program(threads=args.threads,
                                                  scale=args.scale)
            reports.append(analysis_for(program).races)
        pieces.append(render_static_races(reports))
    if args.artifact == "profile":
        from repro.workloads.parsec import benchmark_names, get_benchmark
        from repro.workloads.profile import (
            dynamic_profile,
            render_profile,
            static_profile,
        )

        names = ([args.benchmark] if args.benchmark
                 else benchmark_names())
        for name in names:
            spec = get_benchmark(name)

            def factory(spec=spec):
                return spec.program(threads=args.threads,
                                    scale=args.scale)

            pieces.append(render_profile(
                name, static_profile(factory()),
                dynamic_profile(factory, seed=args.seed,
                                quantum=args.quantum)))
    if args.artifact == "all":
        pieces.append(render_summary(suite))
    if args.latex and suite is not None:
        from repro.harness.latex import render_all

        with open(args.latex, "w") as handle:
            handle.write(render_all(suite) + "\n")
        pieces.append(f"(latex written to {args.latex})")
    if args.json and suite is not None:
        import json

        from repro.harness.report import suite_to_dict

        with open(args.json, "w") as handle:
            json.dump(suite_to_dict(suite), handle, indent=2)
        pieces.append(f"(json written to {args.json})")
    print("\n".join(pieces))
    if status:
        print("error: a schedule-neutral chaos cell failed or changed "
              "its race reports", file=sys.stderr)
    print(f"[{time.monotonic() - started:.1f}s; {runner.stats_line()}]",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
