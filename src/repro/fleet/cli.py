"""``aikido-repro fleet run`` — run a suite grid on the local process pool.

Dispatched from :mod:`repro.harness.cli`::

    aikido-repro fleet run --workers 2 --benchmarks blackscholes,canneal \\
        --seeds 1,2,3 --chaos-seeds 11,23 --journal grid.jsonl --json out.json
    aikido-repro fleet run ... --journal grid.jsonl --resume

The grid (benchmarks x seeds x chaos seeds) runs on
:class:`~repro.harness.parallel.ParallelRunner` with ``--workers``
processes. ``--journal`` checkpoints every finished job, and a
``--resume`` rerun replays them with zero re-simulation. ``--json``
dumps the full report, which is byte-identical for any worker count and
across a kill and resume. Exit codes: 0 on success, 2 on usage/harness
errors, 3 when any job failed (failed jobs are reported, never abort the
campaign).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.errors import HarnessError, WorkloadError
from repro.fleet.campaign import CampaignSpec, campaign_report, render_report
from repro.harness.journal import RunJournal
from repro.harness.parallel import ParallelRunner
from repro.harness.resultcache import ResultCache


def _int_list(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aikido-repro fleet",
        description="Run a suite grid (benchmarks x seeds x chaos seeds) "
                    "on the local process pool")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a campaign")
    run.add_argument("--benchmarks", default="blackscholes",
                     help="comma-separated benchmark names")
    run.add_argument("--mode", default="aikido-fasttrack")
    run.add_argument("--threads", type=int, default=2)
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--quantum", type=int, default=100)
    run.add_argument("--seeds", type=_int_list, default=[1],
                     help="comma-separated simulation seeds")
    run.add_argument("--chaos-seeds", type=_int_list, default=[],
                     help="comma-separated chaos-plan seeds; each adds "
                          "a chaos config column to the campaign")
    run.add_argument("--chaos-intensity", type=float, default=0.05)
    run.add_argument("--workers", type=int, default=2, metavar="N",
                     help="worker processes (0 = one per CPU, 1 = "
                          "inline)")
    run.add_argument("--journal", metavar="PATH",
                     help="checkpoint finished jobs to this JSONL file")
    run.add_argument("--resume", action="store_true",
                     help="replay finished jobs from --journal instead "
                          "of re-simulating them")
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--json", metavar="PATH",
                     help="dump the full report as JSON")
    return parser


def _spec_from_args(args) -> CampaignSpec:
    chaos_seeds: List[Optional[int]] = [None]
    chaos_seeds.extend(args.chaos_seeds)
    return CampaignSpec(
        benchmarks=tuple(b for b in args.benchmarks.split(",") if b),
        mode=args.mode,
        threads=args.threads,
        scale=args.scale,
        quantum=args.quantum,
        seeds=tuple(args.seeds),
        chaos_seeds=tuple(chaos_seeds),
        chaos_intensity=args.chaos_intensity,
    )


def _run_verb(args) -> int:
    started = time.monotonic()
    spec = _spec_from_args(args)
    journal = (RunJournal(args.journal, resume=args.resume)
               if args.journal else None)
    runner = ParallelRunner(jobs=args.workers,
                            cache=None if args.no_cache else ResultCache(),
                            journal=journal)
    report = campaign_report(spec, runner)
    print(render_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, sort_keys=True)
        print(f"(json written to {args.json})")
    print(f"[{time.monotonic() - started:.1f}s; {runner.stats_line()}]",
          file=sys.stderr)
    return 3 if report["failures"] else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal PATH")
    try:
        return _run_verb(args)
    except (HarnessError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
