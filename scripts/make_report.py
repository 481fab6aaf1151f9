#!/usr/bin/env python
"""Generate REPORT.md: the one-command reproduction report.

Runs the full calibrated suite and writes a self-contained markdown
report — all four paper artifacts, the §5.3 race comparison, the
headline summary, and the configuration/cost-model provenance needed to
re-derive every number.

    python scripts/make_report.py [--out REPORT.md] [--scale 1.0]
"""

import argparse
import json
import platform
import sys
import time

from repro import __version__
from repro.harness import experiments
from repro.harness.parallel import ParallelRunner
from repro.harness.resultcache import ResultCache
from repro.harness.costmodel import snapshot
from repro.harness.report import (
    render_attribution,
    render_chaos,
    render_figure5,
    render_figure6,
    render_instrumentation,
    render_races,
    render_summary,
    render_table1,
    render_table2,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="REPORT.md")
    ap.add_argument("--threads", type=int,
                    default=experiments.DEFAULT_THREADS)
    ap.add_argument("--scale", type=float,
                    default=experiments.DEFAULT_SCALE)
    ap.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    ap.add_argument("--jobs", type=int, default=0, metavar="N",
                    help="worker processes (0 = one per CPU, 1 = serial)")
    ap.add_argument("--no-cache", action="store_true",
                    help="always re-simulate instead of reusing cached runs")
    ap.add_argument("--chaos-json", metavar="PATH", default=None,
                    help="survivability JSON from 'aikido-repro chaos "
                         "--chaos --json PATH' to fold into the report")
    args = ap.parse_args()

    started = time.monotonic()
    runner = ParallelRunner(
        jobs=args.jobs, cache=None if args.no_cache else ResultCache())
    suite = experiments.run_suite(threads=args.threads, scale=args.scale,
                                  seed=args.seed, runner=runner)
    table1 = experiments.table1(scale=args.scale, seed=args.seed,
                                runner=runner)
    races = experiments.detected_races(suite)
    elapsed = time.monotonic() - started

    def block(text):
        return "```\n" + text.rstrip() + "\n```\n"

    parts = [
        "# Reproduction report — Aikido (ASPLOS 2012)",
        "",
        f"Generated by `scripts/make_report.py` (repro {__version__}) on "
        f"Python {platform.python_version()}; suite wall time "
        f"{elapsed:.1f}s; configuration: {args.threads} threads, scale "
        f"{args.scale}, seed {args.seed}.",
        "",
        "## Summary",
        "",
        block(render_summary(suite)),
        "## Figure 5",
        "",
        block(render_figure5(suite)),
        "## Figure 6",
        "",
        block(render_figure6(suite)),
        "## Table 1",
        "",
        block(render_table1(table1)),
        "## Table 2",
        "",
        block(render_table2(suite)),
        "## Detected races (§5.3)",
        "",
        block(render_races(races)),
        "## Instrumentation machinery",
        "",
        block(render_instrumentation(suite)),
        "## Where the cycles go",
        "",
        "Total simulated cycles of every aikido-fasttrack run decomposed "
        "into app / discovery-fault / re-JIT / tool-hook / "
        "kernel-emulation buckets (exact partition of the cycle "
        "counter's categories — rows sum to 100%). Generate a per-run "
        "Chrome trace with `aikido-repro trace --benchmark NAME`.",
        "",
        block(render_attribution(suite)),
    ]
    if args.chaos_json:
        with open(args.chaos_json) as handle:
            chaos_payload = json.load(handle)
        parts += [
            "## Chaos sweep (fault-injection survivability)",
            "",
            "Deterministic fault injection (`aikido-repro chaos --chaos`): "
            "recovery plans must be absorbed with bit-identical race "
            "reports; hostile preemption perturbs the schedule but every "
            "cross-layer invariant must hold.",
            "",
            block(render_chaos(chaos_payload)),
        ]
    parts += [
        "## Provenance",
        "",
        "Cost-model constants at generation time (see `repro/costs.py` "
        "for the calibration rationale):",
        "",
        block("\n".join(f"{name} = {value}"
                        for name, value in sorted(snapshot().items()))),
        "Regenerate everything with `aikido-repro all` or "
        "`pytest benchmarks/ --benchmark-only`; compare future runs "
        "against `baselines/suite-8t-scale1.json` with "
        "`python -m repro.harness.regression`.",
        "",
    ]
    with open(args.out, "w") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {args.out} ({elapsed:.1f}s; {runner.stats_line()})",
          file=sys.stderr)


if __name__ == "__main__":
    main()
