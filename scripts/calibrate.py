#!/usr/bin/env python
"""Calibration helper: measured vs paper shape for Fig. 5/6 and Table 1.

Run after any cost-constant or workload tweak:

    python scripts/calibrate.py [--threads 8] [--scale 1.0] [--quantum 300]

Runs fan out over a process pool (``--jobs``) and reuse the on-disk
result cache; note a cost-constant edit changes the cache fingerprint,
so recalibration never reads stale results.
"""

import argparse
import sys
import time

from repro.harness import experiments
from repro.harness.parallel import ParallelRunner
from repro.harness.resultcache import ResultCache


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--quantum", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--table1", action="store_true")
    ap.add_argument("--jobs", type=int, default=0, metavar="N",
                    help="worker processes (0 = one per CPU, 1 = serial)")
    ap.add_argument("--no-cache", action="store_true",
                    help="always re-simulate instead of reusing cached runs")
    args = ap.parse_args()

    t0 = time.monotonic()
    runner = ParallelRunner(
        jobs=args.jobs, cache=None if args.no_cache else ResultCache())
    suite = experiments.run_suite(threads=args.threads, scale=args.scale,
                                  seed=args.seed, quantum=args.quantum,
                                  runner=runner)

    print(f"{'bench':14s} {'shared%':>8s} {'paper%':>7s} {'FT':>7s} "
          f"{'Aik':>7s} {'ratio':>6s} {'pFT':>6s} {'pAik':>6s} {'pRatio':>7s}")
    for name, runs in suite.runs.items():
        frac = runs.shared_fraction
        fts, aks = runs.ft_slowdown, runs.aikido_slowdown
        paper = runs.spec.paper
        pr = paper.ft_slowdown_8t / paper.aikido_slowdown_8t
        print(f"{name:14s} {frac*100:8.2f} "
              f"{paper.shared_fraction*100:7.2f} {fts:7.1f} {aks:7.1f} "
              f"{fts/aks:6.2f} {paper.ft_slowdown_8t:6.0f} "
              f"{paper.aikido_slowdown_8t:6.0f} {pr:7.2f}")
    print(f"geomean ratio {suite.geomean_speedup():.2f} (paper 1.76); "
          f"elapsed {time.monotonic()-t0:.1f}s")

    if args.table1:
        print("\nTable 1 (fluidanimate / vips at 2, 4, 8 threads):")
        table1 = experiments.table1(scale=args.scale, seed=args.seed,
                                    quantum=args.quantum, runner=runner)
        for name, by_threads in table1.items():
            for t, (fts, aks) in by_threads.items():
                print(f"  {name:13s} T={t}: FT={fts:6.1f}  Aik={aks:6.1f}")
    print(f"[{runner.stats_line()}]", file=sys.stderr)


if __name__ == "__main__":
    main()
