#!/usr/bin/env python
"""Count the bytecode one paper-stack run executes, per code object.

Host wall time on a shared machine drifts by up to 2x between runs, so
a small speed-up is hard to see in seconds. The number of bytecode
instructions a run executes does not drift: it is a pure function of
the program, the input and the seed. This script runs one benchmark on
the full ``aikido-fasttrack`` stack, in perfbench's shared-heavy
configuration (4 threads, quantum 200, jitter 0.1, the default
``AikidoConfig``), and counts ``sys.settrace`` opcode events inside
``AikidoSystem.run``. Building the program and assembling the stack are
not counted.

    python scripts/opcount.py --benchmark streamcluster --scale 3 --seed 1

Prints the total opcode count, opcodes per simulated instruction and
the code objects that executed the most opcodes (generated block and
chain bodies are summed per file name, ``<block>`` and
``<superblock>``). Tracing every opcode makes the run 30-100 times
slower than untraced, so keep ``--scale`` small.

Exit codes: 0 on success, 2 on bad arguments (argparse convention).
"""

import argparse
import sys
from collections import Counter

from repro.core.config import AikidoConfig
from repro.harness.runner import build_aikido_system
from repro.workloads.parsec import benchmark_names, build_benchmark

THREADS = 4
QUANTUM = 200
JITTER = 0.1
#: Code objects listed under the totals.
TOP = 15


def count_opcodes(benchmark: str, scale: float, seed: int):
    """Run the stack once; returns ``(per-code Counter, instructions)``."""
    system = build_aikido_system(
        build_benchmark(benchmark, threads=THREADS, scale=scale),
        seed=seed, quantum=QUANTUM, jitter=JITTER, config=AikidoConfig())
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        system.run()
    finally:
        sys.settrace(None)
    instructions = system.engine.stats.instructions
    system.kernel.close()
    return counts, instructions


def label(code) -> str:
    """Generated bodies are one row per file name; the rest by
    ``module:function``."""
    name = code.co_filename
    if name.startswith("<"):
        return name
    marker = "/repro/"
    if marker in name:
        name = "repro/" + name.split(marker, 1)[1]
    return f"{name}:{code.co_name}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Deterministic bytecode count of one paper-stack run",
        epilog="Bundled benchmarks: " + ", ".join(benchmark_names()))
    parser.add_argument("--benchmark", default="streamcluster",
                        help="benchmark to run (default streamcluster)")
    parser.add_argument("--scale", type=float, default=3.0,
                        help="workload size multiplier (default 3.0, "
                             "perfbench's shared-heavy input)")
    parser.add_argument("--seed", type=int, default=1,
                        help="scheduler seed (default 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.benchmark not in benchmark_names():
        parser.error(f"unknown benchmark {args.benchmark!r} "
                     f"(choose from: {', '.join(benchmark_names())})")
    counts, instructions = count_opcodes(args.benchmark, args.scale,
                                         args.seed)
    rows: Counter = Counter()
    for code, n in counts.items():
        rows[label(code)] += n
    total = sum(rows.values())
    print(f"benchmark {args.benchmark}  scale {args.scale:g}  "
          f"seed {args.seed}")
    print(f"opcodes                  {total:,}")
    print(f"simulated instructions   {instructions:,}")
    print(f"opcodes per instruction  {total / max(1, instructions):.2f}")
    print()
    print(f"{'share':>6}  {'opcodes':>12}  code")
    for name, n in rows.most_common(TOP):
        print(f"{n / total:6.1%}  {n:12,}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
