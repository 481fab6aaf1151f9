#!/usr/bin/env python3
"""Coarse wall-clock gate on a short perfbench private-heavy run.

Reads perfbench's output on stdin and checks its last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload private-heavy --seed 1 --seconds 5 \\
        | python3 scripts/perf_gate.py

Exit codes: 0 pass; 1 no result line, a line that is not JSON, an
incorrect run or failed samples; 2 ``sim_instr_per_s`` below ``FLOOR``.
"""

import argparse
import json
import sys

#: Simulated instructions per second, in perfbench's host-speed-scaled
#: units: about the geometric midpoint of the slowest unmodified run
#: (2.59M of 10) and the fastest run with superblocks forced off (1.91M
#: of 5), all at --seconds 5, seed 1, on a shared 2-core Intel Xeon with
#: Python 3.11 (docs/performance.md, "CI perf gate").
FLOOR = 2_200_000


def main() -> int:
    argparse.ArgumentParser(
        description="Gate the perfbench result read on stdin "
                    f"(floor: {FLOOR:,} sim_instr_per_s).").parse_args()
    lines = sys.stdin.read().strip().splitlines()
    try:
        line = json.loads(lines[-1])
        if line["correct"] is not True or line["failed"] > 0:
            print(f"perf gate: incorrect run (correct={line['correct']}, "
                  f"failed={line['failed']})", file=sys.stderr)
            return 1
        rate = float(line["metrics"]["sim_instr_per_s"]["value"])
    except (IndexError, ValueError, TypeError, KeyError):
        print("perf gate: no perfbench result line", file=sys.stderr)
        return 1
    passed = rate >= FLOOR
    print(f"perf gate: sim_instr_per_s {rate:,.0f}, floor {FLOOR:,}: "
          + ("ok" if passed else "below the floor"))
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
