#!/usr/bin/env python
"""Explain a race with a happens-before graph, then show its flakiness.

Two things the FastTrack report alone doesn't tell you:

1. *Why* is this a race? The happens-before graph answers with the
   missing synchronization chain (or shows the chain that orders a
   non-race).
2. *Would another run have caught it?* Happens-before detection is
   schedule-dependent (paper §7.3); the schedule explorer quantifies the
   detection rate across seeds.

    python examples/explain_race.py
"""

from repro.analyses.generic_tool import FullInstrumentationTool
from repro.analyses.hbgraph import HBGraph, explain_pair
from repro.analyses.record import TraceRecorder
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.harness.explore import explore, render_exploration
from repro.workloads import micro


def record_full(program, seed=3, quantum=5):
    """Ground-truth trace: every access, not just shared-page ones."""
    kernel = Kernel(seed=seed, quantum=quantum, jitter=0.0)
    kernel.create_process(program)
    engine = DBREngine(kernel)
    recorder = TraceRecorder()
    engine.attach_tool(FullInstrumentationTool(kernel, recorder))
    kernel.run()
    return recorder.trace


def main():
    # 1. Record a ground-truth execution of the racy-flag program.
    program, info = micro.racy_flag()
    trace = record_full(program)

    graph = HBGraph(trace)
    block = info["flag"] // 8
    pairs = graph.racing_pairs(block)
    print("=== happens-before analysis of the flag word ===")
    if pairs:
        for a, b in pairs[:3]:
            print(" ", explain_pair(graph, a, b))
    else:
        print("  this schedule ordered the accesses — see below why that")
        print("  doesn't mean the program is race free")

    # Contrast with a properly locked program.
    program2, info2 = micro.locked_counter(2, 5)
    graph2 = HBGraph(record_full(program2))
    nodes = graph2.accesses_to_block(info2["counter"] // 8)
    cross = [(a, b) for a in nodes for b in nodes
             if a < b and graph2.trace[a][1] != graph2.trace[b][1]]
    if cross:
        print("\n=== the locked counter, for contrast ===")
        print(" ", explain_pair(graph2, *cross[0]))

    # 2. Schedule exploration: how often is the flag race even visible?
    print("\n=== schedule exploration (racy_flag, 10 seeds x 2 quanta) ===")
    result = explore(lambda: micro.racy_flag()[0], seeds=range(10),
                     quanta=(3, 20))
    print(render_exploration(result))
    print("\nLesson: a single clean run proves nothing; the §6/§7.3")
    print("discussion of schedule dependence is about exactly this.")


if __name__ == "__main__":
    main()
