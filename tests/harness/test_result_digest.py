"""Pin every simulated result of both analysis modes on the PARSEC suite.

The full-instrumentation baseline and the paper's Aikido stack share one
detector protocol and one sync-event table; a refactor of that glue must
leave each run bit-identical. The digest covers cycles, run stats
(including ``tool_invocations``), the cycle breakdown, the races, the
detector profile and the Aikido and hypervisor stats.
"""

import hashlib
import json

from repro.harness.runner import run_mode
from repro.workloads.parsec import benchmark_names, build_benchmark

DIGEST = (
    "5c76f4406f8f515baa46eff09f60df03bcef671a8ff0fe757ce0e40bdd3f0902")


def _result_record(result):
    return {
        "cycles": result.cycles,
        "run_stats": result.run_stats,
        "breakdown": result.cycle_breakdown,
        "races": [(r.kind, r.block, r.address, r.prior_epoch,
                   r.current_tid, r.current_clock, r.instr_uid)
                  for r in result.races],
        "detector_profile": result.detector_profile,
        "aikido_stats": result.aikido_stats,
        "hypervisor_stats": result.hypervisor_stats,
    }


def test_fasttrack_and_aikido_results_are_pinned():
    records = {}
    for name in benchmark_names():
        for mode in ("fasttrack", "aikido-fasttrack"):
            program = build_benchmark(name, threads=4, scale=1.0)
            result = run_mode(program, mode, seed=3, quantum=100)
            records[f"{name}/{mode}"] = _result_record(result)
    blob = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
