"""One rendered program serves a whole oracle check, unchanged.

The oracle renders each scenario once and hands the same ``Program`` to
every tier run, the record run, lint and the static analyses. That is
only sound while nothing downstream mutates a program: SMC
invalidation, chaos flushes and re-JITs must all act on code-cache
copies. (Generated scenarios address memory through base registers
only, so AikidoSD's rewrite of direct operands never fires here; the
workload parity tests cover that path.)
"""

from repro.machine.program import Program
from repro.scengen import oracle
from repro.scengen.generator import QUICK_CONFIG, generate
from repro.scengen.oracle import (
    QUICK_BUDGET,
    TIERS,
    _record_trace,
    _rendered,
    default_tier_runner,
)
from repro.staticanalysis.analysiscache import program_fingerprint

#: A quick scenario with both an SMC invalidation cadence and a chaos
#: plan, two workers, a barrier, a locked region and shared stores.
SEED = 104


def _snapshot(program: Program):
    return (program_fingerprint(program),
            [repr(instr) for instr in program.iter_instructions()])


def test_no_tier_or_recorder_mutates_the_shared_program():
    ir = generate(SEED, QUICK_CONFIG)
    assert ir.smc_period and ir.chaos_seed is not None
    program, info = _rendered(ir)
    assert info.smc_uids
    before = _snapshot(program)
    for mode in ("fasttrack", "aikido-fasttrack"):
        for tier in TIERS:
            outcome = default_tier_runner(ir, mode, tier, QUICK_BUDGET)
            assert outcome[0] == "ok", outcome
            assert _rendered(ir)[0] is program
    assert _record_trace(ir, QUICK_BUDGET) is not None
    assert _rendered(ir)[0] is program
    assert _snapshot(program) == before


def test_render_memo_is_keyed_by_ir_value():
    ir = generate(SEED, QUICK_CONFIG)
    program, _ = _rendered(ir)
    assert _rendered(generate(SEED, QUICK_CONFIG))[0] is program
    other, _ = _rendered(generate(SEED + 1, QUICK_CONFIG))
    assert other is not program
    assert oracle._last_render[0] == generate(SEED + 1, QUICK_CONFIG)
