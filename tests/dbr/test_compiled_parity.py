"""The block-compiled and superblock tiers must be observationally
identical to the interpreter tier.

Six layers of evidence:

* differential runs over every bundled workload (plain, under chaos
  injection, and with tracing/metrics on) comparing the full simulated
  surface — cycles, run stats, per-category breakdown, attribution,
  detector profile, hypervisor stats, chaos payload and race reports —
  across all three execution tiers;
* seeded Hypothesis fuzzing over generated multithreaded programs,
  drawing scenarios from the shared ``repro.scengen`` generator (the
  same distributions ``aikido-repro fuzz`` campaigns use);
* unit tests that every invalidation event (re-JIT, full flush, chaos
  cache flush, residency-overhead change) drops the stale closure, and
  that the TLB's translation micro-caches track its entry table through
  fill/invalidate/flush/eviction;
* superblock-tier units: chains form and complete on hot loops, the
  side-exit accounting identity holds, invalidation storms (SMC
  cadences) drop superblocks without breaking parity, and quantum
  tails too short for a whole chain run through block bodies clipped
  to the budget, down to a quantum of one instruction;
  hooked accesses inside a body show every hook the reference tier's
  counters and pc, survive a hook that re-JITs or drops translations,
  fault and retry like a compiled step, and take both arms of the
  Fig. 4 check when a page turns shared under a live body;
* bounded entries and grouped page probes, stepped in lockstep with the
  interpreter: a chain entered with every remaining budget, a probe
  group straddling a page, a read-only group head whose member store
  faults, a stale prefix dropping its parent, and thrash counted on the
  parent;
* quiet hooks, called with nothing booked in front of them: a chain
  that parks in another member after a quiet hook's resumed tail, the
  same runs with the hooks forced observing, and a call budget of zero
  ``hooked`` exits on the untraced paper stack.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import costs
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.dbr import blockcompiler
from repro.dbr.blockcompiler import _probe_groups
from repro.dbr.codecache import CachedBlock
from repro.dbr.engine import DBREngine
from repro.dbr.superblock import EXIT_FAULT, THRASH_MIN_ENTRIES
from repro.dbr.tool import Tool
from repro.errors import InvariantViolationError, ReproError
from repro.guestos.kernel import Kernel
from repro.guestos.signals import SIGSEGV, HandlerResult
from repro.harness.runner import (build_aikido_system, run_mode,
                                  system_result)
from repro.machine.asm import ProgramBuilder
from repro.machine.isa import Opcode
from repro.machine.paging import (PAGE_SHIFT, PAGE_SIZE, PTE_PRESENT,
                                  PTE_USER, PTE_WRITABLE)
from repro.machine.tlb import TLB
from repro.scengen.scenario import render
from repro.scengen.strategies import scenario_irs
from repro.workloads.parsec import benchmark_names, build_benchmark

PARITY_FIELDS = ("cycles", "run_stats", "cycle_breakdown", "aikido_stats",
                 "hypervisor_stats", "detector_profile", "chaos",
                 "cycle_attribution")


def surface(result):
    """Everything the tiers must agree on, as one comparable value."""
    fields = {name: getattr(result, name) for name in PARITY_FIELDS}
    fields["races"] = [r.describe() for r in result.races]
    return fields


#: ``(compile_blocks, superblocks)`` per tier, superblock first so the
#: common unpacking reads ``superblock, compiled, interp = ...``.
TIER_KNOBS = ((True, True), (True, False), (False, False))


def run_all_tiers(program_factory, mode="aikido-fasttrack", **kwargs):
    """Run superblock, compiled and interpreter tiers; each outcome is
    either a result surface or an exception (hostile chaos runs may
    legitimately raise — identically in every tier)."""
    outcomes = []
    for compile_blocks, superblocks in TIER_KNOBS:
        tier_kwargs = dict(kwargs)
        if mode == "aikido-fasttrack":
            config = tier_kwargs.pop("config", None) or AikidoConfig()
            config.compile_blocks = compile_blocks
            config.superblocks = superblocks
            tier_kwargs["config"] = config
        else:
            tier_kwargs["compile_blocks"] = compile_blocks
            tier_kwargs["superblocks"] = superblocks
        try:
            outcomes.append(
                ("ok", surface(run_mode(program_factory(), mode,
                                        **tier_kwargs))))
        except ReproError as exc:
            outcomes.append(("raised", type(exc).__name__, str(exc)))
    return outcomes


class TestWorkloadParity:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_plain_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100)
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["freqmine", "canneal", "vips"])
    def test_chaos_recovery_run_bit_identical(self, name):
        def config():
            return AikidoConfig(
                chaos=ChaosPlan.recovery(seed=11, intensity=0.3),
                check_invariants=True)

        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100, config=config())
        assert compiled[0] == "ok", compiled
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["blackscholes", "streamcluster"])
    def test_hostile_chaos_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(
                chaos=ChaosPlan.hostile(seed=13, intensity=0.2)))
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["bodytrack", "x264"])
    def test_traced_run_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(trace=True, metrics_cadence=25))
        assert superblock == compiled == interp

    @pytest.mark.parametrize("name", ["canneal", "raytrace"])
    def test_fasttrack_mode_bit_identical(self, name):
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark(name, threads=2, scale=0.05),
            mode="fasttrack", seed=2, quantum=100)
        assert superblock == compiled == interp


# ----------------------------------------------------------------------
# seeded fuzzing over generated scenarios (repro.scengen strategies)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(scenario_irs(chaos=False))
def test_fuzzed_scenarios_fasttrack_parity(ir):
    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0], mode="fasttrack",
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000)
    assert superblock == compiled == interp


@settings(max_examples=10, deadline=None)
@given(scenario_irs(chaos=False))
def test_fuzzed_scenarios_aikido_parity(ir):
    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0],
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000)
    assert superblock == compiled == interp


@settings(max_examples=8, deadline=None)
@given(scenario_irs(chaos=True).filter(
    lambda ir: ir.chaos_seed is not None))
def test_fuzzed_chaotic_scenarios_aikido_parity(ir):
    def config():
        return AikidoConfig(chaos=ChaosPlan.recovery(
            seed=ir.chaos_seed, intensity=ir.chaos_intensity))

    superblock, compiled, interp = run_all_tiers(
        lambda: render(ir)[0],
        seed=ir.sched_seed, quantum=ir.quantum, jitter=ir.jitter,
        max_instructions=300_000, config=config())
    assert superblock == compiled == interp


# ----------------------------------------------------------------------
# closure invalidation
# ----------------------------------------------------------------------
def _counting_program(iters=10):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
    b.halt()
    return b.build()


def _engine():
    kernel = Kernel(seed=0, quantum=100, jitter=0.0)
    kernel.create_process(_counting_program())
    engine = DBREngine(kernel)
    thread = kernel.process.threads[1]
    return kernel, engine, thread


class RecordingTracer:
    def __init__(self):
        self.instants = []

    def instant(self, name, category, **attrs):
        self.instants.append((name, attrs))

    def span(self, name, category, **attrs):
        import contextlib
        return contextlib.nullcontext()


class TestClosureInvalidation:
    def test_first_entry_compiles_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=1)
        cached = engine.codecache._blocks[0]
        assert cached.compiled is not None
        assert cached.compiled.overhead == costs.DBR_BASE_PER_INSTR
        assert engine.codecache.closures_compiled == 1

    def test_rejit_drops_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=1)  # stay inside block 0
        uid = engine.codecache._blocks[0].instrs[0].uid
        dropped_before = engine.codecache.closures_dropped
        compiled_before = engine.codecache.closures_compiled
        assert engine.invalidate_instruction(uid) == 1
        assert engine.codecache.closures_dropped == dropped_before + 1
        # Re-entry rebuilds and recompiles from program text.
        engine.run(thread, budget=1)
        assert engine.codecache._blocks[0].compiled is not None
        assert engine.codecache.closures_compiled == compiled_before + 1

    def test_invalidate_all_drops_every_closure(self):
        _, engine, thread = _engine()
        engine.run(thread, budget=50)  # touches both blocks
        compiled = sum(1 for c in engine.codecache._blocks.values()
                       if c.compiled is not None)
        assert compiled >= 2
        tracer = RecordingTracer()
        engine.codecache.tracer = tracer
        assert engine.codecache.invalidate_all() >= compiled
        assert engine.codecache.closures_dropped == compiled
        reasons = {attrs["reason"] for name, attrs in tracer.instants
                   if name == "closure_invalidate"}
        assert reasons == {"flush_all"}

    def test_overhead_change_recompiles_closure(self):
        # The AikidoSD install path: residency overhead changes after
        # blocks were already compiled, so the baked per-instruction
        # charge is stale and the block must recompile on next entry.
        _, engine, thread = _engine()
        engine.run(thread, budget=1)  # stay inside block 0
        old = engine.codecache._blocks[0].compiled
        assert old.overhead == costs.DBR_BASE_PER_INSTR
        tracer = RecordingTracer()
        engine.codecache.tracer = tracer
        engine.overhead_per_instr = costs.AIKIDO_RESIDENCY_PER_INSTR
        engine.run(thread, budget=3)
        new = engine.codecache._blocks[0].compiled
        assert new is not old
        assert new.overhead == costs.AIKIDO_RESIDENCY_PER_INSTR
        assert ("closure_invalidate",
                {"block": 0, "reason": "stale_overhead"}) in tracer.instants

    def test_sharing_fault_rejit_drops_closures_in_full_stack(self):
        system = build_aikido_system(
            build_benchmark("canneal", threads=2, scale=0.05),
            seed=2, quantum=100)
        system.run()
        cache = system.engine.codecache
        assert system.stats.rejit_flushes > 0
        assert cache.closures_dropped > 0
        assert cache.closures_compiled > cache.closures_dropped

    def test_chaos_cache_flush_drops_closures(self):
        system = build_aikido_system(
            build_benchmark("freqmine", threads=2, scale=0.05),
            seed=2, quantum=100,
            config=AikidoConfig(
                chaos=ChaosPlan.recovery(seed=11, intensity=0.5)))
        system.run()
        delivered = system.chaos.as_dict()["delivered"]
        assert delivered.get("codecache_flush", 0) > 0
        assert system.engine.codecache.closures_dropped > 0


# ----------------------------------------------------------------------
# superblock tier
# ----------------------------------------------------------------------
def _hot_loop_program(iters=800):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    with b.loop(counter=2, count=iters):
        b.load(5, base=4, disp=0)
        b.add(5, 5, imm=1)
        b.store(5, base=4, disp=0)
        b.xor(6, 5, imm=0x55)
    b.halt()
    return b.build()


def _bare_run(program_factory, quantum=100, smc_period=0,
              **engine_kwargs):
    """One bare-engine run; returns (parity surface, engine).

    ``smc_period`` > 0 installs the oracle-style self-modifying-code
    cadence: every ``period`` scheduler ticks one program instruction
    is invalidated, forcing a re-JIT (and superblock-drop) storm at
    identical points in every tier.
    """
    program = program_factory()
    kernel = Kernel(seed=3, quantum=quantum, jitter=0.1)
    kernel.create_process(program)
    engine = DBREngine(kernel, **engine_kwargs)
    if smc_period:
        uids = [instr.uid for instr in program.iter_instructions()][:4]
        state = {"ticks": 0}

        def _tick():
            state["ticks"] += 1
            if state["ticks"] % smc_period == 0:
                fired = state["ticks"] // smc_period
                engine.invalidate_instruction(
                    uids[(fired - 1) % len(uids)])

        kernel.tick_hooks.append(_tick)
    kernel.run()
    return (kernel.counter.total, engine.stats.as_dict(),
            kernel.counter.snapshot()), engine


class TestSuperblockTier:
    def test_forms_and_completes_on_hot_loop(self):
        got, engine = _bare_run(_hot_loop_program,
                                compile_blocks=True, superblocks=True)
        snapshot = engine.superblock_snapshot()
        assert snapshot["superblocks_built"] >= 1
        assert snapshot["completions"] > 0
        assert snapshot["instructions"] > 0
        want, _ = _bare_run(_hot_loop_program, compile_blocks=False)
        assert got == want

    def test_disabled_without_block_compiler(self):
        # superblocks stitch *compiled* blocks; an interpreter-only
        # engine has nothing to stitch and the tier must stay off.
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=False, superblocks=True)
        assert engine.superblock_snapshot() is None

    @pytest.mark.parametrize("name",
                             ["blackscholes", "canneal", "bodytrack"])
    def test_entry_accounting_identity(self, name):
        # Every superblock entry retires as exactly one of completion
        # or side exit — nothing double-counted, nothing lost.
        _, engine = _bare_run(
            lambda: build_benchmark(name, threads=2, scale=0.1),
            compile_blocks=True, superblocks=True)
        snapshot = engine.superblock_snapshot()
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    @pytest.mark.parametrize("quantum", [1, 2, 3, 13, 31, 50])
    def test_quantum_tail_parity(self, quantum):
        # A quantum tail shorter than a whole chain must fall back to
        # the compiled tier for those steps — bit-identically.
        got, engine = _bare_run(_hot_loop_program, quantum=quantum,
                                compile_blocks=True, superblocks=True)
        want, _ = _bare_run(_hot_loop_program, quantum=quantum,
                            compile_blocks=False)
        assert got == want
        snapshot = engine.superblock_snapshot()
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    @pytest.mark.parametrize("quantum", [3, 7])
    def test_paper_stack_quantum_tail_parity(self, quantum):
        # Quanta this short end block bodies at almost every position,
        # so hooked accesses on the paper's stack are entered mid-block
        # and sit at budget stops.
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark("streamcluster", threads=2,
                                    scale=0.3),
            seed=3, quantum=quantum)
        assert superblock[0] == "ok", superblock
        assert superblock == compiled == interp
        assert superblock[1]["run_stats"]["instrumented_execs"] > 0

    def test_rejit_drops_member_superblocks_and_resets_gate(self):
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=True, superblocks=True)
        sb_cache = engine.superblock_cache
        assert sb_cache.by_head, "hot loop never built a superblock"
        head, sb = next(iter(sb_cache.by_head.items()))
        member = sb.members[0].block_index
        uid = engine.codecache._blocks[member].instrs[0].uid
        tracer = RecordingTracer()
        engine.tracer = tracer
        dropped_before = sb_cache.dropped
        assert engine.invalidate_instruction(uid) >= 1
        assert sb_cache.dropped > dropped_before
        assert head not in sb_cache.by_head
        # The rebuilt block gets a fresh chance: no ban, no backoff.
        assert member not in sb_cache.banned
        assert member not in sb_cache.attempt_after
        drops = [attrs for name, attrs in tracer.instants
                 if name == "superblock_drop"]
        assert drops and drops[0]["reason"] == "flush"
        assert drops[0]["dropped"] >= 1

    def test_smc_invalidation_storm_parity(self):
        # The oracle's self-modifying-code cadence at a storm-level
        # period: superblocks must form, be torn down repeatedly, and
        # never perturb the simulated surface.
        interp, _ = _bare_run(_hot_loop_program, quantum=50,
                              smc_period=3, compile_blocks=False)
        compiled, _ = _bare_run(_hot_loop_program, quantum=50,
                                smc_period=3, compile_blocks=True,
                                superblocks=False)
        superblock, engine = _bare_run(_hot_loop_program, quantum=50,
                                       smc_period=3,
                                       compile_blocks=True,
                                       superblocks=True)
        assert interp == compiled == superblock
        snapshot = engine.superblock_snapshot()
        assert snapshot["superblocks_built"] >= 1
        assert snapshot["superblocks_dropped"] >= 1

    def test_full_flush_drops_every_superblock(self):
        _, engine = _bare_run(_hot_loop_program,
                              compile_blocks=True, superblocks=True)
        sb_cache = engine.superblock_cache
        assert sb_cache.by_head
        engine.codecache.invalidate_all()
        assert not sb_cache.by_head
        assert sb_cache.dropped >= 1

    def test_runtime_drop_is_traced_with_its_reason(self):
        # Drops decided in the dispatch loop (stale overhead, stale
        # identity guard, thrash) go through the same traced path as
        # listener-driven ones.
        kernel = Kernel(seed=3, quantum=100, jitter=0.0)
        kernel.create_process(_hot_loop_program())
        engine = DBREngine(kernel)
        thread = kernel.process.threads[1]
        engine.run(thread, budget=2000)
        assert engine.superblock_cache.by_head
        tracer = RecordingTracer()
        engine.tracer = tracer
        engine.overhead_per_instr = costs.AIKIDO_RESIDENCY_PER_INSTR
        engine.run(thread, budget=200)
        reasons = [attrs["reason"] for name, attrs in tracer.instants
                   if name == "superblock_drop"]
        assert "stale_overhead" in reasons

    def test_pointer_table_switches_arms_inside_a_live_body(self):
        # One register-indirect load reads through a pointer table,
        # alternating between main's private block and a shared block.
        # Midway the other thread writes the private block, which goes
        # PRIVATE -> SHARED while the superblock holding the load lives.
        (superblock, system), (compiled, _), (interp, _) = \
            _paper_stack_tiers(_pointer_table_program, AikidoConfig)
        assert superblock == compiled == interp
        sb_cache = system.engine.superblock_cache
        hooked = {head for head, sb in sb_cache.by_head.items()
                  if any(h is not None for m in sb.members
                         for h in m.hooks)}
        assert hooked, "no superblock holds the hooked load"
        # Built while the private block was still private, and still
        # live at the end: the transition happened under it.
        tracer = system.engine.tracer
        assert any(transitions < system.stats.shared_transitions
                   for head, transitions in tracer.builds
                   if head in hooked)
        assert system.stats.private_fastpath > 0
        assert system.stats.shared_accesses > 0
        assert any(member < last for member, last, _ in tracer.side_exits)
        snapshot = system.engine.superblock_snapshot()
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    def test_fault_exit_retries_like_a_mem_step(self):
        # A hooked access that faults inside the body leaves through the
        # fault exit. A preempt delivered during that fault's repair
        # must yield at the retry, as it does after a MEM step's fault.
        (superblock, system), (compiled, _), (interp, _) = \
            _paper_stack_tiers(
                lambda: build_benchmark("canneal", threads=2, scale=0.3),
                lambda: AikidoConfig(chaos=ChaosPlan.single(
                    "preempt", seed=13, intensity=0.5)))
        assert superblock == compiled == interp
        assert any(code == EXIT_FAULT
                   for _, _, code in system.engine.tracer.side_exits)

    def test_hook_sees_reference_state(self):
        # A hook observes the cycle counter, the retired-instruction
        # count and the pc; the superblock body must have booked its
        # retired prefix and parked pc before every call.
        logs = [_recording_run(*knobs) for knobs in TIER_KNOBS]
        assert logs[0][1]["superblocks_built"] >= 1
        assert logs[0][0] == logs[1][0] == logs[2][0]

    @pytest.mark.parametrize("flush_at", [301, 302, 777])
    def test_hook_that_flushes_another_member(self, flush_at):
        # A hook re-JITs another member's instruction once, mid-body:
        # the body must end right after the hooked access and the
        # engine re-fetch, exactly like the reference tier.
        logs = [_recording_run(*knobs, flush_at=flush_at)
                for knobs in TIER_KNOBS]
        assert logs[0][1]["superblocks_built"] >= 1
        assert logs[0][1]["superblocks_dropped"] >= 1
        assert logs[0][0] == logs[1][0] == logs[2][0]

    def test_hook_that_drops_translations(self):
        # A hook may change any translation, so the body forgets its
        # hoisted probes at every hook call: here every 5th hooked load
        # flushes the thread's TLB, and the unhooked store after it
        # must miss again, as it does in the reference tier.
        logs = [_recording_run(*knobs, program=_two_page_loop_program,
                               hook_ops=(Opcode.LOAD,), drop_tlb_every=5)
                for knobs in TIER_KNOBS]
        assert logs[0][1]["superblocks_built"] >= 1
        assert logs[0][0] == logs[1][0] == logs[2][0]

    @pytest.mark.parametrize("misalign_at", [300, 601])
    def test_hook_returning_misaligned_address_raises_alike(self,
                                                            misalign_at):
        # The body's fast-map probe must not stand in for the alignment
        # check: a misaligned override reaches the word store's raise.
        outcomes = []
        for knobs in TIER_KNOBS:
            with pytest.raises(ReproError) as info:
                _recording_run(*knobs, misalign_at=misalign_at)
            tool = info.value.tool
            outcomes.append((type(info.value), str(info.value), tool.log,
                             tool.engine.counter.total,
                             tool.engine.stats.as_dict()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_traced_paper_stack_hook_instants_match(self):
        # shared_access and instrument instants carry the simulated
        # timestamp at the hook call: it must not depend on the tier.
        streams = []
        for compile_blocks, superblocks in TIER_KNOBS:
            system = build_aikido_system(
                build_benchmark("streamcluster", threads=2, scale=0.5),
                seed=3, quantum=100,
                config=AikidoConfig(trace=True,
                                    compile_blocks=compile_blocks,
                                    superblocks=superblocks))
            system.run()
            assert system.tracer.dropped == 0
            streams.append([
                (e.name, e.ts, e.tid, e.args)
                for e in system.tracer.events
                if e.name in ("shared_access", "instrument")])
            if superblocks:
                assert system.engine.superblock_cache.built >= 1
        assert any(e[0] == "shared_access" for e in streams[0])
        assert streams[0] == streams[1] == streams[2]


def _pointer_table_program(iters=600, delay=300):
    b = ProgramBuilder("pointer-table")
    private = b.segment("private", 64)
    shared = b.segment("shared", 64)
    table = b.segment("table", 16)
    b.label("main")
    b.li(4, private)
    b.li(5, shared)
    b.li(6, table)
    b.store(4, base=6, disp=0)      # table[0] = &private
    b.store(5, base=6, disp=8)      # table[1] = &shared
    b.store(4, base=4, disp=0)      # main owns both blocks first
    b.store(5, base=5, disp=0)
    b.li(3, 0)
    b.spawn(7, "other", arg_reg=3)
    with b.loop(counter=2, count=iters):
        b.and_(8, 2, imm=1)
        b.shl(8, 8, imm=3)
        b.add(8, 8, 6)
        b.load(9, base=8, disp=0)   # pointer from the table
        b.load(10, base=9, disp=0)  # the pointer-indirect load
        b.add(11, 11, 10)
        b.add(12, 12, imm=3)
    b.join(7)
    b.halt()
    b.label("other")
    b.li(4, shared)
    b.store(4, base=4, disp=8)      # shared: PRIVATE -> SHARED at once
    with b.loop(counter=2, count=delay):
        b.add(13, 13, imm=1)
    b.li(4, private)
    b.store(4, base=4, disp=8)      # private: PRIVATE -> SHARED midway
    b.halt()
    return b.build()


class _SuperblockTracer(RecordingTracer):
    """Notes each superblock build with the shared-transition count at
    that moment, and each side exit's member, chain end and code."""

    def __init__(self, system):
        super().__init__()
        self.system = system
        self.builds = []
        self.side_exits = []

    def instant(self, name, category, **attrs):
        if name == "superblock_build":
            self.builds.append((attrs["head"],
                                self.system.stats.shared_transitions))
        elif name == "superblock_side_exit":
            sb = self.system.engine.superblock_cache.by_head.get(
                attrs["head"])
            if sb is not None:
                self.side_exits.append((attrs["member"],
                                        len(sb.members) - 1,
                                        attrs["code"]))


def _paper_stack_tiers(program_factory, config_factory):
    """The paper stack on every tier: ``(surface, system)`` each, the
    superblock tier's engine traced by a :class:`_SuperblockTracer`."""
    runs = []
    for compile_blocks, superblocks in TIER_KNOBS:
        config = config_factory()
        config.compile_blocks = compile_blocks
        config.superblocks = superblocks
        system = build_aikido_system(program_factory(), seed=3,
                                     quantum=100, config=config)
        if superblocks:
            system.engine.tracer = _SuperblockTracer(system)
        system.run()
        runs.append((surface(system_result(system)), system))
    return runs


def _two_page_loop_program(iters=800):
    b = ProgramBuilder()
    data = b.segment("data", 64)
    other = b.segment("other", 64)
    b.label("main")
    b.li(4, data)
    b.li(5, other)
    with b.loop(counter=2, count=iters):
        b.store(6, base=5, disp=0)
        b.load(7, base=4, disp=0)
        b.store(7, base=5, disp=0)
        b.add(6, 6, imm=1)
    b.halt()
    return b.build()


class _RecordingTool(Tool):
    """Hooks memory accesses and logs what the hook can observe.

    ``flush_at`` re-JITs the loop head at that call, ``drop_tlb_every``
    flushes the thread's TLB at every that many calls, ``misalign_at``
    returns a misaligned address at that call.
    """

    def __init__(self, hook_ops=None, flush_at=None, drop_tlb_every=0,
                 misalign_at=None):
        super().__init__()
        self.log = []
        self.hook_ops = hook_ops
        self.flush_at = flush_at
        self.drop_tlb_every = drop_tlb_every
        self.misalign_at = misalign_at

    def instrument_block(self, cached):
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None and (self.hook_ops is None
                                          or instr.op in self.hook_ops):
                cached.set_hook(pos, self._hook)

    def _hook(self, thread, instr, ea):
        engine = self.engine
        self.log.append((engine.counter.total, engine.stats.instructions,
                         tuple(thread.pc), ea))
        calls = len(self.log)
        if calls == self.flush_at:
            # Re-JIT the loop head, the other member of the chain.
            engine.invalidate_instruction(next(
                i.uid for i in engine.process.program.iter_instructions()
                if i.op is Opcode.BGE))
        if self.drop_tlb_every and calls % self.drop_tlb_every == 0:
            thread.tlb.flush()
        if calls == self.misalign_at:
            return ea + 4
        return None


def _recording_run(compile_blocks, superblocks,
                   program=_hot_loop_program, **tool_kwargs):
    kernel = Kernel(seed=3, quantum=100, jitter=0.1)
    kernel.create_process(program())
    engine = DBREngine(kernel, compile_blocks=compile_blocks,
                       superblocks=superblocks)
    tool = _RecordingTool(**tool_kwargs)
    engine.attach_tool(tool)
    try:
        kernel.run()
    except ReproError as exc:
        exc.tool = tool
        raise
    return ((tool.log, kernel.counter.total, engine.stats.as_dict(),
             kernel.counter.snapshot(),
             [(th.tlb.hits, th.tlb.misses)
              for th in kernel.process.threads.values()]),
            engine.superblock_snapshot())


# ----------------------------------------------------------------------
# bounded chain entry and grouped page probes, in lockstep with the
# interpreter
# ----------------------------------------------------------------------
class _Lockstep:
    """A superblock-tier engine and an interpreter-tier engine over one
    program, driven by the same ``run`` calls; every call compares what
    the two can observe afterwards."""

    def __init__(self, program_factory, tool_factory=None,
                 on_kernel=None):
        self.engines = []
        for compile_blocks in (True, False):
            kernel = Kernel(seed=3, quantum=100, jitter=0.0)
            kernel.create_process(program_factory())
            engine = DBREngine(kernel, compile_blocks=compile_blocks)
            if tool_factory is not None:
                engine.attach_tool(tool_factory())
            if on_kernel is not None:
                on_kernel(kernel)
            self.engines.append(engine)
        self.sb_cache = self.engines[0].superblock_cache

    @staticmethod
    def _thread(engine):
        return engine.kernel.process.threads[1]

    def state(self, engine):
        thread = self._thread(engine)
        return (engine.counter.snapshot(), engine.stats.as_dict(),
                list(thread.regs), list(thread.pc), thread.tlb.hits,
                thread.tlb.misses, dict(engine.cpu.memory._words))

    def run(self, budget):
        for engine in self.engines:
            engine.run(self._thread(engine), budget)
        assert self.state(self.engines[0]) == self.state(self.engines[1])

    def pc(self):
        return tuple(self._thread(self.engines[0]).pc)

    def to_head(self, sb):
        """Step both engines one instruction at a time until the next
        one to run is the head's first: pc on it, or parked past the end
        of the block that falls through into it."""
        program = self.engines[0].process.program
        while True:
            bi, ii = self.pc()
            if (bi, ii) == (sb.head, 0) or (
                    bi + 1 == sb.head
                    and ii >= len(program.block_at(bi).instructions)):
                return
            self.run(1)

    def superblock(self):
        self.run(3000)
        assert self.sb_cache.by_head, "no superblock formed"
        return next(iter(self.sb_cache.by_head.values()))


def _group_straddle_program(iters=20_000, first=PAGE_SIZE - 256, step=8):
    """A loop over a three-access group on r7, whose base walks 32 words
    from ``first`` bytes into a two-page segment: the group straddles
    the page boundary when the base lands in the last 16 bytes."""
    b = ProgramBuilder()
    data = b.segment("data", 2 * PAGE_SIZE)
    b.label("main")
    b.li(4, data + first)
    with b.loop(counter=2, count=iters):
        b.and_(7, 2, imm=31)
        b.mul(7, 7, imm=step)
        b.add(7, 7, 4)
        b.load(5, base=7, disp=0)
        b.load(6, base=7, disp=8)
        b.add(5, 5, 6)
        b.store(5, base=7, disp=16)
    b.halt()
    return b.build()


def _read_head_store_member_program(iters=4000):
    """A group whose head reads and whose member stores, behind a load
    through another base register (hooked by :class:`_BaseHookTool`)."""
    b = ProgramBuilder()
    data = b.segment("data", 64)
    b.label("main")
    b.li(4, data)
    b.li(5, data)
    with b.loop(counter=2, count=iters):
        b.load(7, base=5, disp=32)
        b.load(8, base=4, disp=0)
        b.add(8, 8, imm=1)
        b.store(8, base=4, disp=8)
        b.load(9, base=4, disp=16)
    b.halt()
    return b.build()


class _BaseHookTool(Tool):
    """Hooks the accesses through r5; the hook observes nothing."""

    def instrument_block(self, cached):
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None and instr.mem.base == 5:
                cached.set_hook(pos, lambda thread, instr, ea: None)


def _write_protect_data(kernel, every=3):
    """Write-protect the data page every ``every`` scheduler ticks; a
    SIGSEGV handler gives write access back, so a store faults once
    after each protection and is retried."""
    process = kernel.process
    vpn = process.segment_bases["data"] >> PAGE_SHIFT
    state = {"ticks": 0, "faults": 0}

    def set_flags(flags):
        process.page_table.set_flags(vpn, flags)
        for thread in process.threads.values():
            thread.tlb.invalidate(vpn)

    def on_tick():
        state["ticks"] += 1
        if state["ticks"] % every == 0:
            set_flags(PTE_PRESENT | PTE_USER)

    def on_segv(thread, info):
        state["faults"] += 1
        set_flags(PTE_PRESENT | PTE_WRITABLE | PTE_USER)
        return HandlerResult.RESUME

    kernel.tick_hooks.append(on_tick)
    process.signal_handlers[SIGSEGV] = on_segv
    return state


class TestBoundedEntryAndProbeGroups:
    def test_every_remaining_budget(self):
        # Entered with each remaining budget from 1 to the whole chain,
        # the engine runs the longest member prefix that fits (or the
        # block bodies, when not even the first member does), exactly
        # like the interpreter.
        steps = _Lockstep(lambda: _hot_loop_program(iters=20_000))
        sb = steps.superblock()
        assert len(set(sb.ends)) == len(sb.members) > 2
        for budget in range(1, sb.count + 1):
            steps.to_head(sb)
            before = (steps.sb_cache.entries, steps.sb_cache.bounded,
                      steps.sb_cache.refused)
            steps.run(budget)
            after = (steps.sb_cache.entries, steps.sb_cache.bounded,
                     steps.sb_cache.refused)
            if budget < sb.ends[0]:
                assert after == (before[0], before[1], before[2] + 1)
            else:
                # A prefix that completes early may leave budget for
                # another decision at the head.
                assert after[0] > before[0]
                assert after[1] > before[1] or budget == sb.count
            steps.run(100)
        assert steps.sb_cache.by_head[sb.head] is sb
        assert sorted(sb.prefixes) == list(range(1, len(sb.members)))
        snapshot = steps.engines[0].superblock_snapshot()
        assert snapshot["bounded"] == steps.sb_cache.bounded > 0
        assert snapshot["entries"] == (snapshot["completions"]
                                       + snapshot["side_exits"])

    def test_group_straddling_a_page_leaves_alike(self):
        steps = _Lockstep(_group_straddle_program)
        sb = steps.superblock()
        slots = [s for m in sb.members for s in m.compiled.slots]
        assert _probe_groups(slots)[1], "the chain holds no probe group"
        exits = steps.sb_cache.side_exits
        steps.run(20_000)
        assert steps.sb_cache.side_exits > exits
        assert steps.sb_cache.by_head.get(sb.head) is sb

    def test_read_head_then_store_member_that_faults(self):
        # The head's read-only probe hits, the member store's writable
        # probe misses on the write-protected page: the store takes its
        # tail with its own address, faults and is retried.
        tracer = RecordingTracer()
        states = []
        steps = _Lockstep(_read_head_store_member_program, _BaseHookTool,
                          lambda kernel: states.append(
                              _write_protect_data(kernel)))
        steps.engines[0].tracer = tracer
        for kernel in (e.kernel for e in steps.engines):
            kernel.run()
        assert steps.state(steps.engines[0]) == steps.state(steps.engines[1])
        assert states[0] == states[1] and states[0]["faults"] > 0
        program = steps.engines[0].process.program
        store = next(i for i in program.iter_instructions()
                     if i.op is Opcode.STORE)
        faulted = {attrs["member"] for name, attrs in tracer.instants
                   if name == "superblock_side_exit"
                   and attrs["code"] == EXIT_FAULT}
        assert faulted
        assert steps.sb_cache.built >= 1
        assert store.uid in {i.uid for sb in steps.sb_cache.by_head.values()
                             for m in sb.members for i in m.instrs}

    def test_stale_prefix_drops_its_parent(self):
        steps = _Lockstep(lambda: _hot_loop_program(iters=20_000))
        sb = steps.superblock()
        steps.to_head(sb)
        steps.run(sb.ends[1])  # builds the two-member prefix
        assert 2 in sb.prefixes
        steps.run(100)
        steps.to_head(sb)
        tracer = RecordingTracer()
        engine = steps.engines[0]
        engine.tracer = tracer
        # Replace a member's CompiledBlock behind the listener's back:
        # only the prefix body's identity guard can see it.
        engine._compile_block(sb.members[0], engine.overhead_per_instr)
        entries, bounded = sb.entries, steps.sb_cache.bounded
        steps.run(sb.ends[1])
        assert sb.head not in steps.sb_cache.by_head
        assert (sb.entries, steps.sb_cache.bounded) == (entries, bounded)
        assert [attrs["reason"] for name, attrs in tracer.instants
                if name == "superblock_drop"] == ["stale"]
        steps.run(2000)

    def test_thrash_is_counted_on_the_parent(self):
        # Every entry's group straddles the page, so every entry leaves
        # at its first access; bounded entries must count toward the
        # parent's eviction and ban its head.
        steps = _Lockstep(lambda: _group_straddle_program(
            first=PAGE_SIZE - 8, step=0))
        while not steps.sb_cache.by_head:
            steps.run(20)
        sb = next(iter(steps.sb_cache.by_head.values()))
        entries, bounded = sb.entries, steps.sb_cache.bounded
        while steps.sb_cache.by_head.get(sb.head) is sb:
            steps.to_head(sb)
            steps.run(sb.ends[0])
        assert sb.entries == THRASH_MIN_ENTRIES
        assert steps.sb_cache.bounded - bounded == sb.entries - entries
        assert sb.side_exits * 2 >= sb.entries
        assert sb.prefixes and all(p.entries == p.side_exits == 0
                                   for p in sb.prefixes.values())
        assert sb.head in steps.sb_cache.banned
        steps.run(2000)

# ----------------------------------------------------------------------
# quiet hooks: called straight from the body, booked at the next exit
# ----------------------------------------------------------------------
class _QuietTLBDropTool(Tool):
    """Hooks the loads quietly; the hook flushes the thread's TLB, so
    every hooked load misses its probe and the body resumes after the
    memory tail, which parks pc on the load's member."""

    def instrument_block(self, cached):
        for pos, instr in enumerate(cached.instrs):
            if instr.op is Opcode.LOAD:
                cached.set_hook(pos, self._hook, quiet=True)

    @staticmethod
    def _hook(thread, instr, ea):
        thread.tlb.flush()


def _forced_observing(monkeypatch):
    """Make every hook a tool sets quiet an observing one: the same hook
    behind a plain wrapper, set with the default."""
    set_hook = CachedBlock.set_hook

    def observing(self, position, hook, quiet=False):
        if quiet:
            def wrapped(thread, instr, ea, _hook=hook):
                return _hook(thread, instr, ea)
            hook = wrapped
        set_hook(self, position, hook)

    monkeypatch.setattr(CachedBlock, "set_hook", observing)


def _count_hooked_exits(monkeypatch):
    """Count calls of the bodies' shared ``hooked`` exit."""
    calls = [0]
    cold_paths = blockcompiler.cold_paths

    def counting(engine):
        leave, hooked, tail = cold_paths(engine)

        def counted(*args):
            calls[0] += 1
            return hooked(*args)

        return leave, counted, tail

    monkeypatch.setattr(blockcompiler, "cold_paths", counting)
    return calls


class TestQuietHooks:
    def test_full_fasttrack_canneal_matches_on_every_tier(self):
        # A quiet hooked access whose tail resumes parks pc[0] on its
        # member while the fast path leaves pc[0] alone, so the emitter
        # must forget which block pc[0] holds after it. Forgetting
        # nothing makes a later exit leave pc[0] on the wrong block:
        # canneal then finds 3 races instead of 4 on the chain tier.
        superblock, compiled, interp = run_all_tiers(
            lambda: build_benchmark("canneal", threads=4, scale=0.5),
            mode="fasttrack", seed=1, quantum=150)
        assert superblock[0] == "ok", superblock
        assert len(superblock[1]["races"]) == 4
        assert superblock == compiled == interp

    def test_resumed_tail_then_park_in_another_member(self):
        # The loop head and body alternate in one unrolled chain; the
        # body's quiet hooked load resumes after its tail every time.
        # Every bounded prefix that ends on a head member parks there,
        # after the tail parked pc[0] on the body.
        steps = _Lockstep(lambda: _hot_loop_program(iters=20_000),
                          _QuietTLBDropTool)
        sb = steps.superblock()
        heads = [i for i, m in enumerate(sb.members)
                 if m.block_index == sb.head]
        assert len(heads) > 2
        assert any(s.quiet for m in sb.members for s in m.compiled.slots)
        for budget in range(1, sb.count + 1):
            steps.to_head(sb)
            steps.run(budget)
            steps.run(100)
        assert sorted(sb.prefixes) == list(range(1, len(sb.members)))

    @pytest.mark.parametrize("mode", ["aikido-fasttrack", "fasttrack"])
    @pytest.mark.parametrize("name", ["streamcluster", "canneal"])
    def test_quiet_and_observing_hooks_agree(self, monkeypatch, name,
                                             mode):
        def runs():
            return run_all_tiers(
                lambda: build_benchmark(name, threads=2, scale=0.3),
                mode=mode, seed=3, quantum=100)

        calls = _count_hooked_exits(monkeypatch)
        quiet = runs()
        assert calls[0] == 0
        _forced_observing(monkeypatch)
        observing = runs()
        assert calls[0] > 0
        assert quiet[0][0] == "ok", quiet[0]
        assert quiet == observing
        assert quiet[0] == quiet[1] == quiet[2]

    def test_traced_stack_hooks_observe(self):
        system = build_aikido_system(
            build_benchmark("streamcluster", threads=2, scale=0.3),
            seed=3, quantum=100, config=AikidoConfig(trace=True))
        system.run()
        blocks = list(system.engine.codecache._blocks.values())
        assert any(h is not None for c in blocks for h in c.hooks)
        assert not any(c.quiet for c in blocks)

    def test_paper_stack_never_calls_the_hooked_exit(self, monkeypatch):
        """Untraced, every hook of the paper's stack is quiet: a
        regression to booking in front of each hook call (35,094 calls
        of the ``hooked`` exit on shared-heavy) fails this guard."""
        calls = _count_hooked_exits(monkeypatch)
        system = build_aikido_system(
            build_benchmark("streamcluster", threads=4, scale=3.0),
            seed=1, quantum=200, jitter=0.1, config=AikidoConfig())
        system.run()
        assert system.run_stats.instrumented_execs > 10_000
        assert calls[0] == 0


# ----------------------------------------------------------------------
# translation micro-cache maintenance
# ----------------------------------------------------------------------
_RW = 0b111  # present | writable | user
_RO = 0b101  # present | user


class TestTLBFastMaps:
    def test_fill_populates_by_permission(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RO)
        tlb.fill(3, 30, 0b001)  # kernel-only
        assert tlb.fast_ro == {1: 10 << 12, 2: 20 << 12}
        assert tlb.fast_rw == {1: 10 << 12}

    def test_refill_with_downgraded_flags_evicts_fast_entry(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(1, 10, _RO)  # write permission revoked
        assert 1 not in tlb.fast_rw
        assert tlb.fast_ro == {1: 10 << 12}
        tlb.fill(1, 10, 0b001)
        assert not tlb.fast_ro and not tlb.fast_rw

    def test_invalidate_drops_fast_entries(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.invalidate(1)
        assert 1 not in tlb.fast_ro and 1 not in tlb.fast_rw

    def test_flush_clears_fast_maps(self):
        tlb = TLB()
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RO)
        tlb.flush()
        assert not tlb.fast_ro and not tlb.fast_rw

    def test_fifo_eviction_drops_fast_entries(self):
        tlb = TLB(capacity=2)
        tlb.fill(1, 10, _RW)
        tlb.fill(2, 20, _RW)
        tlb.fill(3, 30, _RW)  # evicts vpn 1
        assert 1 not in tlb._entries
        assert 1 not in tlb.fast_ro and 1 not in tlb.fast_rw
        assert set(tlb.fast_rw) == {2, 3}

    def test_fast_maps_always_subset_of_entries(self):
        tlb = TLB(capacity=4)
        for vpn in range(10):
            tlb.fill(vpn, vpn + 100, _RW if vpn % 2 else _RO)
            assert set(tlb.fast_ro) <= set(tlb._entries)
            assert set(tlb.fast_rw) <= set(tlb.fast_ro)

    def test_monitor_catches_poisoned_fast_map(self):
        # The soundness net: if an invalidation ever updated _entries
        # but not the fast maps, the cross-layer monitor must say so.
        system = build_aikido_system(
            build_benchmark("blackscholes", threads=2, scale=0.05),
            seed=2, quantum=100, config=AikidoConfig(check_invariants=True))
        monitor = system.monitor
        monitor.check_all()  # consistent on the freshly built stack
        thread = next(iter(system.kernel.process.live_threads))
        thread.tlb.fast_rw[0xdead] = 0xbeef << 12
        with pytest.raises(InvariantViolationError, match="no backing"):
            monitor.check_all()
        del thread.tlb.fast_rw[0xdead]
        system.run()  # the poisoned map must not leak into the real run
        monitor.check_all()
