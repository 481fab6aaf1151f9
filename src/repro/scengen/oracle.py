"""Differential oracle: every layer must tell the same story.

One scenario is run through the full cross-section of the stack and the
results are compared pairwise; any disagreement is a structured verdict
entry, never an assertion — the campaign runner decides what to do with
it (report, journal, hand to the reducer).

Checks
======

``tier_parity_fasttrack``   interp vs block-compiled tier under full
                            FastTrack instrumentation: bit-identical
                            cycles, stats, breakdown and race reports.
``tier_parity_fasttrack_superblock``
                            interp vs the superblock tier (compiled
                            blocks plus trace-chained superblocks)
                            under FastTrack — same bit-identical
                            surface.
``tier_parity_aikido``      the same for the full Aikido stack (with
                            the scenario's chaos plan, if any).
``tier_parity_aikido_superblock``
                            interp vs superblock tier for the full
                            Aikido stack.
``schedule_replay``         re-running the interp tier from the same
                            ``(sched_seed,)`` replays bit-identically —
                            the scheduler-RNG unification guarantee.
``chaos_replay``            chaotic scenarios replay bit-identically
                            from ``(sched_seed, chaos_seed)`` alone.
``record_replay_fidelity``  a FastTrack detector replayed from the
                            recorded trace reports exactly the live
                            run's races.
``fasttrack_djit_agreement`` FastTrack and DJIT+ replayed from one
                            trace flag the same variable blocks.
``eraser_determinism``      Eraser replayed twice from one trace
                            produces identical reports (Eraser's
                            fork/join blindness makes its report *set*
                            incomparable, but it must be stable).
``eventlog_roundtrip``      the recorded trace encodes to the binary
                            event-log format and decodes back
                            entry-exact, with byte-stable re-encoding
                            (the ``repro.eventlog`` canonicality
                            contract).
``cross_analysis_agreement`` the replay fan-out invariant over all four
                            detectors replayed from one trace:
                            FastTrack and DJIT+ flag identical blocks,
                            and memtag's blocks are a subset of
                            Eraser's (tag collisions only suppress).
``classifier_soundness``    no statically PROVABLY_PRIVATE instruction
                            ever touched a dynamically shared page.
``static_race_superset``    every dynamic FastTrack race maps to a
                            static (uid, uid) pair that is NOT
                            ``STATICALLY_RACE_FREE`` — the static race
                            analyzer must over-approximate the dynamic
                            one (zero false negatives).
``lint_clean``              the rendered scenario has no error-severity
                            lint findings (the generator only emits
                            well-formed programs, and ``aikido-repro
                            fuzz`` lints what it runs).
``aikido_subset``           Aikido's live races are a subset of full
                            FastTrack's (the §6 first-touch blind spot
                            only removes reports). Skipped under chaos,
                            where the schedules legitimately diverge.

Self-modifying code is modeled at the DBR layer: the guest cannot write
code pages, so an SMC scenario periodically invalidates a worker's
entry instruction via ``engine.invalidate_instruction`` from a kernel
tick hook — the same cadence in both tiers, forcing re-JIT storms the
tiers must absorb identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.fasttrack.tool import FastTrackTool
from repro.analyses.generic_tool import FullInstrumentationTool
from repro.analyses.memtag import MemTagDetector
from repro.analyses.record import FullTraceRecorder, replay_into
from repro.chaos.invariants import cross_analysis_disagreements
from repro.chaos.plan import ChaosPlan
from repro.eventlog.encoding import decode_entries, encode_entries
from repro.core.config import AikidoConfig
from repro.dbr.engine import DBREngine
from repro.errors import ReproError
from repro.guestos.kernel import Kernel
from repro.harness.runner import (
    _detector_profile,
    _engine_run_stats,
    build_aikido_system,
    system_result,
)
from repro.analyses.fasttrack.epoch import epoch_tid
from repro.machine.paging import PAGE_SHIFT
from repro.machine.program import Program
from repro.scengen.scenario import RenderInfo, ScenarioIR, render
from repro.staticanalysis import RaceVerdict, SharingClass, lint_program
from repro.staticanalysis.analysiscache import analysis_for

#: Per-run instruction budgets; exceeding one raises HarnessError in
#: every tier identically, so runaway scenarios still agree.
QUICK_BUDGET = 300_000
FULL_BUDGET = 2_000_000

BLOCK_SIZE = 8

#: An outcome is ("ok", surface_dict) or ("raised", type_name, message).
Outcome = Tuple

TierRunner = Callable[..., Outcome]


def install_smc(kernel, engine, uids: Tuple[int, ...],
                period: int) -> None:
    """Invalidate one scenario instruction every ``period`` quanta.

    Host-side and purely cadence-driven, so both tiers (and a replay)
    see identical invalidation points.
    """
    if not period or not uids:
        return
    state = {"ticks": 0}

    def _tick():
        state["ticks"] += 1
        if state["ticks"] % period == 0:
            fired = state["ticks"] // period
            engine.invalidate_instruction(uids[(fired - 1) % len(uids)])

    kernel.tick_hooks.append(_tick)


#: ``(ir, render(ir))`` for the scenario rendered last. Rendering is a
#: pure function of the frozen IR and no tier, recorder or analysis
#: mutates a ``Program``, so one check renders its scenario once and
#: every tier run, the record run, lint and the static analyses share
#: that program.
_last_render: Tuple = (None, None)


def _rendered(ir: ScenarioIR) -> Tuple[Program, RenderInfo]:
    """``render(ir)``, memoized for the most recent IR only."""
    global _last_render
    last_ir, rendered = _last_render
    if last_ir is not ir and last_ir != ir:
        rendered = render(ir)
        _last_render = (ir, rendered)
    return rendered


def _race_payload(races) -> Dict:
    return {
        "races": sorted(r.describe() for r in races),
        "race_keys": sorted([r.block, r.kind] for r in races),
    }


#: Execution tiers the oracle crosses every mode with.  Each maps to
#: the (compile_blocks, superblocks) engine knobs; both are passed
#: explicitly because the engine defaults superblocks on.
TIERS = ("interp", "compiled", "superblock")


def _tier_flags(tier: str) -> Tuple[bool, bool]:
    if tier not in TIERS:
        raise ValueError(f"oracle tier {tier!r} unknown")
    return tier != "interp", tier == "superblock"


def default_tier_runner(ir: ScenarioIR, mode: str, tier: str,
                        budget: int) -> Outcome:
    """Run one tier of one mode; never raises a simulated error."""
    compile_blocks, superblocks = _tier_flags(tier)
    program, info = _rendered(ir)
    try:
        if mode == "fasttrack":
            kernel = Kernel(seed=ir.sched_seed, quantum=ir.quantum,
                            jitter=ir.jitter)
            kernel.create_process(program)
            engine = DBREngine(kernel, compile_blocks=compile_blocks,
                               superblocks=superblocks)
            tool = FastTrackTool(kernel, block_size=BLOCK_SIZE)
            engine.attach_tool(tool)
            install_smc(kernel, engine, info.smc_uids, ir.smc_period)
            kernel.run(max_instructions=budget)
            surface = {
                "cycles": kernel.counter.total,
                "run_stats": _engine_run_stats(engine),
                "cycle_breakdown": kernel.counter.snapshot(),
                "detector_profile": _detector_profile(tool.detector),
            }
            surface.update(_race_payload(tool.races))
            return ("ok", surface)
        if mode == "aikido-fasttrack":
            chaos_plan = None
            if ir.chaos_seed is not None:
                chaos_plan = ChaosPlan.recovery(
                    seed=ir.chaos_seed, intensity=ir.chaos_intensity)
            config = AikidoConfig(compile_blocks=compile_blocks,
                                  superblocks=superblocks,
                                  chaos=chaos_plan)
            system = build_aikido_system(program, seed=ir.sched_seed,
                                         quantum=ir.quantum,
                                         jitter=ir.jitter, config=config)
            install_smc(system.kernel, system.engine, info.smc_uids,
                        ir.smc_period)
            system.run(max_instructions=budget)
            result = system_result(system)
            surface = {
                "cycles": result.cycles,
                "run_stats": result.run_stats,
                "cycle_breakdown": result.cycle_breakdown,
                "aikido_stats": result.aikido_stats,
                "hypervisor_stats": result.hypervisor_stats,
                "detector_profile": result.detector_profile,
                "chaos": result.chaos,
                "cycle_attribution": result.cycle_attribution,
            }
            surface.update(_race_payload(result.races))
            return ("ok", surface)
        raise ValueError(f"oracle mode {mode!r} unknown")
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _record_trace(ir: ScenarioIR, budget: int):
    """Full-instrumentation record run; returns the recorder or None."""
    program, _ = _rendered(ir)
    kernel = Kernel(seed=ir.sched_seed, quantum=ir.quantum,
                    jitter=ir.jitter)
    kernel.create_process(program)
    engine = DBREngine(kernel, compile_blocks=False)
    recorder = FullTraceRecorder()
    tool = FullInstrumentationTool(kernel, recorder)
    engine.attach_tool(tool)
    try:
        kernel.run(max_instructions=budget)
    except ReproError:
        return None
    return recorder


def _surface_diff(a: Outcome, b: Outcome) -> str:
    if a[0] != b[0]:
        return f"outcomes differ: {a[0]} vs {b[0]}"
    if a[0] == "raised":
        return (f"raised differently: {a[1]}: {a[2]!r} vs "
                f"{b[1]}: {b[2]!r}") if a[1:] != b[1:] else ""
    fields = sorted(set(a[1]) | set(b[1]))
    differing = [f for f in fields if a[1].get(f) != b[1].get(f)]
    return f"fields differ: {', '.join(differing)}" if differing else ""


def failure_signature(verdict: Dict) -> Tuple[str, ...]:
    """The failing check names — the predicate the reducer preserves."""
    return tuple(sorted(name for name, check in verdict["checks"].items()
                        if not check["ok"] and not check.get("skipped")))


def check_scenario(ir: ScenarioIR, *, quick: bool = True,
                   tier_runner: Optional[TierRunner] = None) -> Dict:
    """Run the full differential cross-section over one scenario.

    ``tier_runner`` is injectable so tests can plant a tier-divergence
    bug without touching the production engine.
    """
    runner = tier_runner or default_tier_runner
    budget = QUICK_BUDGET if quick else FULL_BUDGET
    checks: Dict[str, Dict] = {}

    def report(name: str, ok: bool, detail: str = "",
               skipped: bool = False) -> None:
        entry: Dict = {"ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        if skipped:
            entry["skipped"] = True
        checks[name] = entry

    ft_interp = runner(ir, "fasttrack", "interp", budget)
    ft_compiled = runner(ir, "fasttrack", "compiled", budget)
    report("tier_parity_fasttrack", ft_interp == ft_compiled,
           _surface_diff(ft_interp, ft_compiled))

    ft_super = runner(ir, "fasttrack", "superblock", budget)
    report("tier_parity_fasttrack_superblock", ft_interp == ft_super,
           _surface_diff(ft_interp, ft_super))

    ft_again = runner(ir, "fasttrack", "interp", budget)
    report("schedule_replay", ft_interp == ft_again,
           _surface_diff(ft_interp, ft_again))

    aik_interp = runner(ir, "aikido-fasttrack", "interp", budget)
    aik_compiled = runner(ir, "aikido-fasttrack", "compiled", budget)
    report("tier_parity_aikido", aik_interp == aik_compiled,
           _surface_diff(aik_interp, aik_compiled))

    aik_super = runner(ir, "aikido-fasttrack", "superblock", budget)
    report("tier_parity_aikido_superblock", aik_interp == aik_super,
           _surface_diff(aik_interp, aik_super))

    if ir.chaos_seed is not None:
        aik_again = runner(ir, "aikido-fasttrack", "interp", budget)
        report("chaos_replay", aik_interp == aik_again,
               _surface_diff(aik_interp, aik_again))

    program, _ = _rendered(ir)
    findings = lint_program(program)
    errors = [str(f) for f in findings if f.severity == "error"]
    report("lint_clean", not errors,
           "" if not errors else "; ".join(errors[:5]))

    completed = ft_interp[0] == "ok"
    recorder = _record_trace(ir, budget) if completed else None
    if recorder is None:
        for name in ("record_replay_fidelity", "fasttrack_djit_agreement",
                     "eraser_determinism", "eventlog_roundtrip",
                     "cross_analysis_agreement", "classifier_soundness",
                     "static_race_superset"):
            report(name, True, skipped=True,
                   detail="scenario did not complete cleanly")
    else:
        trace = recorder.trace
        ft_replay = replay_into(
            trace, lambda: FastTrackDetector(block_size=BLOCK_SIZE))
        replay_keys = sorted([r.block, r.kind] for r in ft_replay.races)
        live_keys = ft_interp[1]["race_keys"]
        report("record_replay_fidelity", replay_keys == live_keys,
               "" if replay_keys == live_keys else
               f"replayed {replay_keys} vs live {live_keys}")

        djit = replay_into(
            trace, lambda: DjitDetector(block_size=BLOCK_SIZE))
        ft_blocks = sorted({r.block for r in ft_replay.races})
        djit_blocks = sorted({r.block for r in djit.races})
        report("fasttrack_djit_agreement", ft_blocks == djit_blocks,
               "" if ft_blocks == djit_blocks else
               f"fasttrack blocks {ft_blocks} vs djit {djit_blocks}")

        def eraser_reports():
            detector = replay_into(
                trace, lambda: EraserDetector(block_size=BLOCK_SIZE))
            return [(r.block, r.address, r.tid, r.is_write)
                    for r in detector.reports]

        first, second = eraser_reports(), eraser_reports()
        report("eraser_determinism", first == second,
               "" if first == second else "eraser replay is unstable")

        buf = encode_entries(trace)
        decoded = decode_entries(buf)
        lossless = decoded == [tuple(e) for e in trace]
        stable = encode_entries(decoded) == buf
        report("eventlog_roundtrip", lossless and stable,
               "" if lossless and stable else
               ("decode is not entry-exact" if not lossless
                else "re-encoding is not byte-stable"))

        eraser_det = replay_into(
            trace, lambda: EraserDetector(block_size=BLOCK_SIZE))
        memtag = replay_into(
            trace, lambda: MemTagDetector(block_size=BLOCK_SIZE))
        disagreements = cross_analysis_disagreements({
            "fasttrack": set(ft_blocks),
            "djit": set(djit_blocks),
            "eraser": {r.block for r in eraser_det.reports},
            "memtag": {r.block for r in memtag.reports},
        })
        report("cross_analysis_agreement", not disagreements,
               "" if not disagreements else "; ".join(disagreements[:5]))

        analysis = analysis_for(program)
        sharing = analysis.sharing
        private = sharing.uids(SharingClass.PROVABLY_PRIVATE)
        uid_pages: Dict[int, set] = {}
        page_tids: Dict[int, set] = {}
        for entry in trace:
            if entry[0] != "access":
                continue
            _, tid, addr, _, uid = entry
            page = addr >> PAGE_SHIFT
            uid_pages.setdefault(uid, set()).add(page)
            page_tids.setdefault(page, set()).add(tid)
        shared_pages = {page for page, tids in page_tids.items()
                        if len(tids) >= 2}
        offenders = sorted(
            uid for uid in private
            if uid_pages.get(uid, set()) & shared_pages)
        report("classifier_soundness", not offenders,
               "" if not offenders else
               f"provably-private uids on shared pages: {offenders}")

        # Static race analyzer soundness: each dynamic race attributes
        # to at least one (prior uid, current uid) candidate pair, and
        # no dynamic race may be exclusively explained by pairs the
        # static analysis called STATICALLY_RACE_FREE.
        static_races = analysis.races
        by_site: Dict[Tuple[int, int, bool], set] = {}
        for entry in trace:
            if entry[0] != "access":
                continue
            _, tid, addr, is_write, uid = entry
            key = (addr // BLOCK_SIZE, tid, bool(is_write))
            by_site.setdefault(key, set()).add(uid)
        missed = []
        for race in ft_replay.races:
            prior_write = race.kind.startswith("write")
            curr_write = race.kind.endswith("write")
            priors = by_site.get(
                (race.block, epoch_tid(race.prior_epoch), prior_write),
                set())
            currents = (frozenset((race.instr_uid,))
                        if race.instr_uid >= 0 else
                        by_site.get((race.block, race.current_tid,
                                     curr_write), set()))
            if not priors or not currents:
                continue  # unattributable: claim nothing
            if all(static_races.pair_verdict(p, c)
                   is RaceVerdict.STATICALLY_RACE_FREE
                   for p in priors for c in currents):
                missed.append((race.block, race.kind))
        report("static_race_superset", not missed,
               "" if not missed else
               f"dynamic races statically proved race-free: "
               f"{sorted(set(missed))}")

    if (ir.chaos_seed is None and completed and aik_interp[0] == "ok"):
        aik_keys = {tuple(k) for k in aik_interp[1]["race_keys"]}
        ft_keys = {tuple(k) for k in ft_interp[1]["race_keys"]}
        extra = sorted(aik_keys - ft_keys)
        report("aikido_subset", not extra,
               "" if not extra else
               f"aikido-only races (must be subset): {extra}")
    else:
        report("aikido_subset", True, skipped=True,
               detail="chaos schedule diverges by design"
               if ir.chaos_seed is not None else "run did not complete")

    verdict = {
        "seed": ir.seed,
        "outcome": ("ok" if ft_interp[0] == "ok"
                    else f"raised:{ft_interp[1]}"),
        "checks": checks,
        "ok": all(c["ok"] for c in checks.values()),
    }
    return verdict
