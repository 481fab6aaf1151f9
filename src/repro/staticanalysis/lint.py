"""Workload linter: structural and concurrency checks over programs.

Driven by ``aikido-repro lint``; also wired into ``scripts/smoke.sh`` so
every bundled workload stays clean. Checks:

* ``unreachable-block`` — basic blocks no thread can ever reach;
* ``never-written-register`` — a register is read but no reachable
  instruction ever writes it (registers start at zero, so this is legal
  but almost always a bug; ``r1`` is exempt as the spawn argument);
* ``direct-address-out-of-segment`` — a direct memory operand outside
  every declared :class:`~repro.machine.program.DataSegment`;
* ``store-to-readonly-segment`` — a store/atomic whose address provably
  lies in a ``writable=False`` segment;
* ``unlock-unheld`` / ``double-acquire`` / ``halt-holding-lock`` —
  lockset dataflow along each thread context's paths (the guest kernel
  raises at runtime for the first two; the third deadlocks peers);
* ``barrier-arity-mismatch`` — one barrier id used with conflicting
  party counts (or a provably non-positive count);
* ``join-non-tid`` — JOIN of a register that cannot hold a thread id
  (never receives a SPAWN result, a spawn argument, or loaded data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.machine.isa import MEMORY_OPCODES, Instruction, Opcode
from repro.machine.layout import HEAP_BASE, STATIC_BASE, static_segment_bases
from repro.machine.program import Program
from repro.staticanalysis.cfg import CFG, THREAD_EDGES, EdgeKind
from repro.staticanalysis.constprop import (
    AVal,
    ConstProp,
    RegState,
    initial_regs,
    instruction_address_bounds,
)
from repro.staticanalysis.lockset import (
    LockState,
    resolve_lock_id,
    step_lock_state,
)


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic."""

    check: str
    severity: str  # "error" | "warning"
    message: str
    block: Optional[str] = None
    uid: Optional[int] = None

    def render(self) -> str:
        where = f" [{self.block}]" if self.block else ""
        return f"{self.severity}: {self.check}{where}: {self.message}"


def _read_registers(instr: Instruction) -> List[int]:
    op = instr.op
    regs: List[int] = []
    if op in (Opcode.MOV, Opcode.BZ, Opcode.BNZ, Opcode.JOIN,
              Opcode.SPAWN, Opcode.BARRIER, Opcode.WAIT):
        regs.append(instr.rs1)
    elif op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND,
                Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
                Opcode.MOD):
        regs.append(instr.rs1)
        if instr.rs2 is not None:
            regs.append(instr.rs2)
    elif op in (Opcode.BLT, Opcode.BGE):
        regs.extend((instr.rs1, instr.rs2))
    elif op in (Opcode.STORE, Opcode.ATOMIC_ADD):
        regs.append(instr.rs1)
    elif op in (Opcode.LOCK, Opcode.UNLOCK, Opcode.NOTIFY):
        if instr.rs1 is not None:
            regs.append(instr.rs1)
    if instr.mem is not None and instr.mem.base is not None:
        regs.append(instr.mem.base)
    return regs


def _written_registers(instr: Instruction) -> List[int]:
    op = instr.op
    if op in (Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL,
              Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
              Opcode.MOD, Opcode.LOAD, Opcode.SPAWN):
        return [instr.rd]
    if op is Opcode.ATOMIC_ADD and instr.rd is not None:
        return [instr.rd]
    if op in (Opcode.SYSCALL, Opcode.HYPERCALL):
        return [0]  # result register
    return []


# ---------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------
def _check_unreachable(cfg: CFG) -> List[Finding]:
    return [
        Finding("unreachable-block", "warning",
                f"block {cfg.program.blocks[bi].label!r} is unreachable "
                f"from the entry",
                block=cfg.program.blocks[bi].label)
        for bi in cfg.unreachable_blocks()
    ]


def _check_never_written(cfg: CFG, live: Set[int]) -> List[Finding]:
    program = cfg.program
    written = {1}  # r1 is the spawn-argument register
    for bi in live:
        for instr in program.blocks[bi].instructions:
            written.update(_written_registers(instr))
    findings = []
    for bi in sorted(live):
        block = program.blocks[bi]
        for instr in block.instructions:
            bad = [r for r in _read_registers(instr) if r not in written]
            if bad:
                regs = ", ".join(f"r{r}" for r in sorted(set(bad)))
                findings.append(Finding(
                    "never-written-register", "warning",
                    f"{instr!r} reads {regs}, which no reachable "
                    f"instruction writes (always zero)",
                    block=block.label, uid=instr.uid))
    return findings


def _segment_ranges(program: Program) -> List[Tuple[str, int, int, bool]]:
    segments = program.segments
    bases = static_segment_bases([s.size for s in segments])
    return [(seg.name, base, base + seg.size, seg.writable)
            for seg, base in zip(segments, bases)]


def _check_direct_addresses(cfg: CFG, live: Set[int]) -> List[Finding]:
    program = cfg.program
    ranges = _segment_ranges(program)
    findings = []
    for bi in sorted(live):
        block = program.blocks[bi]
        for instr in block.instructions:
            if instr.op not in MEMORY_OPCODES or instr.mem.base is not None:
                continue
            addr = instr.mem.disp
            hit = next((r for r in ranges
                        if r[1] <= addr and addr + 8 <= r[2]), None)
            if hit is None:
                severity = ("error"
                            if STATIC_BASE <= addr < HEAP_BASE or not ranges
                            else "warning")
                findings.append(Finding(
                    "direct-address-out-of-segment", severity,
                    f"{instr!r} targets {addr:#x}, outside every "
                    f"declared data segment",
                    block=block.label, uid=instr.uid))
            elif instr.is_write and not hit[3]:
                findings.append(Finding(
                    "store-to-readonly-segment", "error",
                    f"{instr!r} writes {addr:#x} in read-only "
                    f"segment {hit[0]!r}",
                    block=block.label, uid=instr.uid))
    return findings


def _entry_contexts(cfg: CFG) -> List[int]:
    """Entry blocks of every thread context (main + spawn targets)."""
    entries = [0]
    for _, _, target in cfg.spawn_sites:
        if target not in entries:
            entries.append(target)
    return entries


def _entry_states(cfg: CFG, entry: int) -> Dict[int, RegState]:
    # Spawned contexts receive an unknown (possibly-tid) argument; main
    # starts with r1 = 0, but using TOP for it too keeps the lint checks
    # uniformly conservative.
    arg = AVal.top(maybe_tid=True)
    cp = ConstProp(cfg, initial_regs(arg))
    return cp.states_at_instructions(entry=entry)


def _check_indirect_ro_stores(cfg: CFG, entries_states) -> List[Finding]:
    program = cfg.program
    ro = [(name, lo, hi) for name, lo, hi, writable
          in _segment_ranges(program) if not writable]
    if not ro:
        return []
    findings = []
    seen = set()
    for states in entries_states.values():
        for uid, regs in states.items():
            instr = program.instruction_at(uid)
            if not instr.is_write or instr.mem is None \
                    or instr.mem.base is None or uid in seen:
                continue
            bounds = instruction_address_bounds(instr, regs)
            if bounds is None:
                continue
            hit = next((r for r in ro
                        if r[1] <= bounds[0] and bounds[1] + 8 <= r[2]),
                       None)
            if hit is not None:
                seen.add(uid)
                bi = cfg.instruction_block(uid)
                findings.append(Finding(
                    "store-to-readonly-segment", "error",
                    f"{instr!r} provably writes read-only segment "
                    f"{hit[0]!r} (address range "
                    f"[{bounds[0]:#x}, {bounds[1]:#x}])",
                    block=program.blocks[bi].label, uid=uid))
    return findings


def _check_locks(cfg: CFG, entry: int,
                 states: Dict[int, RegState]) -> List[Finding]:
    """Lockset dataflow over one thread context; findings emitted once
    per (uid, problem) on the final fixed-point states.

    State evolution is the shared :func:`step_lock_state` transfer in
    its lint (``sound=False``) mode: unresolved ids poison but keep the
    sets, so ``unlock-unheld`` still keys off the accumulated ``may``
    set; the race analyzer's sound mode lives in
    :mod:`repro.staticanalysis.lockset`.
    """
    from repro.staticanalysis.dataflow import ForwardProblem, solve_forward

    program = cfg.program

    def step(state: LockState, instr: Instruction,
             findings: Optional[List[Finding]],
             block_label: str) -> LockState:
        if instr.op in (Opcode.LOCK, Opcode.UNLOCK):
            lock = resolve_lock_id(instr, states.get(instr.uid))
            if findings is not None and lock is not None \
                    and not state.poisoned:
                if instr.op is Opcode.LOCK and lock in state.must:
                    findings.append(Finding(
                        "double-acquire", "error",
                        f"{instr!r} re-acquires lock {lock} already held "
                        f"on every path here (the kernel raises on "
                        f"recursive acquire)",
                        block=block_label, uid=instr.uid))
                elif instr.op is Opcode.UNLOCK and lock not in state.may:
                    findings.append(Finding(
                        "unlock-unheld", "error",
                        f"{instr!r} releases lock {lock}, which is not "
                        f"held on any path here",
                        block=block_label, uid=instr.uid))
            return step_lock_state(state, instr, lock, sound=False)
        return step_lock_state(state, instr, None, sound=False)

    class _Problem(ForwardProblem):
        edge_kinds = THREAD_EDGES

        def initial(self):
            return LockState()

        def entry_state(self):
            return LockState()

        def join(self, a, b):
            return a.join(b)

        def transfer(self, block, state):
            for instr in program.blocks[block].instructions:
                state = step(state, instr, None, "")
            return state

    in_states = solve_forward(cfg, _Problem(), entry=entry)
    findings: List[Finding] = []
    for block, state in in_states.items():
        label = program.blocks[block].label
        for instr in program.blocks[block].instructions:
            state = step(state, instr, findings, label)
            if instr.op is Opcode.HALT and state.must \
                    and not state.poisoned:
                locks = ", ".join(str(x) for x in sorted(state.must))
                findings.append(Finding(
                    "halt-holding-lock", "error",
                    f"thread halts while still holding lock(s) {locks}",
                    block=label, uid=instr.uid))
    return findings


def _check_barriers(cfg: CFG, entries_states) -> List[Finding]:
    program = cfg.program
    arity: Dict[int, Set[int]] = {}
    locations: Dict[int, Tuple[str, int]] = {}
    findings: List[Finding] = []
    flagged: Set[int] = set()
    for states in entries_states.values():
        for uid, regs in states.items():
            instr = program.instruction_at(uid)
            if instr.op is not Opcode.BARRIER:
                continue
            label = program.blocks[cfg.instruction_block(uid)].label
            locations.setdefault(instr.imm, (label, uid))
            parties = regs[instr.rs1].as_constant()
            if parties is None:
                continue
            if parties == 0 or parties > (1 << 31):
                if uid not in flagged:
                    flagged.add(uid)
                    findings.append(Finding(
                        "barrier-arity-mismatch", "error",
                        f"{instr!r} waits on barrier {instr.imm} with a "
                        f"non-positive party count ({parties})",
                        block=label, uid=uid))
                continue
            arity.setdefault(instr.imm, set()).add(parties)
    for barrier_id, parties in sorted(arity.items()):
        if len(parties) > 1:
            label, uid = locations[barrier_id]
            counts = ", ".join(str(p) for p in sorted(parties))
            findings.append(Finding(
                "barrier-arity-mismatch", "error",
                f"barrier {barrier_id} is used with conflicting party "
                f"counts: {counts} (threads would wait forever)",
                block=label, uid=uid))
    return findings


def _check_joins(cfg: CFG, entries_states) -> List[Finding]:
    program = cfg.program
    findings = []
    flagged: Set[int] = set()
    for states in entries_states.values():
        for uid, regs in states.items():
            instr = program.instruction_at(uid)
            if instr.op is not Opcode.JOIN or uid in flagged:
                continue
            val = regs[instr.rs1]
            if not val.maybe_tid and not val.is_bot:
                flagged.add(uid)
                label = program.blocks[cfg.instruction_block(uid)].label
                findings.append(Finding(
                    "join-non-tid", "error",
                    f"{instr!r} joins r{instr.rs1} = {val!r}, which "
                    f"can never hold a spawned thread id",
                    block=label, uid=uid))
    return findings


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------
def lint_program(program: Program, cfg: Optional[CFG] = None,
                 _cacheable: bool = True) -> List[Finding]:
    """Run every lint check; returns findings (errors first).

    By default the result is memoized per program fingerprint through
    :func:`~repro.staticanalysis.analysiscache.analysis_for`. The fuzz
    oracle calls this once per scenario check, on the one program it
    renders for all of that check's runs, so the findings are computed
    once per distinct program; the reducer's candidates are distinct
    programs and each is linted once. ``_cacheable=False`` is the
    cache's own entry point, and it runs its own constant propagation
    per thread entry (spawn arguments TOP) rather than reusing the
    sharing analysis' contexts, whose precise arguments would change
    the findings.
    """
    if _cacheable and cfg is None:
        from repro.staticanalysis.analysiscache import analysis_for

        return analysis_for(program).lint
    if cfg is None:
        cfg = CFG(program)
    live = cfg.reachable(0)
    findings: List[Finding] = []
    findings += _check_unreachable(cfg)
    findings += _check_never_written(cfg, live)
    findings += _check_direct_addresses(cfg, live)
    entries_states = {entry: _entry_states(cfg, entry)
                      for entry in _entry_contexts(cfg)}
    findings += _check_indirect_ro_stores(cfg, entries_states)
    for entry, states in entries_states.items():
        findings += _check_locks(cfg, entry, states)
    findings += _check_barriers(cfg, entries_states)
    findings += _check_joins(cfg, entries_states)
    # A uid shared by several contexts can trip the same check once per
    # context; report it once.
    seen: Set[Tuple[str, Optional[int], Optional[str]]] = set()
    unique = []
    for f in findings:
        key = (f.check, f.uid, f.block if f.uid is None else None)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    order = {"error": 0, "warning": 1}
    unique.sort(key=lambda f: (order.get(f.severity, 2), f.check,
                               f.uid if f.uid is not None else -1))
    return unique
