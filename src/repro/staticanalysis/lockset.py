"""Must-hold-lockset forward dataflow over the PR-2 CFG.

For each thread context (entry block + abstract spawn argument, see
:mod:`repro.staticanalysis.sharing`) this computes, per instruction, the
set of lock ids *provably held on every path* from the context entry to
that instruction. Lock ids are resolved through the context's constant
propagation states (``LOCK 3`` and ``LI r2, 3; LOCK r2`` both resolve);
an unresolvable id poisons the state.

Two transfer modes share one implementation:

* ``sound=False`` — the linter's historical semantics (findings such as
  ``unlock-unheld`` key off the *may* set and a kept-but-poisoned
  *must* set). Used by :mod:`repro.staticanalysis.lint` only.
* ``sound=True`` — the race analyzer's semantics: anything the analysis
  cannot prove still held clears the must set. An UNLOCK of an unknown
  id may release *any* lock, so ``must`` collapses to empty; a CALL
  into a callee whose reachable body touches locks likewise collapses
  ``must`` (the callee may release anything; its own body is analyzed
  through the CALL edge with the call-site state, which is exactly the
  intersection-of-callers a must-analysis needs).

WAIT leaves the lockset unchanged in both modes: the guest kernel
releases and re-acquires the mutex around the park
(``_service_wait``), emitting real Acquire/Release events, so the
happens-before edges a common-lock argument relies on exist in every
dynamic tool — while at the instant the WAIT retires the lock is held
again, matching pthread_cond_wait.

SPAWN edges are deliberately outside ``THREAD_EDGES``: a spawned thread
starts with an *empty* lockset (its own context is solved separately),
never inheriting the parent's critical section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.machine.isa import Instruction, Opcode
from repro.staticanalysis.cfg import CFG, THREAD_EDGES, EdgeKind
from repro.staticanalysis.constprop import RegState
from repro.staticanalysis.dataflow import ForwardProblem, solve_forward

_EMPTY: FrozenSet[int] = frozenset()


class LockState:
    """(must-held, may-held, poisoned) lockset lattice element.

    ``must`` intersects at joins, ``may`` unions, ``poisoned`` marks a
    path where some lock operation could not be resolved statically
    (consumers must not trust *absence* from ``may`` on poisoned
    states; ``must`` stays trustworthy in sound mode because every
    unresolvable operation clears it).
    """

    __slots__ = ("must", "may", "poisoned")

    def __init__(self, must: FrozenSet[int] = _EMPTY,
                 may: FrozenSet[int] = _EMPTY,
                 poisoned: bool = False):
        self.must = must
        self.may = may
        self.poisoned = poisoned

    def join(self, other: "LockState") -> "LockState":
        return LockState(self.must & other.must, self.may | other.may,
                         self.poisoned or other.poisoned)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LockState)
                and self.must == other.must and self.may == other.may
                and self.poisoned == other.poisoned)

    def __hash__(self) -> int:
        return hash((self.must, self.may, self.poisoned))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " poisoned" if self.poisoned else ""
        return (f"<LockState must={sorted(self.must)} "
                f"may={sorted(self.may)}{tag}>")


def resolve_lock_id(instr: Instruction,
                    regs: Optional[RegState]) -> Optional[int]:
    """The lock id a LOCK/UNLOCK/WAIT names, if statically constant."""
    if instr.rs1 is None:
        return instr.imm
    if regs is None:
        return None
    return regs[instr.rs1].as_constant()


def lock_touching_entries(cfg: CFG) -> Set[int]:
    """CALL-target blocks whose reachable body contains LOCK/UNLOCK.

    A call into such a callee may change the held set in ways the
    caller-side transfer cannot see, so the sound transfer clears
    ``must`` across the call site. Bodies are explored over
    ``THREAD_EDGES`` (a callee's own calls count against it).
    """
    program = cfg.program
    targets = {bi for bi in range(len(cfg.preds))
               if any(kind is EdgeKind.CALL for _, kind in cfg.preds[bi])}
    touching: Set[int] = set()
    for target in targets:
        body = cfg.reachable(target, THREAD_EDGES)
        for bi in body:
            if any(instr.op in (Opcode.LOCK, Opcode.UNLOCK)
                   for instr in program.blocks[bi].instructions):
                touching.add(target)
                break
    return touching


def step_lock_state(state: LockState, instr: Instruction,
                    lock_id: Optional[int], *, sound: bool,
                    call_clobbers: bool = False) -> LockState:
    """Transfer one instruction; shared by the linter and the analyzer."""
    op = instr.op
    if op is Opcode.LOCK:
        if lock_id is None:
            # Unknown id: some lock is now held, we cannot say which.
            return LockState(state.must, state.may, True)
        return LockState(state.must | {lock_id}, state.may | {lock_id},
                         state.poisoned)
    if op is Opcode.UNLOCK:
        if lock_id is None:
            if sound:
                # May release any held lock: nothing is must-held now.
                return LockState(_EMPTY, state.may, True)
            return LockState(state.must, state.may, True)
        return LockState(state.must - {lock_id}, state.may - {lock_id},
                         state.poisoned)
    if op is Opcode.CALL and sound and call_clobbers:
        return LockState(_EMPTY, state.may, True)
    # WAIT: released and re-acquired around the park — unchanged.
    return state


@dataclass
class LocksetResult:
    """Fixed-point locksets for one thread context."""

    entry: int
    #: uid -> must-held lockset *before* the instruction executes.
    must_at: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: uid -> the pre-state was poisoned on some path.
    poisoned_at: Dict[int, bool] = field(default_factory=dict)
    #: block index -> lockset at block entry.
    block_in: Dict[int, LockState] = field(default_factory=dict)

    def must_held(self, uid: int) -> FrozenSet[int]:
        return self.must_at.get(uid, _EMPTY)


def compute_locksets(cfg: CFG, states: Dict[int, RegState], *,
                     entry: int = 0,
                     touching: Optional[Set[int]] = None) -> LocksetResult:
    """Sound must-lockset fixed point for the context entered at ``entry``.

    ``states`` are the context's per-uid constant-propagation states
    (used only to resolve register-named lock ids); ``touching`` is the
    :func:`lock_touching_entries` set, recomputed when not supplied.
    """
    program = cfg.program
    if touching is None:
        touching = lock_touching_entries(cfg)

    def transfer_instr(state: LockState, instr: Instruction) -> LockState:
        lock_id = None
        if instr.op in (Opcode.LOCK, Opcode.UNLOCK):
            lock_id = resolve_lock_id(instr, states.get(instr.uid))
        clobbers = (instr.op is Opcode.CALL
                    and program.label_index(instr.label) in touching)
        return step_lock_state(state, instr, lock_id, sound=True,
                               call_clobbers=clobbers)

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
                state = transfer_instr(state, instr)
            return state

    block_in = solve_forward(cfg, _Problem(), entry=entry)
    result = LocksetResult(entry=entry, block_in=block_in)
    for block, state in block_in.items():
        for instr in program.blocks[block].instructions:
            result.must_at[instr.uid] = state.must
            result.poisoned_at[instr.uid] = state.poisoned
            state = transfer_instr(state, instr)
    return result
