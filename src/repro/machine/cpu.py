"""Single-instruction CPU interpreter and cycle accounting.

The CPU executes exactly one already-fetched instruction at a time.
Fetching, program-counter management, instrumentation hooks and quantum
scheduling are the job of the *execution driver* (either the plain native
driver or the DBR engine) and of the guest kernel; the CPU only implements
instruction semantics:

* arithmetic on 64-bit wrapping registers,
* memory accesses translated through the platform's ``translate``
  callback, which raises :class:`~repro.machine.paging.PageFault` on
  protection violations (this is how Aikido sees anything at all),
* control transfers and traps, returned as small tagged values that the
  driver/kernel interpret.

Return protocol of :meth:`CPU.execute`:

* ``None`` — instruction retired, advance to the next one;
* ``("jmp", block_index)`` — transfer to a block;
* ``("call", block_index)`` / ``("ret",)`` — call/return (driver maintains
  the shadow return stack);
* an :class:`Action` — a trap the kernel must service (syscall, lock,
  spawn, ...). The instruction has retired when the kernel completes it.

A raised ``PageFault`` means the instruction did *not* retire and must be
re-executed after the fault is repaired.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import InvalidInstructionError
from repro.machine.isa import Instruction, Opcode

_MASK64 = 0xFFFFFFFFFFFFFFFF


class CycleCounter:
    """Accumulates simulated cycles, split by category.

    Each category is one mutable cell, a one-element list. Hot sites
    bind their cell once (:meth:`cell`) and add to ``cell[0]`` inline,
    as drivers do with ``instr_cycles``; rarer events use
    :meth:`charge`, which adds to the same cell. Nothing is deferred, so
    an observer reading :attr:`total` or :meth:`snapshot` at any point
    sees every cycle booked before it. Slowdown figures are ratios of
    :attr:`total` between runs.
    """

    def __init__(self):
        self.instr_cycles = 0
        self._cells: Dict[str, List[int]] = {}

    def cell(self, category: str) -> List[int]:
        """The one-element list holding ``category``'s cycles."""
        cell = self._cells.get(category)
        if cell is None:
            cell = self._cells[category] = [0]
        return cell

    def charge(self, category: str, cycles: int) -> None:
        """Add ``cycles`` to a named cost category."""
        try:
            self._cells[category][0] += cycles
        except KeyError:
            self._cells[category] = [cycles]

    @property
    def by_category(self) -> Dict[str, int]:
        """Cycles per category; categories still at 0 are left out."""
        return {name: cell[0] for name, cell in self._cells.items()
                if cell[0]}

    @property
    def total(self) -> int:
        """All simulated cycles of the run."""
        total = self.instr_cycles
        for cell in self._cells.values():
            total += cell[0]
        return total

    def snapshot(self) -> Dict[str, int]:
        """A copy of the per-category breakdown, including instructions."""
        out = self.by_category
        out["instr"] = self.instr_cycles
        return out


class Action:
    """Base class for traps the guest kernel must service."""

    __slots__ = ("instr",)

    def __init__(self, instr: Instruction):
        self.instr = instr


class SyscallAction(Action):
    __slots__ = ("number",)

    def __init__(self, instr: Instruction, number: int):
        super().__init__(instr)
        self.number = number


class HypercallAction(Action):
    __slots__ = ("number",)

    def __init__(self, instr: Instruction, number: int):
        super().__init__(instr)
        self.number = number


class LockAction(Action):
    __slots__ = ("lock_id",)

    def __init__(self, instr: Instruction, lock_id: int):
        super().__init__(instr)
        self.lock_id = lock_id


class UnlockAction(Action):
    __slots__ = ("lock_id",)

    def __init__(self, instr: Instruction, lock_id: int):
        super().__init__(instr)
        self.lock_id = lock_id


class BarrierAction(Action):
    __slots__ = ("barrier_id", "parties")

    def __init__(self, instr: Instruction, barrier_id: int, parties: int):
        super().__init__(instr)
        self.barrier_id = barrier_id
        self.parties = parties


class SpawnAction(Action):
    __slots__ = ("target_block", "arg", "rd")

    def __init__(self, instr: Instruction, target_block: int, arg: int,
                 rd: int):
        super().__init__(instr)
        self.target_block = target_block
        self.arg = arg
        self.rd = rd


class JoinAction(Action):
    __slots__ = ("tid",)

    def __init__(self, instr: Instruction, tid: int):
        super().__init__(instr)
        self.tid = tid


class WaitAction(Action):
    __slots__ = ("cv_id", "lock_id")

    def __init__(self, instr: Instruction, cv_id: int, lock_id: int):
        super().__init__(instr)
        self.cv_id = cv_id
        self.lock_id = lock_id


class NotifyAction(Action):
    __slots__ = ("cv_id", "notify_all")

    def __init__(self, instr: Instruction, cv_id: int, notify_all: bool):
        super().__init__(instr)
        self.cv_id = cv_id
        self.notify_all = notify_all


class HaltAction(Action):
    __slots__ = ()


#: Base cycle cost per opcode (ALU = 1, memory ops cost more). Trap-style
#: opcodes are charged by the kernel when serviced, so only their decode
#: cost appears here.
BASE_COST: Dict[Opcode, int] = {op: 1 for op in Opcode}
BASE_COST[Opcode.LOAD] = 2
BASE_COST[Opcode.STORE] = 2
BASE_COST[Opcode.ATOMIC_ADD] = 6
BASE_COST[Opcode.MUL] = 3
BASE_COST[Opcode.MOD] = 3


class CPU:
    """Executes single instructions against a translation callback.

    ``translate(thread, vaddr, is_write)`` must return a physical address
    or raise :class:`~repro.machine.paging.PageFault`. ``user_mode``
    selects the privilege level for the protection check (guest kernel
    code runs with ``user_mode=False``).
    """

    def __init__(self, memory, translate: Callable, *, user_mode: bool = True):
        self.memory = memory
        self.translate = translate
        self.user_mode = user_mode

    def execute(self, instr: Instruction, thread,
                ea_override: Optional[int] = None):
        """Execute one fetched instruction for ``thread``.

        ``ea_override`` replaces the computed effective address of a memory
        instruction; AikidoSD's rewriting uses it to redirect instrumented
        accesses through mirror pages.
        """
        op = instr.op
        regs = thread.regs

        if op is Opcode.LOAD:
            mem = instr.mem
            ea = ea_override if ea_override is not None else (
                mem.disp if mem.base is None else
                (regs[mem.base] + mem.disp) & _MASK64)
            paddr = self.translate(thread, ea, False)
            regs[instr.rd] = self.memory.read_word(paddr)
            return None

        if op is Opcode.STORE:
            mem = instr.mem
            ea = ea_override if ea_override is not None else (
                mem.disp if mem.base is None else
                (regs[mem.base] + mem.disp) & _MASK64)
            paddr = self.translate(thread, ea, True)
            self.memory.write_word(paddr, regs[instr.rs1])
            return None

        if op is Opcode.ATOMIC_ADD:
            mem = instr.mem
            ea = ea_override if ea_override is not None else (
                mem.disp if mem.base is None else
                (regs[mem.base] + mem.disp) & _MASK64)
            paddr = self.translate(thread, ea, True)
            old = self.memory.read_word(paddr)
            self.memory.write_word(paddr, (old + regs[instr.rs1]) & _MASK64)
            if instr.rd is not None:
                regs[instr.rd] = old
            return None

        if op is Opcode.LI:
            regs[instr.rd] = instr.imm & _MASK64
            return None
        if op is Opcode.MOV:
            regs[instr.rd] = regs[instr.rs1]
            return None

        if op is Opcode.ADD:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = (regs[instr.rs1] + rhs) & _MASK64
            return None
        if op is Opcode.SUB:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = (regs[instr.rs1] - rhs) & _MASK64
            return None
        if op is Opcode.MUL:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = (regs[instr.rs1] * rhs) & _MASK64
            return None
        if op is Opcode.AND:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = regs[instr.rs1] & rhs
            return None
        if op is Opcode.OR:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = regs[instr.rs1] | rhs
            return None
        if op is Opcode.XOR:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = (regs[instr.rs1] ^ rhs) & _MASK64
            return None
        if op is Opcode.SHL:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = (regs[instr.rs1] << (rhs & 63)) & _MASK64
            return None
        if op is Opcode.SHR:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            regs[instr.rd] = regs[instr.rs1] >> (rhs & 63)
            return None
        if op is Opcode.MOD:
            rhs = regs[instr.rs2] if instr.rs2 is not None else instr.imm
            if rhs == 0:
                raise InvalidInstructionError("modulo by zero")
            regs[instr.rd] = regs[instr.rs1] % rhs
            return None

        if op is Opcode.JMP:
            return ("jmp", thread.program.label_index(instr.label))
        if op is Opcode.BZ:
            if regs[instr.rs1] == 0:
                return ("jmp", thread.program.label_index(instr.label))
            return None
        if op is Opcode.BNZ:
            if regs[instr.rs1] != 0:
                return ("jmp", thread.program.label_index(instr.label))
            return None
        if op is Opcode.BLT:
            if regs[instr.rs1] < regs[instr.rs2]:
                return ("jmp", thread.program.label_index(instr.label))
            return None
        if op is Opcode.BGE:
            if regs[instr.rs1] >= regs[instr.rs2]:
                return ("jmp", thread.program.label_index(instr.label))
            return None
        if op is Opcode.CALL:
            return ("call", thread.program.label_index(instr.label))
        if op is Opcode.RET:
            return ("ret",)

        if op is Opcode.NOP:
            return None

        if op is Opcode.LOCK:
            lock_id = (regs[instr.rs1] if instr.rs1 is not None
                       else instr.imm)
            return LockAction(instr, lock_id)
        if op is Opcode.UNLOCK:
            lock_id = (regs[instr.rs1] if instr.rs1 is not None
                       else instr.imm)
            return UnlockAction(instr, lock_id)
        if op is Opcode.BARRIER:
            return BarrierAction(instr, instr.imm, regs[instr.rs1])
        if op is Opcode.SPAWN:
            return SpawnAction(instr,
                               thread.program.label_index(instr.label),
                               regs[instr.rs1], instr.rd)
        if op is Opcode.JOIN:
            return JoinAction(instr, regs[instr.rs1])
        if op is Opcode.SYSCALL:
            return SyscallAction(instr, instr.imm)
        if op is Opcode.HYPERCALL:
            return HypercallAction(instr, instr.imm)
        if op is Opcode.WAIT:
            return WaitAction(instr, instr.imm, regs[instr.rs1])
        if op is Opcode.NOTIFY:
            notify_all = (instr.rs1 is not None
                          and regs[instr.rs1] != 0)
            return NotifyAction(instr, instr.imm, notify_all)
        if op is Opcode.HALT:
            return HaltAction(instr)

        raise InvalidInstructionError(f"cannot execute {instr!r}")

    def effective_address(self, instr: Instruction, thread) -> int:
        """Compute the app-level effective address of a memory instruction."""
        mem = instr.mem
        if mem.base is None:
            return mem.disp
        return (thread.regs[mem.base] + mem.disp) & _MASK64
