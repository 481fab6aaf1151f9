"""The mini-ISA executed by the simulated machine.

The instruction set is deliberately small: just enough to express the
PARSEC-like synthetic workloads (loops, pseudo-random address generation,
loads/stores with both direct and register-indirect addressing, locks,
barriers, thread spawn/join, and syscalls).

Two properties matter for fidelity to the paper:

* **Direct vs indirect memory operands.** AikidoSD rewrites direct-address
  instructions by patching the effective address, while register-indirect
  instructions get a runtime shared/private branch (paper Fig. 4). The
  distinction therefore must exist in the ISA; see :class:`MemOperand`.
* **Static instruction identity.** Dynamic binary rewriting instruments
  *static* instructions (all dynamic executions of the same code-cache
  slot). Every :class:`Instruction` gets a process-unique ``uid`` when its
  program is finalized, which is what AikidoSD's instrumentation set keys
  on.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Number of general-purpose registers per thread (r0..r15).
REGISTER_COUNT = 16


class Opcode(enum.IntEnum):
    """Operation codes of the mini-ISA.

    Arithmetic ops take ``rd, rs1, rs2`` (or ``rd, rs1, imm`` when ``rs2``
    is ``None``). Control flow may only appear as the *last* instruction of
    a basic block (enforced by :meth:`repro.machine.program.Program.finalize`).
    """

    NOP = 0
    #: rd <- imm
    LI = 1
    #: rd <- rs1
    MOV = 2
    ADD = 3
    SUB = 4
    MUL = 5
    AND = 6
    OR = 7
    XOR = 8
    SHL = 9
    SHR = 10
    #: unsigned modulo: rd <- rs1 % (rs2|imm)
    MOD = 11
    #: rd <- mem[ea]; ea from :class:`MemOperand`
    LOAD = 12
    #: mem[ea] <- rs1
    STORE = 13
    #: unconditional jump to label
    JMP = 14
    #: branch to label if rs1 == 0
    BZ = 15
    #: branch to label if rs1 != 0
    BNZ = 16
    #: branch to label if rs1 < rs2 (unsigned)
    BLT = 17
    #: branch to label if rs1 >= rs2 (unsigned)
    BGE = 18
    #: call a label; return address pushed on the thread's shadow stack
    CALL = 19
    RET = 20
    #: acquire lock number (rs1 if set, else imm)
    LOCK = 21
    #: release lock number (rs1 if set, else imm)
    UNLOCK = 22
    #: wait on barrier ``imm`` until ``rs1``-many threads arrive
    BARRIER = 23
    #: rd <- tid of a new thread starting at label with r1 = rs1's value
    SPAWN = 24
    #: join thread whose tid is in rs1
    JOIN = 25
    #: syscall number in imm; args in r1..r3; result in r0
    SYSCALL = 26
    #: hypercall number in imm; args in r1..r4; result in r0
    HYPERCALL = 27
    #: terminate the current thread (the whole process if it is the main thread)
    HALT = 28
    #: atomic mem[ea] <- mem[ea] + rs1, old value in rd
    ATOMIC_ADD = 29
    #: condition-variable wait: cv id in imm, held lock id in rs1's value
    WAIT = 30
    #: condition-variable notify: cv id in imm; rs1's value != 0 -> notify all
    NOTIFY = 31


#: Opcodes that terminate a basic block.
BLOCK_TERMINATORS = frozenset({
    Opcode.JMP,
    Opcode.BZ,
    Opcode.BNZ,
    Opcode.BLT,
    Opcode.BGE,
    Opcode.RET,
    Opcode.HALT,
})

#: Opcodes that read or write data memory (the instructions a conservative
#: shared-data analysis would have to instrument).
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC_ADD})

#: Opcodes that are synchronization events for happens-before analyses.
SYNC_OPCODES = frozenset({
    Opcode.LOCK,
    Opcode.UNLOCK,
    Opcode.BARRIER,
    Opcode.SPAWN,
    Opcode.JOIN,
    Opcode.WAIT,
    Opcode.NOTIFY,
})


class MemOperand:
    """Effective-address operand of a LOAD/STORE/ATOMIC instruction.

    ``base`` is a register number or ``None``. When ``None`` the operand is
    *direct*: the effective address is the constant ``disp`` and AikidoSD
    may rewrite it in place. Otherwise the operand is *indirect*:
    ``ea = regs[base] + disp`` and rewriting requires the runtime
    shared/private check of paper Fig. 4.
    """

    __slots__ = ("base", "disp")

    def __init__(self, base: Optional[int], disp: int = 0):
        if base is not None and not 0 <= base < REGISTER_COUNT:
            raise ValueError(f"bad base register r{base}")
        self.base = base
        self.disp = disp

    @property
    def is_direct(self) -> bool:
        """True when the effective address is a compile-time constant."""
        return self.base is None

    def __repr__(self) -> str:
        # Must match the disassembler's rendering byte-for-byte
        # (tests/machine/test_disasm.py round-trips every bundled
        # workload through both): zero displacements are omitted.
        if self.base is None:
            return f"[{self.disp:#x}]"
        if self.disp:
            return f"[r{self.base}+{self.disp:#x}]"
        return f"[r{self.base}]"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MemOperand)
                and self.base == other.base and self.disp == other.disp)

    def __hash__(self) -> int:
        return hash((self.base, self.disp))


class Instruction:
    """One decoded mini-ISA instruction.

    Instances are mutable only in one way: :attr:`uid` is assigned when the
    enclosing program is finalized, and AikidoSD may *patch* the ``mem``
    operand of a direct-address instruction's code-cache copy. The static
    program copy is never modified after finalize.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "label", "mem", "uid",
                 "is_write")

    def __init__(
        self,
        op: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: int = 0,
        label: Optional[str] = None,
        mem: Optional[MemOperand] = None,
    ):
        self.op = op
        #: True when this instruction writes data memory. Fixed here
        #: because ``op`` is assigned only here (``copy`` re-runs it).
        self.is_write = op in (Opcode.STORE, Opcode.ATOMIC_ADD)
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.label = label
        self.mem = mem
        #: Process-unique static instruction id; -1 until finalized.
        self.uid = -1

    @property
    def is_memory_op(self) -> bool:
        """True when this instruction reads or writes data memory."""
        return self.op in MEMORY_OPCODES

    @property
    def is_sync_op(self) -> bool:
        """True for synchronization instructions (lock/barrier/spawn/join)."""
        return self.op in SYNC_OPCODES

    def copy(self) -> "Instruction":
        """Shallow copy used by the code cache.

        The copy shares the :attr:`uid` of the original (it is the *same*
        static instruction) but gets its own :class:`MemOperand` so the
        rewriter can patch cached copies without touching the program.
        """
        clone = Instruction(self.op, self.rd, self.rs1, self.rs2,
                            self.imm, self.label,
                            MemOperand(self.mem.base, self.mem.disp)
                            if self.mem is not None else None)
        clone.uid = self.uid
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.name]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.rs1 is not None:
            parts.append(f"r{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"r{self.rs2}")
        if self.mem is not None:
            parts.append(repr(self.mem))
        if self.label is not None:
            parts.append(self.label)
        if self.imm:
            parts.append(f"#{self.imm}")
        return " ".join(parts)
