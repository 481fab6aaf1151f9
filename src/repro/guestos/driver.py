"""Execution drivers: the fetch/execute/retire loop.

A driver runs one thread for up to a quantum of instructions, consulting
the CPU for instruction semantics and the kernel for traps and faults.
:class:`NativeDriver` executes the program directly (the paper's "native"
baseline); the DBR engine (:class:`repro.dbr.engine.DBREngine`) implements
the same interface but fetches through a code cache and runs
instrumentation hooks.

Fault protocol: a :class:`~repro.machine.paging.PageFault` means the
instruction did not retire. The driver asks the kernel to repair it
(platform/hypervisor first, then signal delivery); on success the same
instruction is re-executed. This retry loop is what lets AikidoSD repair
the world (unprotect a page, rewrite a block) behind the application's
back.
"""

from __future__ import annotations

from repro.machine.cpu import BASE_COST
from repro.machine.isa import MEMORY_OPCODES
from repro.machine.paging import PageFault


class RunStats:
    """Dynamic execution statistics for one run (Table 2 raw material)."""

    def __init__(self):
        #: Dynamic count of executed instructions that reference memory
        #: (Table 2, column 1: what a conservative tool must instrument).
        self.memory_refs = 0
        #: All retired instructions.
        self.instructions = 0
        #: Dynamic executions of *instrumented* instructions (Table 2 col 2).
        self.instrumented_execs = 0
        #: How many of those executions touched a shared page (col 3).
        self.shared_accesses = 0
        #: Analysis events actually delivered to the tool.
        self.tool_invocations = 0

    def as_dict(self) -> dict:
        return {
            "memory_refs": self.memory_refs,
            "instructions": self.instructions,
            "instrumented_execs": self.instrumented_execs,
            "shared_accesses": self.shared_accesses,
            "tool_invocations": self.tool_invocations,
        }


class ExecutionDriver:
    """Common driver machinery; subclasses override the fetch path."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cpu = kernel.cpu
        self.counter = kernel.counter
        self.stats = RunStats()

    def run(self, thread, budget: int) -> str:
        """Run ``thread`` for at most ``budget`` instructions.

        Returns the stop reason: ``"quantum"``, ``"blocked"``,
        ``"exited"``, or ``"yield"``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Drop references into the finished run (see ``Kernel.close``)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _apply_result(self, thread, pc, ii: int, res) -> bool:
        """Apply a non-None CPU result; returns False if thread blocked.

        ``res`` is a control tuple or an Action. The caller has already
        handled ``None`` (fallthrough).
        """
        if res.__class__ is tuple:
            tag = res[0]
            if tag == "jmp":
                pc[0] = res[1]
                pc[1] = 0
            elif tag == "call":
                thread.call_stack.append((pc[0], ii + 1))
                pc[0] = res[1]
                pc[1] = 0
            else:  # ret
                if not thread.call_stack:
                    from repro.errors import InvalidInstructionError
                    raise InvalidInstructionError(
                        f"RET with empty call stack in thread {thread.tid}")
                pc[0], pc[1] = thread.call_stack.pop()
            return True
        # Action: trap into the kernel.
        advanced = self.kernel.service(thread, res)
        if advanced:
            pc[1] = ii + 1
        return thread.runnable


class NativeDriver(ExecutionDriver):
    """Direct interpretation of the static program (no DBR, no tool)."""

    def run(self, thread, budget: int) -> str:
        kernel = self.kernel
        execute = self.cpu.execute
        counter = self.counter
        stats = self.stats
        pc = thread.pc
        blocks = thread.program.blocks
        executed = 0
        while executed < budget:
            if not thread.runnable:
                return "exited" if thread.exited else "blocked"
            block_instrs = blocks[pc[0]].instructions
            ii = pc[1]
            if ii >= len(block_instrs):
                pc[0] += 1
                pc[1] = 0
                continue
            instr = block_instrs[ii]
            try:
                res = execute(instr, thread)
            except PageFault as fault:
                kernel.repair_fault(thread, fault)
                continue  # re-execute the faulting instruction
            op = instr.op
            counter.instr_cycles += BASE_COST[op]
            executed += 1
            stats.instructions += 1
            if op in MEMORY_OPCODES:
                stats.memory_refs += 1
            if res is None:
                pc[1] = ii + 1
            elif not self._apply_result(thread, pc, ii, res):
                return "exited" if thread.exited else "blocked"
            if kernel.consume_yield():
                return "yield"
        return "quantum"
