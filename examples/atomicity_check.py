#!/usr/bin/env python
"""Atomicity checking under Aikido (the paper's *other* analysis class).

The paper's introduction motivates Aikido with race detectors *and*
atomicity checkers [AVIO, Atomizer, Velodrome]. This example runs the
AVIO access-interleaving-invariant checker on a bank-account program with
a classic atomicity bug: the deposit's read-modify-write runs inside a
critical section, but an audit thread writes the balance without taking
the lock — the deposit's two accesses can observe the interleaved write,
which is unserializable (AVIO case R-W-W / W-W-R).

    python examples/atomicity_check.py
"""

from repro.analyses.atomicity import AVIOChecker
from repro.analyses.generic_tool import GenericAnalysis
from repro.core.system import AikidoSystem
from repro.guestos import syscalls
from repro.machine.asm import ProgramBuilder


def bank_program(buggy: bool):
    b = ProgramBuilder("bank")
    account = b.segment("account", 64)
    b.label("main")
    b.li(4, account)
    b.li(5, 1000)
    b.store(5, base=4, disp=0)          # balance = 1000
    b.li(3, 0)
    b.spawn(6, "auditor", arg_reg=3)
    with b.loop(counter=2, count=15):   # depositor
        b.lock(lock_id=1)
        b.load(7, base=4, disp=0)       # read balance
        b.syscall(syscalls.SYS_YIELD)   # widen the window
        b.add(7, 7, imm=10)
        b.store(7, base=4, disp=0)      # write balance
        b.unlock(lock_id=1)
    b.join(6)
    b.halt()
    b.label("auditor")
    b.li(4, account)
    with b.loop(counter=2, count=15):
        if not buggy:
            b.lock(lock_id=1)
        b.load(8, base=4, disp=0)
        b.li(9, 0)
        b.store(9, base=4, disp=8)      # writes the audit log...
        b.store(8, base=4, disp=0)      # ...and "corrects" the balance
        if not buggy:
            b.unlock(lock_id=1)
    b.halt()
    return b.build()


def run(buggy: bool):
    system = AikidoSystem(
        bank_program(buggy),
        lambda kernel: GenericAnalysis(AVIOChecker(kernel.counter)),
        seed=9, quantum=5, jitter=0.3)
    system.run()
    return system


def main():
    print("=== buggy auditor (no lock) ===")
    system = run(buggy=True)
    checker = system.analysis.detector
    for violation in checker.violations[:4]:
        print("  ", violation.describe())
    if not checker.violations:
        print("   no violation observed on this schedule (try other seeds)")
    print(f"   checked {checker.checked} shared accesses "
          f"out of {system.run_stats.memory_refs} total — "
          "Aikido skipped the rest")

    print("\n=== fixed auditor (locked) ===")
    system = run(buggy=False)
    print(f"   violations: {len(system.analysis.detector.violations)}")


if __name__ == "__main__":
    main()
