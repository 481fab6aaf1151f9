"""Tests for the AVIO-style atomicity checker."""

import pytest

from repro.analyses.atomicity import AVIOChecker, UNSERIALIZABLE
from repro.analyses.generic_tool import GenericAnalysis
from repro.core.system import AikidoSystem
from repro.machine.asm import ProgramBuilder


def region(checker, tid, lock=1):
    """Helper: run accesses inside a critical section."""
    checker.on_acquire(tid, lock)
    return checker


class TestUnserializablePatterns:
    """Each of AVIO's four cases, plus the four serializable ones."""

    def _run(self, local1, remote, local2):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_access(1, 0x100, local1)
        c.on_access(2, 0x100, remote)   # remote, outside any region
        c.on_access(1, 0x100, local2)
        return c.violations

    def test_case1_read_write_read(self):
        assert self._run(False, True, False)

    def test_case2_write_write_read(self):
        assert self._run(True, True, False)

    def test_case3_read_write_write(self):
        assert self._run(False, True, True)

    def test_case4_write_read_write(self):
        assert self._run(True, False, True)

    def test_serializable_read_read_read(self):
        assert not self._run(False, False, False)

    def test_serializable_read_read_write(self):
        assert not self._run(False, False, True)

    def test_serializable_write_read_read(self):
        assert not self._run(True, False, False)

    def test_serializable_write_write_write(self):
        assert not self._run(True, True, True)

    def test_pattern_table_is_exactly_four(self):
        assert len(UNSERIALIZABLE) == 4


class TestRegionSemantics:
    def test_no_region_no_check(self):
        c = AVIOChecker()
        c.on_access(1, 0x100, False)
        c.on_access(2, 0x100, True)
        c.on_access(1, 0x100, False)   # would be case 1, but no region
        assert not c.violations

    def test_mark_does_not_cross_region_boundary(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_access(1, 0x100, False)
        c.on_release(1, 1)
        c.on_access(2, 0x100, True)
        c.on_acquire(1, 1)             # a NEW region
        c.on_access(1, 0x100, False)
        assert not c.violations

    def test_nested_locks_one_region(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_acquire(1, 2)
        c.on_access(1, 0x100, False)
        c.on_release(1, 2)             # still inside the outer region
        c.on_access(2, 0x100, True)
        c.on_access(1, 0x100, False)
        assert len(c.violations) == 1

    def test_remote_write_dominates_remote_read(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_access(1, 0x100, False)
        c.on_access(2, 0x100, False)   # remote read...
        c.on_access(2, 0x100, True)    # ...then remote write (dominates)
        c.on_access(1, 0x100, False)   # R-W-R: violation
        assert c.violations

    def test_different_blocks_independent(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_access(1, 0x100, False)
        c.on_access(2, 0x200, True)    # different variable
        c.on_access(1, 0x100, False)
        assert not c.violations

    def test_dedup_per_block_and_pattern(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        for _ in range(3):
            c.on_access(1, 0x100, False)
            c.on_access(2, 0x100, True)
            c.on_access(1, 0x100, False)
        assert len(c.violations) == 1

    def test_describe_is_readable(self):
        c = AVIOChecker()
        c.on_acquire(1, 1)
        c.on_access(1, 0x100, True)
        c.on_access(2, 0x100, True)
        c.on_access(1, 0x100, False)
        text = c.violations[0].describe()
        assert "W..R" in text and "t2 W" in text


def atomicity_bug_program():
    """A classic atomicity bug: check-then-act across two critical
    sections... no — *within one* critical section, another thread's
    unprotected write slips between a read and its dependent write."""
    b = ProgramBuilder("atomicity-bug")
    data = b.segment("account", 64)
    b.label("main")
    b.li(4, data)
    b.li(5, 100)
    b.store(5, base=4, disp=0)         # balance = 100
    b.li(3, 0)
    b.spawn(6, "rogue", arg_reg=3)
    with b.loop(counter=2, count=12):
        b.lock(lock_id=1)
        b.load(7, base=4, disp=0)      # read balance (in critical section)
        b.syscall(7)                   # sched_yield: invite interleaving
        b.add(7, 7, imm=10)
        b.store(7, base=4, disp=0)     # write back (same critical section)
        b.unlock(lock_id=1)
    b.join(6)
    b.halt()
    b.label("rogue")
    b.li(4, data)
    with b.loop(counter=2, count=12):
        b.li(8, 0)
        b.store(8, base=4, disp=0)     # unprotected write: breaks atomicity
    b.halt()
    return b.build()


class TestAtomicityUnderAikido:
    def test_finds_the_bug_in_the_full_stack(self):
        system = AikidoSystem(
            atomicity_bug_program(),
            lambda kernel: GenericAnalysis(AVIOChecker(kernel.counter)),
            seed=5, quantum=4, jitter=0.3)
        system.run()
        assert system.analysis.detector.violations
        v = system.analysis.detector.violations[0]
        assert v.pattern in UNSERIALIZABLE

    def test_clean_program_reports_nothing(self):
        from repro.workloads import micro
        program, _ = micro.locked_counter(2, 15)
        system = AikidoSystem(
            program,
            lambda kernel: GenericAnalysis(AVIOChecker(kernel.counter)),
            seed=5, quantum=4, jitter=0.3)
        system.run()
        assert not system.analysis.detector.violations
