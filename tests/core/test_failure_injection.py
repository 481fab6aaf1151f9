"""Failure-injection tests: what the stack does when things go wrong."""

import pytest

from repro.core.analysis import SharedDataAnalysis
from repro.core.system import AikidoSystem
from repro.errors import SegmentationFaultError, ToolError
from repro.harness.runner import run_aikido_fasttrack
from repro.machine.asm import ProgramBuilder
from repro.workloads import micro


class ExplodingAnalysis(SharedDataAnalysis):
    """An analysis that raises on its first shared access."""

    def on_shared_access(self, thread, instr, addr, is_write):
        raise RuntimeError("analysis bug")


class CountingAnalysis(SharedDataAnalysis):
    def __init__(self):
        self.count = 0

    def on_shared_access(self, thread, instr, addr, is_write):
        self.count += 1


class TestAnalysisFailures:
    def test_analysis_exception_propagates_cleanly(self):
        """A buggy analysis must surface its own exception, not corrupt
        the simulation into a different error."""
        program, _ = micro.racy_counter(2, 10)
        system = AikidoSystem(program, ExplodingAnalysis(), seed=3,
                              quantum=20, jitter=0.0)
        with pytest.raises(RuntimeError, match="analysis bug"):
            system.run()


class TestGuestCrashes:
    def test_wild_pointer_under_aikido_is_fatal_with_true_address(self):
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.li(1, 0xBAD0000)
        b.store(2, base=1, disp=0)
        b.halt()
        with pytest.raises(SegmentationFaultError) as excinfo:
            run_aikido_fasttrack(b.build(), seed=1, quantum=20)
        # The crash reports the *application's* bad address, not one of
        # Aikido's fake fault pages.
        assert excinfo.value.address == 0xBAD0000

    def test_crash_in_child_thread_reports_its_tid(self):
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.li(3, 0)
        b.spawn(5, "crasher", arg_reg=3)
        b.join(5)
        b.halt()
        b.label("crasher")
        b.li(1, 0xBAD0000)
        b.load(2, base=1, disp=0)
        b.halt()
        with pytest.raises(SegmentationFaultError) as excinfo:
            run_aikido_fasttrack(b.build(), seed=1, quantum=20)
        assert excinfo.value.thread_id == 2


class TestMisconfiguration:
    def test_double_install_rejected(self):
        from repro.core.sharing import SharingDetector
        program, _ = micro.private_work(1, 5)
        system = AikidoSystem(program, CountingAnalysis(), seed=1,
                              jitter=0.0)
        with pytest.raises(ToolError, match="installed twice"):
            system.sd.install(system.engine)


class TestResourceExhaustion:
    def test_mmap_arena_exhaustion_is_guest_error(self):
        from repro.errors import GuestOSError
        from repro.guestos import syscalls
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.li(1, 1 << 31)                # absurdly large mapping
        b.syscall(syscalls.SYS_MMAP)
        b.halt()
        with pytest.raises(GuestOSError, match="exhausted"):
            run_aikido_fasttrack(b.build(), seed=1, quantum=20)

    def test_heap_limit_enforced(self):
        from repro.errors import GuestOSError
        from repro.guestos import syscalls
        b = ProgramBuilder()
        b.segment("data", 64)
        b.label("main")
        b.li(1, 1 << 30)
        b.syscall(syscalls.SYS_BRK)
        b.halt()
        with pytest.raises(GuestOSError, match="heap limit"):
            run_aikido_fasttrack(b.build(), seed=1, quantum=20)
