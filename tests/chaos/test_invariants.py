"""Unit tests for the cross-layer invariant monitor.

Each test pauses a real aikido-fasttrack run mid-flight (instruction
budget exhaustion leaves live threads, populated shadow tables, warm
TLBs and a non-trivial page-state table), corrupts exactly one
cross-layer agreement by hand, and asserts the monitor converts the
corruption into a structured :class:`InvariantViolationError` naming
the right invariant.
"""

import pytest

from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
from repro.chaos.invariants import INVARIANTS
from repro.core.config import AikidoConfig
from repro.core.system import AikidoSystem
from repro.errors import HarnessError, InvariantViolationError
from repro.machine.paging import PAGE_SHIFT, PTE_PRESENT, PTE_WRITABLE
from repro.workloads.parsec import build_benchmark

_SHARED = -1


@pytest.fixture
def system():
    """A mid-run stack: stopped by budget with everything still live."""
    program = build_benchmark("canneal", threads=2, scale=0.25)
    stack = AikidoSystem(
        program, lambda kernel: AikidoFastTrack(kernel, block_size=8),
        AikidoConfig(check_invariants=True),
        seed=3, quantum=100, jitter=0.0)
    with pytest.raises(HarnessError, match="instruction budget"):
        stack.kernel.run(max_instructions=5_000)
    return stack


def _live_thread(system, *, warm_tlb=False):
    for process in system.kernel.processes.values():
        for thread in process.live_threads:
            if not warm_tlb or len(thread.tlb):
                return thread
    pytest.fail("mid-run system has no suitable live thread")


def test_invariant_registry():
    assert INVARIANTS == ("shadow_subset", "protection_agreement",
                          "mirror_alias", "page_state_monotone",
                          "tlb_coherence")


def test_clean_midrun_passes(system):
    monitor = system.monitor
    before = monitor.checks_run
    monitor.check_all()
    monitor.check_all()
    assert monitor.checks_run == before + 2
    assert monitor.violations == 0


def test_shadow_subset_wrong_frame(system):
    thread = _live_thread(system)
    shadow = system.hypervisor.shadow_tables[thread.tid]
    vpn = sorted(shadow.entries)[0]
    shadow.entries[vpn].pfn += 1
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    assert excinfo.value.invariant == "shadow_subset"
    assert excinfo.value.details["shadow_pfn"] \
        == excinfo.value.details["guest_pfn"] + 1
    assert system.monitor.violations == 1


def test_shadow_subset_orphan_entry(system):
    thread = _live_thread(system)
    shadow = system.hypervisor.shadow_tables[thread.tid]
    orphan_vpn = max(thread.process.page_table.entries) + 1000
    shadow.map(orphan_vpn, 1, PTE_PRESENT)
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    assert excinfo.value.invariant == "shadow_subset"
    assert excinfo.value.details["vpn"] == orphan_vpn


def test_protection_agreement_forged_flags(system):
    thread = _live_thread(system)
    shadow = system.hypervisor.shadow_tables[thread.tid]
    vpn = sorted(shadow.entries)[0]
    shadow.entries[vpn].flags ^= PTE_WRITABLE
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    assert excinfo.value.invariant == "protection_agreement"
    details = excinfo.value.details
    assert details["shadow_flags"] != details["expected_flags"]


def test_mirror_alias_broken_aliasing(system):
    region = next(
        r for r in (system.sd.shadow.region_for(s)
                    for s in system.sd.shadow._starts)
        if r is not None and r.mirror_base is not None)
    guest = system.sd.process.page_table
    mirror_vpn = region.mirror_base >> PAGE_SHIFT
    guest.entries[mirror_vpn].pfn += 7
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_mirror_alias()
    assert excinfo.value.invariant == "mirror_alias"
    assert excinfo.value.details["mirror_pfn"] \
        == excinfo.value.details["app_pfn"] + 7


def test_page_state_regression_to_private(system):
    monitor = system.monitor
    monitor.check_all()  # establish the snapshot
    table = system.sd.pagestate._table
    vpn = next(v for v, owner in table.items() if owner == _SHARED)
    table[vpn] = 1  # SHARED is absorbing; this transition is illegal
    with pytest.raises(InvariantViolationError) as excinfo:
        monitor.check_all()
    assert excinfo.value.invariant == "page_state_monotone"
    assert "SHARED" in str(excinfo.value)


def test_page_state_owner_change(system):
    monitor = system.monitor
    monitor.check_all()
    table = system.sd.pagestate._table
    vpn, owner = next((v, o) for v, o in table.items() if o != _SHARED)
    table[vpn] = owner + 1
    with pytest.raises(InvariantViolationError) as excinfo:
        monitor.check_all()
    assert excinfo.value.invariant == "page_state_monotone"


def test_page_state_untracked(system):
    monitor = system.monitor
    monitor.check_all()
    table = system.sd.pagestate._table
    del table[next(iter(table))]
    with pytest.raises(InvariantViolationError, match="untracked"):
        monitor.check_all()


def test_tlb_coherence_wrong_frame(system):
    thread = _live_thread(system, warm_tlb=True)
    vpn, (pfn, flags) = next(thread.tlb.items())
    thread.tlb.fill(vpn, pfn + 1, flags)
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    assert excinfo.value.invariant == "tlb_coherence"
    assert excinfo.value.details["tlb_pfn"] == pfn + 1


def test_tlb_coherence_unmapped_but_cached(system):
    thread = _live_thread(system)
    unmapped_vpn = max(thread.process.page_table.entries) + 2000
    thread.tlb.fill(unmapped_vpn, 1, PTE_PRESENT)
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    assert excinfo.value.invariant == "tlb_coherence"
    assert "unmapped" in str(excinfo.value)


def test_violation_error_is_structured(system):
    thread = _live_thread(system, warm_tlb=True)
    vpn, (pfn, flags) = next(thread.tlb.items())
    thread.tlb.fill(vpn, pfn + 1, flags)
    with pytest.raises(InvariantViolationError) as excinfo:
        system.monitor.check_all()
    err = excinfo.value
    assert err.invariant in INVARIANTS
    assert isinstance(err.details, dict) and err.details
    diagnosis = err.diagnosis()
    assert diagnosis["invariant"] == err.invariant
    assert diagnosis["details"] == err.details
    assert system.monitor.violations == 1
    assert system.monitor.snapshot()["invariant_violations"] == 1
