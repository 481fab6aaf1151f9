"""The AikidoVM hypervisor core (paper §3.2).

Implements the :class:`~repro.guestos.platform.Platform` interface so the
unmodified guest kernel runs on top of it. Responsibilities:

* maintain one shadow page table + one protection table per guest thread;
* intercept guest page-table writes (via the write hook standing in for
  write-protected PT pages) and propagate them to every shadow table;
* intercept context switches (hypercall or GS-write trap, §3.2.3);
* classify page faults: Aikido-initiated faults are *injected* into the
  guest as fake faults at the pre-registered address with the true
  address in the mailbox (§3.2.5); guest-kernel faults on Aikido-protected
  pages are emulated with temporary USER-cleared unprotection (§3.2.6);
  everything else is delivered to the guest untouched;
* service hypercalls from AikidoLib.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro import costs
from repro.errors import (
    BadHypercallError,
    HypervisorError,
    TransientHypercallError,
)
from repro.guestos.platform import FaultDisposition, Platform
from repro.hypervisor.hypercalls import (
    ALL_THREADS,
    HC_INIT,
    HC_SET_PROT,
    PROT_CLEAR,
)
from repro.hypervisor.protection import ProtectionTable
from repro.hypervisor.shadow import ShadowPageTable
from repro.machine.paging import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    PageFault,
)


class HypervisorStats:
    """Counters the evaluation section reports or that ablations need."""

    def __init__(self):
        #: Fake page faults injected into the guest — Table 2 column 4
        #: ("Segmentation Faults ... delivered by the AikidoVM hypervisor").
        self.segfaults_delivered = 0
        self.vmexits = 0
        self.guest_pt_writes = 0
        self.emulated_kernel_accesses = 0
        self.temp_unprotect_restores = 0
        #: Shadow-paging hidden faults (lazy mode): exits the guest never
        #: observes, fixed entirely inside the hypervisor.
        self.hidden_faults = 0
        #: Cross-process CR3 reload traps (§3.2.2).
        self.cr3_exits = 0
        self.ctx_switch_traps = 0
        self.hypercalls = 0
        self.protection_updates = 0
        self.shadow_syncs = 0
        self.tlb_invalidations = 0
        #: Chaos: transient HC_SET_PROT failures injected.
        self.hypercall_failures_injected = 0
        #: Chaos: shadow PTEs deliberately dropped at context switches.
        self.shadow_desyncs_injected = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class AikidoVM(Platform):
    """Hypervisor platform providing per-thread page protection."""

    def __init__(self, counter=None, ctx_switch_mode: str = "hypercall",
                 per_thread_shadow: bool = True,
                 eager_shadow: bool = True):
        if ctx_switch_mode not in ("hypercall", "gs_trap"):
            raise HypervisorError(
                f"unknown context-switch mode {ctx_switch_mode!r}")
        self.counter = counter
        self.ctx_switch_mode = ctx_switch_mode
        #: False = traditional hypervisor (paper Fig. 2, left): one shadow
        #: page table per guest page table, shared by every thread. No
        #: per-thread protection is possible and same-address-space
        #: context switches need no interception.
        self.per_thread_shadow = per_thread_shadow
        #: True (default): every guest PTE write is propagated to every
        #: shadow table immediately. False models real shadow paging:
        #: shadow entries materialize on demand through *hidden faults*
        #: (extra VM exits the guest never sees), and guest PT writes
        #: just invalidate.
        self.eager_shadow = eager_shadow
        self._shared_shadow: Optional[ShadowPageTable] = None
        self._shared_ptable: Optional[ProtectionTable] = None
        #: All attached guest processes, pid -> Process. ``process`` (the
        #: first attached) remains as a single-process convenience.
        self.processes: Dict[int, object] = {}
        self.shadow_tables: Dict[int, ShadowPageTable] = {}
        self.protection_tables: Dict[int, ProtectionTable] = {}
        #: tid -> Thread, across all attached processes.
        self._threads: Dict[int, object] = {}
        #: (tid, vpn) pairs temporarily unprotected for the guest kernel.
        self._temp_kernel_unprotected: Set[Tuple[int, int]] = set()
        # Registered by AikidoLib through HC_INIT, per process (several
        # Aikido-enabled processes may coexist). The flat attributes
        # mirror the most recent registration for single-process use.
        self._registrations: Dict[int, tuple] = {}
        self.fault_read_page: Optional[int] = None
        self.fault_write_page: Optional[int] = None
        self.mailbox_addr: Optional[int] = None
        self.stats = HypervisorStats()
        #: Chaos injector, attached by ChaosInjector.attach (None = off).
        self.chaos = None
        #: Observability tracer, attached by AikidoSystem (None = off).
        self.tracer = None

    # ------------------------------------------------------------------
    # Platform lifecycle
    # ------------------------------------------------------------------
    @property
    def process(self):
        """The first attached process (single-process convenience)."""
        return self.processes.get(min(self.processes)) \
            if self.processes else None

    def close(self) -> None:
        """Drop the attached processes and threads (see
        ``Kernel.close``)."""
        self.processes.clear()
        self._threads.clear()

    def attach_process(self, process) -> None:
        if process.pid in self.processes:
            raise HypervisorError(
                f"process {process.pid} already attached")
        self.processes[process.pid] = process
        process.page_table.set_write_hook(
            lambda vpn, old, new, _p=process:
            self._on_guest_pt_write(_p, vpn, old, new))

    def on_thread_created(self, thread) -> None:
        tid = thread.tid
        self._threads[tid] = thread
        if not self.per_thread_shadow:
            # Traditional mode: every thread shares one shadow table.
            if self._shared_shadow is None:
                self._shared_shadow = ShadowPageTable(0)
                self._shared_ptable = ProtectionTable(0)
                for vpn, pte in self.process.page_table.entries.items():
                    self._shared_shadow.sync_entry(vpn, pte, None)
                self._charge("hypervisor", costs.SHADOW_PTE_SYNC
                             * len(self.process.page_table.entries))
                self.stats.shadow_syncs +=                     len(self.process.page_table.entries)
            self.shadow_tables[tid] = self._shared_shadow
            self.protection_tables[tid] = self._shared_ptable
            return
        shadow = ShadowPageTable(tid)
        ptable = ProtectionTable(tid)
        self.shadow_tables[tid] = shadow
        self.protection_tables[tid] = ptable
        if not self.eager_shadow:
            # Lazy mode: entries materialize through hidden faults.
            return
        # Populate the shadow table from the current guest table. (The
        # real AikidoVM fills shadow entries lazily on hidden faults; the
        # eager default charges per entry up front, which keeps
        # delivered-fault counts equal to Aikido-protection faults only.)
        pt = thread.process.page_table
        for vpn, pte in pt.entries.items():
            shadow.sync_entry(vpn, pte, ptable.get(vpn))
        self._charge("hypervisor", costs.SHADOW_PTE_SYNC * len(pt.entries))
        self.stats.shadow_syncs += len(pt.entries)

    def on_thread_exited(self, thread) -> None:
        self._threads.pop(thread.tid, None)
        self.shadow_tables.pop(thread.tid, None)
        self.protection_tables.pop(thread.tid, None)
        self._temp_kernel_unprotected = {
            (tid, vpn) for tid, vpn in self._temp_kernel_unprotected
            if tid != thread.tid}

    def on_address_space_switch(self, prev, nxt) -> None:
        """Cross-process switch: the CR3 write exits into the hypervisor
        so it can swap the active shadow-table set (§3.2.2)."""
        self.stats.cr3_exits += 1
        self._charge("vmexit", costs.VMEXIT)

    def on_context_switch(self, prev, nxt) -> None:
        if not self.per_thread_shadow:
            # Traditional hypervisor: same-address-space switches keep
            # the same shadow table, nothing to intercept, no exit.
            return
        # Same-address-space switches do not write CR3, so AikidoVM needs
        # either the in-kernel hypercall or a trap on the GS/FS write
        # (§3.2.3). Both cost a VM exit; the hypercall variant also pays
        # the hypercall dispatch.
        self.stats.ctx_switch_traps += 1
        if self.ctx_switch_mode == "hypercall":
            self._charge("vmexit", costs.CONTEXT_SWITCH_TRAP)
        else:
            self._charge("vmexit", costs.VMEXIT)
        chaos = self.chaos
        if chaos is not None and chaos.fires("shadow_desync", tid=nxt.tid):
            self._inject_shadow_desync(nxt, chaos)

    def _inject_shadow_desync(self, thread, chaos) -> None:
        """Chaos: drop one of the incoming thread's shadow PTEs.

        The matching TLB entry is shot down too, so the next access to the
        page takes a hidden fault (case 5 in :meth:`handle_fault`) and the
        entry is re-derived — recoverable by construction. Leaving the TLB
        entry in place would be ``stale_tlb``'s job, not this one's.
        """
        shadow = self.shadow_tables.get(thread.tid)
        if shadow is None or not shadow.entries:
            chaos.note_recovered("shadow_desync")  # nothing to desync
            return
        vpns = sorted(shadow.entries)
        vpn = vpns[chaos.rng("shadow_desync").randrange(len(vpns))]
        if shadow.desync(vpn):
            self.stats.shadow_desyncs_injected += 1
            thread.tlb.invalidate(vpn)
        chaos.note_recovered("shadow_desync")

    def is_temp_kernel_unprotected(self, tid: int, vpn: int) -> bool:
        """True while (tid, vpn) is temporarily kernel-unprotected (§3.2.6).

        Public accessor for the invariant monitor: during the window the
        shadow PTE legitimately disagrees with the protection table.
        """
        return (tid, vpn) in self._temp_kernel_unprotected

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def translate(self, thread, vaddr: int, is_write: bool,
                  user_mode: bool = True) -> int:
        vpn = vaddr >> PAGE_SHIFT
        tlb = thread.tlb
        hit = tlb.lookup(vpn)
        if hit is not None:
            pfn, flags = hit
            if _permits(flags, is_write, user_mode):
                return (pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
        shadow = self.shadow_tables[thread.tid]
        paddr = shadow.translate(vaddr, is_write=is_write,
                                 user_mode=user_mode)
        entry = shadow.lookup(vpn)
        tlb.fill(vpn, entry.pfn, entry.flags)
        return paddr

    # ------------------------------------------------------------------
    # fault routing
    # ------------------------------------------------------------------
    def handle_fault(self, thread, fault: PageFault) -> FaultDisposition:
        self.stats.vmexits += 1
        self._charge("vmexit", costs.VMEXIT)
        vpn = fault.vpn
        tid = thread.tid
        ptable = self.protection_tables[tid]
        guest_pte = thread.process.page_table.lookup(vpn)

        # 1. Userspace touched a page that was temporarily unprotected for
        #    the guest kernel: restore every temp-unprotected page, then
        #    let the access fault again and take the normal Aikido path.
        if fault.user_mode and (tid, vpn) in self._temp_kernel_unprotected:
            self._restore_temp_unprotected()
            return FaultDisposition.retry()

        guest_allows = (guest_pte is not None
                        and guest_pte.permits(fault.is_write,
                                              fault.user_mode))
        if guest_allows and ptable.restricts(vpn, fault.is_write):
            if not fault.user_mode:
                # 2. §3.2.6: the guest kernel tripped over an Aikido
                #    protection it knows nothing about. Emulate the access
                #    (here: let the retry run against a USER-cleared
                #    mapping) and remember to restore later.
                self.stats.emulated_kernel_accesses += 1
                self._charge("hypervisor", costs.EMULATE_GUEST_ACCESS)
                self._temp_kernel_unprotected.add((tid, vpn))
                self._resync(tid, vpn)
                return FaultDisposition.retry()
            # 3. An Aikido-initiated userspace fault: record the true
            #    address in the mailbox and inject a fake fault at the
            #    matching pre-registered page (§3.2.5).
            registration = self._registrations.get(thread.process.pid)
            if registration is None:
                raise HypervisorError(
                    "Aikido fault before AikidoLib initialization")
            read_page, write_page, mailbox = registration
            self._write_mailbox(thread.process, mailbox, fault.vaddr,
                                fault.is_write)
            fake = write_page if fault.is_write else read_page
            self.stats.segfaults_delivered += 1
            self._charge("fault_injection", costs.FAULT_INJECTION)
            if self.tracer is not None:
                self.tracer.instant("fake_fault", "hypervisor", tid=tid,
                                    true_addr=fault.vaddr,
                                    fake_page=fake,
                                    write=fault.is_write)
            return FaultDisposition.deliver(fake)

        if not guest_allows:
            # 4. A genuine guest fault: hand it to the guest kernel as-is.
            return FaultDisposition.deliver(fault.vaddr)

        # 5. Shadow entry missing/out of sync: a *hidden fault*. With
        #    eager propagation this should not happen; in lazy mode it is
        #    the normal way shadow entries materialize.
        self.stats.hidden_faults += 1
        self.stats.shadow_syncs += 1
        self._charge("hypervisor", costs.SHADOW_PTE_SYNC)
        if self.tracer is not None:
            self.tracer.instant("hidden_fault", "hypervisor", tid=tid,
                                vpn=vpn)
        self._resync(tid, vpn)
        return FaultDisposition.retry()

    # ------------------------------------------------------------------
    # hypercalls
    # ------------------------------------------------------------------
    def hypercall(self, thread, number: int, args) -> int:
        self.stats.hypercalls += 1
        self._charge("hypercall", costs.HYPERCALL)
        if self.tracer is not None:
            self.tracer.instant("hypercall", "hypervisor",
                                tid=thread.tid, number=number)
        if number == HC_INIT:
            self._registrations[thread.process.pid] = (args[0], args[1],
                                                       args[2])
            self.fault_read_page = args[0]
            self.fault_write_page = args[1]
            self.mailbox_addr = args[2]
            return 0
        if number == HC_SET_PROT:
            if not self.per_thread_shadow:
                raise BadHypercallError(
                    "per-thread page protection requires per-thread "
                    "shadow tables (traditional hypervisor mode)")
            tid, vpn_start, count, prot = args[0], args[1], args[2], args[3]
            chaos = self.chaos
            if chaos is not None and chaos.fires(
                    "hypercall_fail", tid=thread.tid,
                    detail=f"vpn={vpn_start:#x} count={count}"):
                # Fail *before* any protection state changes, so a retry
                # of the hypercall is exactly equivalent to a clean call.
                self.stats.hypercall_failures_injected += 1
                raise TransientHypercallError(
                    f"injected transient HC_SET_PROT failure "
                    f"(vpn={vpn_start:#x} count={count} tid={tid})")
            self._set_protection(thread.process, tid, vpn_start, count,
                                 prot)
            return 0
        raise BadHypercallError(f"unknown hypercall {number}")

    def _set_protection(self, process, tid: int, vpn_start: int,
                        count: int, prot: int) -> None:
        if prot not in (PROT_NONE, PROT_READ, PROT_RW, PROT_CLEAR):
            raise BadHypercallError(f"bad protection {prot}")
        if self.tracer is not None:
            with self.tracer.span("set_protection", "hypervisor",
                                  tid=0 if tid == ALL_THREADS else tid,
                                  vpn_start=vpn_start, count=count,
                                  prot=prot):
                self._set_protection_inner(process, tid, vpn_start,
                                           count, prot)
            return
        self._set_protection_inner(process, tid, vpn_start, count, prot)

    def _set_protection_inner(self, process, tid: int, vpn_start: int,
                              count: int, prot: int) -> None:
        if tid == ALL_THREADS:
            # "All threads" means all threads of the *calling* process —
            # protection requests never leak into other address spaces.
            tids = [t for t in process.threads
                    if t in self.protection_tables]
        else:
            if tid not in self.protection_tables:
                raise BadHypercallError(f"no such thread {tid}")
            tids = [tid]
        for t in tids:
            ptable = self.protection_tables[t]
            for vpn in range(vpn_start, vpn_start + count):
                if prot == PROT_CLEAR:
                    ptable.clear(vpn)
                else:
                    ptable.set(vpn, prot)
                self._temp_kernel_unprotected.discard((t, vpn))
                self._resync(t, vpn)
                self.stats.protection_updates += 1
                self._charge("hypervisor", costs.PROTECTION_UPDATE)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_guest_pt_write(self, process, vpn: int, old, new) -> None:
        """A guest kernel wrote a PTE; propagate to the shadow tables of
        that process's threads (eager mode) or just drop the stale
        entries (lazy mode: the next access takes a hidden fault)."""
        self.stats.guest_pt_writes += 1
        self._charge("vmexit", costs.VMEXIT)
        if not self.eager_shadow:
            for tid in process.threads:
                shadow = self.shadow_tables.get(tid)
                if shadow is None:
                    continue
                shadow.unmap(vpn)
                process.threads[tid].tlb.invalidate(vpn)
            return
        for tid in process.threads:
            if tid not in self.shadow_tables:
                continue
            self._resync(tid, vpn)
            self.stats.shadow_syncs += 1
            self._charge("hypervisor", costs.SHADOW_PTE_SYNC)

    def _resync(self, tid: int, vpn: int) -> None:
        """Re-derive one shadow PTE and shoot down the thread's TLB entry."""
        shadow = self.shadow_tables[tid]
        thread = self._threads.get(tid)
        if thread is None:
            return
        guest_pte = thread.process.page_table.lookup(vpn)
        override = self.protection_tables[tid].get(vpn)
        kernel_unprotected = (tid, vpn) in self._temp_kernel_unprotected
        shadow.sync_entry(vpn, guest_pte, override, kernel_unprotected)
        thread.tlb.invalidate(vpn)
        self.stats.tlb_invalidations += 1
        self._charge("tlb", costs.TLB_INVLPG)

    def _restore_temp_unprotected(self) -> None:
        """Reinstate Aikido protections on all kernel-touched pages."""
        self.stats.temp_unprotect_restores += 1
        pending = list(self._temp_kernel_unprotected)
        self._temp_kernel_unprotected.clear()
        for tid, vpn in pending:
            if tid in self.shadow_tables:
                self._resync(tid, vpn)

    def _write_mailbox(self, process, mailbox: int, true_addr: int,
                       is_write: bool) -> None:
        """Record the true faulting address where AikidoLib will look."""
        vm = process.vm
        vm.write_word(mailbox, true_addr)
        vm.write_word(mailbox + 8, 1 if is_write else 0)

    def _charge(self, category: str, cycles: int) -> None:
        if self.counter is not None:
            self.counter.charge(category, cycles)


def _permits(flags: int, is_write: bool, user_mode: bool) -> bool:
    if not flags & 0b001:
        return False
    if is_write and not flags & 0b010:
        return False
    if user_mode and not flags & 0b100:
        return False
    return True
