"""Platform abstraction: who translates addresses and sees faults first.

The kernel and drivers are written against :class:`Platform`. On bare
metal (:class:`NativePlatform`) translation walks the guest page table and
faults go straight to the kernel. Under AikidoVM
(:class:`repro.hypervisor.aikidovm.VirtualizedPlatform`) translation walks
the *current thread's shadow page table* and every fault is first a VM
exit into the hypervisor.

TLB semantics follow x86: a permissive TLB entry grants access without a
walk (so a stale permissive entry hides protection downgrades — the reason
AikidoVM must shoot down TLBs), while a restrictive TLB entry triggers a
re-walk before any fault is raised (hardware re-validates on fault, so
protection *upgrades* never need a flush).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HypervisorError
from repro.machine.paging import PAGE_SHIFT, PAGE_SIZE, PageFault


class FaultDisposition:
    """What the platform decided about a fault.

    ``retry``: the cause was repaired transparently (e.g. shadow-table
    sync); re-execute the instruction without guest involvement.
    ``deliver``: the guest kernel should see a fault at
    ``delivered_address`` (for Aikido faults this is the fake address; the
    true one went to the AikidoLib mailbox).
    """

    __slots__ = ("kind", "delivered_address")

    def __init__(self, kind: str, delivered_address: Optional[int] = None):
        self.kind = kind
        self.delivered_address = delivered_address

    @classmethod
    def retry(cls) -> "FaultDisposition":
        return cls("retry")

    @classmethod
    def deliver(cls, address: int) -> "FaultDisposition":
        return cls("deliver", address)


class Platform:
    """Interface the kernel and execution drivers program against."""

    def attach_process(self, process) -> None:
        """Called once when a process is created."""

    def on_thread_created(self, thread) -> None:
        """Called after a thread exists but before it runs."""

    def on_thread_exited(self, thread) -> None:
        """Called when a thread exits."""

    def on_context_switch(self, prev, nxt) -> None:
        """Called by the kernel on every context switch."""

    def on_address_space_switch(self, prev, nxt) -> None:
        """Called (before on_context_switch) when the switch crosses
        processes: the kernel reloads CR3, which hypervisors trap."""

    def translate(self, thread, vaddr: int, is_write: bool,
                  user_mode: bool = True) -> int:
        raise NotImplementedError

    def handle_fault(self, thread, fault: PageFault) -> FaultDisposition:
        raise NotImplementedError

    def hypercall(self, thread, number: int, args) -> int:
        raise HypervisorError("no hypervisor on this platform")

    def close(self) -> None:
        """Drop references into a finished run (see ``Kernel.close``)."""


class NativePlatform(Platform):
    """Bare-metal translation straight through the guest page table."""

    def __init__(self, counter=None):
        #: Optional CycleCounter; native translation itself is free (it is
        #: the hardware walking the tables) but kept for symmetry.
        self.counter = counter

    def translate(self, thread, vaddr: int, is_write: bool,
                  user_mode: bool = True) -> int:
        vpn = vaddr >> PAGE_SHIFT
        tlb = thread.tlb
        hit = tlb.lookup(vpn)
        if hit is not None:
            pfn, flags = hit
            if _permits(flags, is_write, user_mode):
                return (pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
        # Miss or restrictive entry: hardware walk (re-validates).
        paddr = thread.process.page_table.translate(
            vaddr, is_write=is_write, user_mode=user_mode)
        entry = thread.process.page_table.lookup(vpn)
        tlb.fill(vpn, entry.pfn, entry.flags)
        return paddr

    def handle_fault(self, thread, fault: PageFault) -> FaultDisposition:
        # Eager mapping means there is nothing to repair: deliver as-is.
        return FaultDisposition.deliver(fault.vaddr)


def _permits(flags: int, is_write: bool, user_mode: bool) -> bool:
    """Check TLB-cached permission bits (mirrors PTE.permits)."""
    if not flags & 0b001:  # PRESENT
        return False
    if is_write and not flags & 0b010:  # WRITABLE
        return False
    if user_mode and not flags & 0b100:  # USER
        return False
    return True
