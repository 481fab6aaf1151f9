"""Cross-layer invariant monitoring for the Aikido stack.

The stack's correctness rests on agreements between layers that no
single layer can check alone: shadow page tables must re-derive from the
guest table plus the protection table, TLBs must never cache permissions
the current tables would deny, mirror aliases must resolve to the very
frames they alias, and the sharing state machine must only ever move
forward. :class:`InvariantMonitor` walks these structures — from the
host side, costing no simulated cycles, like a VMI-style external
checker — and raises :class:`~repro.errors.InvariantViolationError`
with a structured diagnosis on the first inconsistency.

Checks run at a configurable cadence (every N scheduler quanta, via the
kernel's tick hooks) and once more at run end. The monitor is the
soundness net for chaos runs: recoverable injections must never trip it,
while ``stale_tlb`` (a dropped invalidation) must be *caught* here
instead of silently corrupting analysis results.
"""

from __future__ import annotations

from typing import Dict

from repro.core.pagestate import SHARED_MARK
from repro.errors import InvariantViolationError
from repro.hypervisor.shadow import effective_flags
from repro.machine.paging import (
    PAGE_SHIFT,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)

#: The permission bits a stale TLB entry could illegally grant.
_PERMISSION_BITS = PTE_PRESENT | PTE_WRITABLE | PTE_USER

#: All checks the monitor runs, in execution order.
INVARIANTS = (
    "shadow_subset",
    "protection_agreement",
    "mirror_alias",
    "page_state_monotone",
    "tlb_coherence",
)


class InvariantMonitor:
    """Runs the five cross-layer checks against one live Aikido stack."""

    def __init__(self, kernel, hypervisor, sd=None):
        self.kernel = kernel
        self.hypervisor = hypervisor
        self.sd = sd
        self.checks_run = 0
        self.violations = 0
        #: vpn -> owner tid (or SHARED_MARK) as of the previous check; the
        #: monotonicity check compares against this snapshot.
        self._page_snapshot: Dict[int, int] = {}
        self._quanta = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, cadence: int = 50) -> None:
        """Run :meth:`check_all` every ``cadence`` scheduler quanta.

        ``cadence=0`` installs nothing (run-end check only).
        """
        if cadence <= 0:
            return

        def _tick():
            self._quanta += 1
            if self._quanta % cadence == 0:
                self.check_all()

        self.kernel.tick_hooks.append(_tick)

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def check_all(self) -> None:
        self.checks_run += 1
        try:
            self.check_shadow_subset()
            self.check_protection_agreement()
            self.check_mirror_alias()
            self.check_page_state_monotone()
            self.check_tlb_coherence()
        except InvariantViolationError:
            self.violations += 1
            raise

    def _live_threads(self):
        for process in self.kernel.processes.values():
            for thread in process.live_threads:
                yield thread

    def check_shadow_subset(self) -> None:
        """Every shadow PTE maps a page the guest maps, to the same frame.

        Shadow tables only ever *restrict* the guest view (§3.2.3); an
        entry for an unmapped guest page, or one pointing at a different
        frame, means a propagation was lost.
        """
        for thread in self._live_threads():
            shadow = self.hypervisor.shadow_tables.get(thread.tid)
            if shadow is None:
                continue
            guest = thread.process.page_table
            for vpn, spte in shadow.entries.items():
                gpte = guest.lookup(vpn)
                if gpte is None or not gpte.flags & PTE_PRESENT:
                    raise InvariantViolationError(
                        "shadow_subset",
                        f"t{thread.tid} shadow maps vpn {vpn:#x} which "
                        f"the guest does not",
                        tid=thread.tid, vpn=vpn)
                if spte.pfn != gpte.pfn:
                    raise InvariantViolationError(
                        "shadow_subset",
                        f"t{thread.tid} shadow vpn {vpn:#x} points at "
                        f"frame {spte.pfn}, guest says {gpte.pfn}",
                        tid=thread.tid, vpn=vpn, shadow_pfn=spte.pfn,
                        guest_pfn=gpte.pfn)

    def check_protection_agreement(self) -> None:
        """Shadow flags == effective(guest flags, protection override).

        This is the exact flag-combination rule of
        :func:`repro.hypervisor.shadow.effective_flags`; any drift means
        a protection update or resync was dropped.
        """
        for thread in self._live_threads():
            tid = thread.tid
            shadow = self.hypervisor.shadow_tables.get(tid)
            ptable = self.hypervisor.protection_tables.get(tid)
            if shadow is None or ptable is None:
                continue
            guest = thread.process.page_table
            for vpn, spte in shadow.entries.items():
                gpte = guest.lookup(vpn)
                if gpte is None:
                    continue  # shadow_subset reports this case
                expected = effective_flags(
                    gpte.flags, ptable.get(vpn),
                    self.hypervisor.is_temp_kernel_unprotected(tid, vpn))
                if spte.flags != expected:
                    raise InvariantViolationError(
                        "protection_agreement",
                        f"t{tid} shadow vpn {vpn:#x} has flags "
                        f"{spte.flags:#05b}, protection tables derive "
                        f"{expected:#05b}",
                        tid=tid, vpn=vpn, shadow_flags=spte.flags,
                        expected_flags=expected,
                        override=ptable.get(vpn))

    def check_mirror_alias(self) -> None:
        """Each mirrored region's alias resolves to the aliased frames.

        Walks every region with a mirror mapping and compares the guest
        frame of each original page with the frame of its mirror page —
        the property AikidoSD's rewritten instructions rely on (§3.3.3).
        """
        if self.sd is None or not getattr(self.sd.mirror, "enabled", False):
            return
        guest = self.sd.process.page_table
        for start in list(self.sd.shadow._starts):
            region = self.sd.shadow.region_for(start)
            if region is None or region.mirror_base is None:
                continue
            pages = (region.length + (1 << PAGE_SHIFT) - 1) >> PAGE_SHIFT
            for page in range(pages):
                app_vpn = (region.app_start >> PAGE_SHIFT) + page
                mirror_vpn = (region.mirror_base >> PAGE_SHIFT) + page
                app_pte = guest.lookup(app_vpn)
                mirror_pte = guest.lookup(mirror_vpn)
                if app_pte is None or mirror_pte is None:
                    continue  # partially mapped region tails are legal
                if app_pte.pfn != mirror_pte.pfn:
                    raise InvariantViolationError(
                        "mirror_alias",
                        f"mirror vpn {mirror_vpn:#x} maps frame "
                        f"{mirror_pte.pfn}, original vpn {app_vpn:#x} "
                        f"maps {app_pte.pfn}",
                        app_vpn=app_vpn, mirror_vpn=mirror_vpn,
                        app_pfn=app_pte.pfn, mirror_pfn=mirror_pte.pfn)

    def check_page_state_monotone(self) -> None:
        """Pages only move UNUSED -> PRIVATE(t) -> SHARED, never back.

        Compares the sharing detector's page-state table against the
        snapshot taken at the previous check: a tracked page must never
        disappear, change private owner, or leave SHARED.
        """
        if self.sd is None:
            return
        current = dict(self.sd.pagestate._table)
        for vpn, old in self._page_snapshot.items():
            new = current.get(vpn)
            if new is None:
                raise InvariantViolationError(
                    "page_state_monotone",
                    f"vpn {vpn:#x} was tracked and is now untracked",
                    vpn=vpn, old=old)
            if old == SHARED_MARK and new != SHARED_MARK:
                raise InvariantViolationError(
                    "page_state_monotone",
                    f"vpn {vpn:#x} left the absorbing SHARED state",
                    vpn=vpn, old=old, new=new)
            if old != SHARED_MARK and new not in (old, SHARED_MARK):
                raise InvariantViolationError(
                    "page_state_monotone",
                    f"vpn {vpn:#x} changed private owner t{old} -> "
                    f"t{new}",
                    vpn=vpn, old=old, new=new)
        self._page_snapshot = current

    def check_tlb_coherence(self) -> None:
        """No TLB entry grants more than the current tables would.

        x86 semantics make stale *restrictive* entries self-healing (the
        access faults, the walk re-derives), so only two conditions are
        violations: a cached translation to the wrong frame, and cached
        permission bits exceeding what the shadow derivation currently
        allows — exactly what a dropped invalidation leaves behind.
        """
        for thread in self._live_threads():
            tid = thread.tid
            ptable = self.hypervisor.protection_tables.get(tid)
            guest = thread.process.page_table
            for vpn, (pfn, flags) in thread.tlb.items():
                gpte = guest.lookup(vpn)
                if gpte is None or not gpte.flags & PTE_PRESENT:
                    if flags & PTE_PRESENT:
                        raise InvariantViolationError(
                            "tlb_coherence",
                            f"t{tid} TLB caches unmapped vpn {vpn:#x} "
                            f"as present",
                            tid=tid, vpn=vpn, flags=flags)
                    continue
                if pfn != gpte.pfn:
                    raise InvariantViolationError(
                        "tlb_coherence",
                        f"t{tid} TLB vpn {vpn:#x} translates to frame "
                        f"{pfn}, tables say {gpte.pfn}",
                        tid=tid, vpn=vpn, tlb_pfn=pfn, guest_pfn=gpte.pfn)
                override = ptable.get(vpn) if ptable is not None else None
                expected = effective_flags(
                    gpte.flags, override,
                    self.hypervisor.is_temp_kernel_unprotected(tid, vpn))
                extra = flags & ~expected & _PERMISSION_BITS
                if extra:
                    raise InvariantViolationError(
                        "tlb_coherence",
                        f"t{tid} TLB vpn {vpn:#x} caches permission "
                        f"bits {flags:#05b} exceeding the derived "
                        f"{expected:#05b} (stale invalidation?)",
                        tid=tid, vpn=vpn, tlb_flags=flags,
                        expected_flags=expected, extra_bits=extra)
            self._check_tlb_fast_maps(thread)

    def _check_tlb_fast_maps(self, thread) -> None:
        """The translation micro-caches mirror the TLB's entry table.

        ``fast_ro``/``fast_rw`` (see :class:`repro.machine.tlb.TLB`) must
        hold exactly the entries whose cached flags permit a user-mode
        read/write, mapped to the entry's frame base — a mismatch means
        an invalidation updated one structure but not the other, which
        would let the compiled tier translate through a mapping the
        interpreter tier would fault on. Under ``stale_tlb`` chaos the
        fast maps stay in lockstep with the (stale) entry table, so this
        check still holds; the permissive staleness itself is what
        :meth:`check_tlb_coherence` reports against the page tables.
        """
        tid = thread.tid
        tlb = thread.tlb
        user_r = PTE_PRESENT | PTE_USER
        user_w = user_r | PTE_WRITABLE
        for name, want in (("fast_ro", user_r), ("fast_rw", user_w)):
            fast = getattr(tlb, name)
            for vpn, base in fast.items():
                entry = tlb._entries.get(vpn)
                if entry is None:
                    raise InvariantViolationError(
                        "tlb_coherence",
                        f"t{tid} {name} caches vpn {vpn:#x} with no "
                        f"backing TLB entry",
                        tid=tid, vpn=vpn, fast_map=name)
                pfn, flags = entry
                if base != pfn << PAGE_SHIFT:
                    raise InvariantViolationError(
                        "tlb_coherence",
                        f"t{tid} {name} vpn {vpn:#x} holds base "
                        f"{base:#x}, TLB entry derives "
                        f"{pfn << PAGE_SHIFT:#x}",
                        tid=tid, vpn=vpn, fast_map=name)
                if flags & want != want:
                    raise InvariantViolationError(
                        "tlb_coherence",
                        f"t{tid} {name} caches vpn {vpn:#x} whose TLB "
                        f"flags {flags:#05b} deny the fast-path access",
                        tid=tid, vpn=vpn, fast_map=name, flags=flags)
        for vpn, (pfn, flags) in tlb.items():
            if flags & user_r == user_r and vpn not in tlb.fast_ro:
                raise InvariantViolationError(
                    "tlb_coherence",
                    f"t{tid} TLB vpn {vpn:#x} permits user reads but is "
                    f"missing from fast_ro",
                    tid=tid, vpn=vpn, flags=flags)
            if flags & user_w == user_w and vpn not in tlb.fast_rw:
                raise InvariantViolationError(
                    "tlb_coherence",
                    f"t{tid} TLB vpn {vpn:#x} permits user writes but is "
                    f"missing from fast_rw",
                    tid=tid, vpn=vpn, flags=flags)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        return {"invariant_checks": self.checks_run,
                "invariant_violations": self.violations}


# ---------------------------------------------------------------------
# Cross-analysis agreement (the replay fan-out invariant)
# ---------------------------------------------------------------------

#: Invariants checked over *replay verdicts* rather than a live stack;
#: :class:`repro.eventlog.replay.ReplayFanout` runs them after every
#: fan-out, and the scengen oracle re-derives them per scenario.
REPLAY_INVARIANTS = ("analysis_agreement",)


def cross_analysis_disagreements(block_sets: Dict[str, set]) -> list:
    """Pairwise consistency over per-analysis *reported block* sets.

    Takes ``{analysis_name: set_of_block_ids}`` (missing analyses are
    skipped) and returns human-readable disagreement strings:

    * ``fasttrack`` and ``djit`` implement the same happens-before
      relation, so they must flag exactly the same blocks;
    * ``memtag``'s tag masks over-approximate ``eraser``'s locksets (tag
      collisions only ever *suppress* reports), so memtag's blocks must
      be a subset of Eraser's.
    """
    disagreements = []
    if "fasttrack" in block_sets and "djit" in block_sets:
        ft, djit = block_sets["fasttrack"], block_sets["djit"]
        for block in sorted(ft - djit):
            disagreements.append(
                f"block {block:#x} flagged by fasttrack but not djit")
        for block in sorted(djit - ft):
            disagreements.append(
                f"block {block:#x} flagged by djit but not fasttrack")
    if "memtag" in block_sets and "eraser" in block_sets:
        extra = block_sets["memtag"] - block_sets["eraser"]
        for block in sorted(extra):
            disagreements.append(
                f"block {block:#x} flagged by memtag but not eraser "
                f"(tag masks can only suppress lockset reports)")
    return disagreements


def check_analysis_agreement(block_sets: Dict[str, set]) -> None:
    """Raise :class:`InvariantViolationError` on any disagreement."""
    disagreements = cross_analysis_disagreements(block_sets)
    if disagreements:
        raise InvariantViolationError(
            "analysis_agreement",
            f"{len(disagreements)} cross-analysis disagreement(s): "
            + "; ".join(disagreements[:5]),
            disagreements=disagreements,
            analyses=sorted(block_sets))
