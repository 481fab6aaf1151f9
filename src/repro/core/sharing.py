"""AikidoSD: the sharing detector (paper §3.3).

AikidoSD page-protects the whole application, classifies the resulting
faults through the page state machine, and upgrades instructions to
instrumented as they are discovered touching shared pages:

* **UNUSED page** faults make it PRIVATE to the faulting thread and
  unprotect it *for that thread only* — all of that thread's later
  accesses run at native speed (the design's key goal, §3.3.2);
* a second thread's fault makes the page **SHARED** and globally
  protected; the faulting instruction is instrumented via re-JIT;
* faults on SHARED pages instrument each newly discovered instruction.

Instrumented instructions execute the paper's Fig. 4 sequence: direct
instructions have their effective address patched to the mirror page and
call the analysis unconditionally; indirect instructions get a runtime
shared/private check, redirect shared accesses through the mirror, and
fall through to the original access (native speed, may fault) for private
ones.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro import costs
from repro.core.aikidolib import AikidoLib
from repro.core.analysis import SharedDataAnalysis
from repro.core.config import AikidoConfig
from repro.core.mirror import MirrorManager
from repro.core.pagestate import SHARED_MARK, PageState, PageStateTable
from repro.core.stats import AikidoStats
from repro.dbr.codecache import CachedBlock
from repro.dbr.tool import Tool
from repro.errors import ToolError
from repro.events import ForkEvent
from repro.guestos.signals import HandlerResult
from repro.hypervisor.hypercalls import ALL_THREADS, PROT_CLEAR
from repro.machine.paging import PAGE_SHIFT, PROT_NONE
from repro.staticanalysis.analysiscache import analysis_for
from repro.umbra.shadow import ShadowMemory

_MASK64 = 0xFFFFFFFFFFFFFFFF


class SharingDetector(Tool):
    """The AikidoSD tool: sharing detection + instrumentation management."""

    name = "aikido-sd"

    def __init__(self, kernel, hypervisor, analysis: SharedDataAnalysis,
                 config: Optional[AikidoConfig] = None, process=None):
        super().__init__()
        self.kernel = kernel
        self.hypervisor = hypervisor
        self.analysis = analysis
        self.config = config if config is not None else AikidoConfig()
        self.counter = kernel.counter
        #: The Aikido-enabled target process (defaults to the kernel's
        #: primary process; pass explicitly to instrument another one —
        #: several detectors may coexist, one per process).
        self.process = process if process is not None else kernel.process
        self.pagestate = PageStateTable()
        self.stats = AikidoStats()
        self.shadow = ShadowMemory(kernel.counter,
                                   block_size=self.config.block_size)
        self.mirror = MirrorManager(self.process.vm, self.shadow,
                                    enabled=self.config.mirror_pages)
        self.lib = AikidoLib(kernel, hypervisor, process=self.process)
        self.instrumented: Set[int] = set()
        #: --static-elide state: the elision plan handed to the engine
        #: (None when off); see :mod:`repro.staticanalysis.elision`.
        self.elision_plan = None
        #: (cycle-at-fault, vpn, classification) per handled fault —
        #: the raw material for fault-timeline analyses (churny
        #: benchmarks sustain faults for the whole run; static-footprint
        #: ones front-load them).
        self.fault_log: list = []
        self._installed = False
        #: The Fig. 4 hook every instrumented indirect instruction
        #: shares; built at install (see :meth:`_make_indirect_hook`).
        self._fig4_hook: Optional[Callable] = None
        #: Observability tracer, attached by AikidoSystem before install
        #: (None = off).
        self.tracer = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, engine) -> None:
        """Wire the SD into the engine, hypervisor and address space."""
        if self._installed:
            raise ToolError("SharingDetector installed twice")
        self._installed = True
        self._fig4_hook = self._make_indirect_hook()
        self.lib.initialize()
        self.mirror.attach()
        engine.attach_tool(self)
        engine.register_master_signal_handler()
        engine.fault_router = self._route_fault
        engine.overhead_per_instr = costs.AIKIDO_RESIDENCY_PER_INSTR
        if self.config.static_elide:
            # Compile-time shared-check elision: hand the static plan to
            # the block compiler. Installed at the same point the
            # residency overhead changes, so any closure compiled before
            # install is already stale and recompiles against the plan.
            if not engine.compile_blocks:
                raise ToolError(
                    "static_elide requires the block-compiled tier "
                    "(compile_blocks=True)")
            self.elision_plan = analysis_for(self.process.program).elision
            engine.set_elision_plan(self.elision_plan)
        # Protect everything currently mapped, for every current thread.
        main = self.process.threads[min(self.process.threads)]
        for region in self.process.vm.user_regions():
            self.lib.protect_range(main, ALL_THREADS, region.start,
                                   region.length, PROT_NONE)
        # Future mappings are protected as they appear (mmap/brk
        # interception). The mirror manager's hook ran first (attach
        # order), so the region is mirrored before it is protected.
        self.process.vm.post_map_hooks.append(self._on_new_region)

    # ------------------------------------------------------------------
    # Tool interface
    # ------------------------------------------------------------------
    def instrument_block(self, cached: CachedBlock) -> None:
        """Patch/hook the instrumented instructions of a rebuilt block."""
        if not self.instrumented:
            return
        for pos, instr in enumerate(cached.instrs):
            if instr.uid not in self.instrumented:
                continue
            if instr.mem is None:
                continue
            if instr.mem.base is None:
                self._patch_direct(cached, pos, instr)
            else:
                self.stats.indirect_hooks += 1
                cached.set_hook(pos, self._fig4_hook)

    def on_sync_event(self, event) -> None:
        # Kernel sync events are global; Aikido instruments exactly one
        # process, so events from other processes are invisible to it
        # (DynamoRIO only wraps the target's threads).
        if not self._event_in_process(event):
            return
        if (event.__class__ is ForkEvent
                and self.config.protect_new_threads):
            self._protect_all_for_thread(event.child_tid)
        self.analysis.on_sync_event(event)

    def _event_in_process(self, event) -> bool:
        threads = self.process.threads
        tid = getattr(event, "tid", None)
        if tid is not None:
            return tid in threads
        parent = getattr(event, "parent_tid", None)
        if parent is not None:
            return parent in threads
        tids = getattr(event, "tids", None)
        if tids is not None:
            return all(t in threads for t in tids)
        return True

    def on_run_end(self) -> None:
        self.analysis.on_run_end()

    # ------------------------------------------------------------------
    # fault routing (called from the DynamoRIO master signal handler)
    # ------------------------------------------------------------------
    def _route_fault(self, thread, info) -> Optional[HandlerResult]:
        if not self.lib.is_aikido_pagefault(info):
            return None
        true_addr, is_write = self.lib.true_fault()
        self._handle_sharing_fault(thread, true_addr, is_write)
        return HandlerResult.RESUME

    def _handle_sharing_fault(self, thread, addr: int,
                              is_write: bool) -> None:
        if self.tracer is None:
            return self._handle_sharing_fault_inner(thread, addr,
                                                    is_write)
        with self.tracer.span("sharing_fault", "aikido_sd",
                              tid=thread.tid, addr=addr,
                              write=is_write):
            return self._handle_sharing_fault_inner(thread, addr,
                                                    is_write)

    def _handle_sharing_fault_inner(self, thread, addr: int,
                                    is_write: bool) -> None:
        self.stats.faults_handled += 1
        self.counter.charge("aikido_sd", costs.SD_FAULT_HANDLER)
        vpn = addr >> PAGE_SHIFT
        state, owner = self.pagestate.state(vpn)
        self.fault_log.append((self.counter.total, vpn,
                               state.value))
        if state is PageState.UNUSED and not self.config.per_thread_protection:
            # Ablation: process-wide protection cannot attribute the
            # fault to a thread, so "touched" must mean "shared".
            self.pagestate.make_shared_direct(vpn)
            self.stats.shared_transitions += 1
            self._note_page_shared(vpn)
            if self.config.mirror_pages:
                self.lib.set_page_protection(thread, ALL_THREADS, vpn, 1,
                                             PROT_NONE)
            else:
                self.lib.set_page_protection(thread, ALL_THREADS, vpn, 1,
                                             PROT_CLEAR)
            self._instrument_instruction(self._faulting_instruction(thread))
            return
        if state is PageState.UNUSED:
            # First scenario of Fig. 3: page becomes ours alone.
            self.pagestate.make_private(vpn, thread.tid)
            self.stats.private_transitions += 1
            self.lib.set_page_protection(thread, thread.tid, vpn, 1,
                                         PROT_CLEAR)
            if self.config.order_first_accesses:
                self.analysis.on_page_first_touch(vpn, thread)
            return
        if state is PageState.PRIVATE and owner == thread.tid:
            # Can happen after a temporary-unprotection restore re-applied
            # a stale PROT_NONE for the owner: simply unprotect again.
            self.stats.redundant_faults += 1
            self.lib.set_page_protection(thread, thread.tid, vpn, 1,
                                         PROT_CLEAR)
            return
        if state is PageState.PRIVATE:
            # Third scenario of Fig. 3: second thread -> page is shared.
            self.pagestate.make_shared(vpn)
            self.stats.shared_transitions += 1
            self._note_page_shared(vpn)
            if self.config.mirror_pages:
                # Globally protect so every new instruction is discovered.
                self.lib.set_page_protection(thread, ALL_THREADS, vpn, 1,
                                             PROT_NONE)
            else:
                # Ablation: give up on discovering further instructions.
                self.lib.set_page_protection(thread, ALL_THREADS, vpn, 1,
                                             PROT_CLEAR)
            if self.config.order_first_accesses:
                self.analysis.on_page_shared(vpn, thread)
            self._instrument_instruction(self._faulting_instruction(thread))
            return
        # SHARED: a new instruction touched a known-shared page.
        if not self.config.mirror_pages:
            # Ablation mode has no mirror to redirect through; the page
            # must be opened up for this thread (e.g. one spawned after
            # the page was shared) or it would fault forever.
            self.lib.set_page_protection(thread, thread.tid, vpn, 1,
                                         PROT_CLEAR)
        self._instrument_instruction(self._faulting_instruction(thread))

    def _note_page_shared(self, vpn: int) -> None:
        """Elision tripwire: retire elided uids whose footprint covers
        the page that just turned SHARED (dropping their compiled
        closures, host-side only), and escalate private-tier hits: with
        per-thread protection a PROVABLY_PRIVATE access's page becoming
        shared means the classifier was wrong. (The process-wide
        ablation shares pages without evidence of a second thread, so
        it only retires there.)
        """
        if self.elision_plan is None:
            return
        retired = self.engine.note_page_shared(vpn)
        if not retired or not self.config.per_thread_protection:
            return
        bad = sorted(uid for uid, tier in retired if tier == "private")
        if bad:
            raise ToolError(
                f"static elision unsound: page {vpn:#x} became SHARED "
                f"inside the footprint of provably-private elided "
                f"instruction(s) {bad}")

    # ------------------------------------------------------------------
    # instrumentation management
    # ------------------------------------------------------------------
    def _faulting_instruction(self, thread):
        block = thread.program.blocks[thread.pc[0]]
        instr = block.instructions[thread.pc[1]]
        if instr.mem is None:
            raise ToolError(
                f"Aikido fault at a non-memory instruction: {instr!r}")
        return instr

    def _instrument_instruction(self, instr) -> None:
        if instr.uid in self.instrumented:
            return
        if (self.elision_plan is not None
                and self.config.per_thread_protection
                and self.elision_plan.tier(instr.uid) == "private"):
            # Soundness tripwire: with real per-thread protection a
            # PROVABLY_PRIVATE instruction can never be discovered
            # touching a shared page. (The process-wide-protection
            # ablation marks pages shared without any second thread, so
            # the invariant intentionally does not hold there.)
            raise ToolError(
                f"static elision unsound: provably-private elided "
                f"instruction uid {instr.uid} ({instr!r}) discovered "
                f"touching a shared page")
        self.instrumented.add(instr.uid)
        self.stats.instructions_instrumented += 1
        if self.tracer is not None:
            self.tracer.instant("instrument", "aikido_sd", uid=instr.uid)
        flushed = self.engine.invalidate_instruction(instr.uid)
        self.stats.rejit_flushes += flushed

    def _patch_direct(self, cached: CachedBlock, pos: int, instr) -> None:
        """Rewrite a direct instruction's address and hook the analysis.

        The patched copy accesses the mirror page with zero runtime
        translation cost; the hook reports the access against the
        *original* application address.
        """
        app_addr = instr.mem.disp
        self.stats.direct_patches += 1
        if self.config.mirror_pages:
            instr.mem.disp = self.mirror.mirror_address(app_addr)
        analysis = self.analysis
        stats = self.stats
        counter = self.counter
        tracer = self.tracer
        mirror_cost = (costs.MIRROR_ACCESS_PENALTY
                       if self.config.mirror_pages else 0)

        def direct_hook(thread, _instr, _ea, *, _addr=app_addr):
            if mirror_cost:
                counter.charge("aikido_inline", mirror_cost)
            stats.shared_accesses += 1
            if tracer is not None:
                tracer.instant("shared_access", "tool", tid=thread.tid,
                               addr=_addr, write=_instr.is_write)
            analysis.on_shared_access(thread, _instr, _addr,
                                      _instr.is_write)
            return None  # the patched operand already targets the mirror

        cached.set_hook(pos, direct_hook)

    def _make_indirect_hook(self) -> Callable:
        """Build the Fig. 4 runtime sequence for register-indirect
        instructions, binding everything it touches once (at install).

        Per Fig. 4, the app->shadow translation happens *before* the
        shared/private branch (the page-status word lives in shadow
        memory), so every execution of an instrumented indirect
        instruction pays it — including private fast-path executions.
        """
        shadow_translate = self.shadow.translate
        charge = self.counter.charge
        page_state = self.pagestate._table.get
        stats = self.stats
        tracer = self.tracer
        on_shared_access = self.analysis.on_shared_access
        mirror_pages = self.config.mirror_pages
        mirror_address = self.mirror.mirror_address
        check_cost = costs.SHARED_STATUS_CHECK
        redirect_cost = costs.MIRROR_REDIRECT + costs.MIRROR_ACCESS_PENALTY

        def indirect_hook(thread, instr, ea: int) -> Optional[int]:
            shadow_translate(thread.tid, ea)
            charge("aikido_inline", check_cost)
            if page_state(ea >> PAGE_SHIFT) != SHARED_MARK:
                # Private (or not-yet-tracked) page: run the original
                # access. It executes at native speed, or faults into
                # the SD if this thread has not touched the page before.
                stats.private_fastpath += 1
                return None
            stats.shared_accesses += 1
            if tracer is not None:
                tracer.instant("shared_access", "tool", tid=thread.tid,
                               addr=ea, write=instr.is_write)
            on_shared_access(thread, instr, ea, instr.is_write)
            if not mirror_pages:
                return None
            charge("aikido_inline", redirect_cost)
            return mirror_address(ea)

        return indirect_hook

    # ------------------------------------------------------------------
    # protection plumbing
    # ------------------------------------------------------------------
    def _on_new_region(self, region) -> None:
        if region.kind not in ("static", "heap", "mmap"):
            return
        thread = self._any_live_thread()
        self.lib.protect_range(thread, ALL_THREADS, region.start,
                               region.length, PROT_NONE)

    def _protect_all_for_thread(self, tid: int) -> None:
        thread = self.process.threads[tid]
        for region in self.process.vm.user_regions():
            self.lib.protect_range(thread, tid, region.start,
                                   region.length, PROT_NONE)

    def _any_live_thread(self):
        for thread in self.process.threads.values():
            if not thread.exited:
                return thread
        raise ToolError("no live thread")

    # ------------------------------------------------------------------
    # self-checks (used by tests; cheap enough to call after any run)
    # ------------------------------------------------------------------
    def verify_invariants(self) -> None:
        """Assert the protection state matches the page-state machine.

        * every SHARED page is globally inaccessible (mirror mode);
        * every PRIVATE page is unrestricted for its owner and
          inaccessible to every other live thread;
        * every instrumented uid names a memory instruction.

        Raises :class:`~repro.errors.ToolError` on any violation —
        silent divergence here is exactly the class of bug that would
        make the analysis quietly unsound.
        """
        from repro.core.pagestate import PageState

        live_tids = [t.tid for t in self.process.threads.values()
                     if not t.exited]
        for vpn in list(self.pagestate._table):
            state, owner = self.pagestate.state(vpn)
            for tid in live_tids:
                ptable = self.hypervisor.protection_tables.get(tid)
                if ptable is None:
                    continue
                restricted = ptable.restricts(vpn, is_write=False) or \
                    ptable.restricts(vpn, is_write=True)
                if state is PageState.SHARED and self.config.mirror_pages:
                    if not ptable.restricts(vpn, is_write=False):
                        raise ToolError(
                            f"shared page {vpn:#x} accessible to t{tid}")
                elif state is PageState.PRIVATE and tid != owner:
                    # (The owner may transiently carry a stale
                    # restriction after a §3.2.6 restore; it self-heals
                    # on its next access, so it is not checked here.)
                    if not restricted:
                        raise ToolError(
                            f"private page {vpn:#x} open to non-owner "
                            f"t{tid}")
        program = self.process.program
        for uid in self.instrumented:
            if not program.instruction_at(uid).is_memory_op:
                raise ToolError(
                    f"instrumented uid {uid} is not a memory instruction")
