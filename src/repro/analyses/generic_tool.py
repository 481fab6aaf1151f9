"""Run *any* detector under full instrumentation or under Aikido.

The paper's framework claim is that AikidoSD accelerates the whole class
of shared-data analyses. The detector protocol is the one way an
analysis plugs in: ``on_access(tid, addr, is_write, instr_uid)`` plus
optional ``on_acquire/on_release/on_fork/on_join/on_barrier`` handlers
(FastTrack, DJIT+, Eraser, AVIO, memtag and the trace recorder all
qualify). Three adapters feed it:

* :class:`FullInstrumentationTool` — a DBR tool that instruments every
  memory access (the conservative baseline for that detector);
* :class:`GenericAnalysis` — a :class:`SharedDataAnalysis` feeding the
  detector only shared-page accesses under Aikido;
* :func:`repro.analyses.record.replay` — a recorded trace.

All three map synchronization to handlers through
:data:`repro.analyses.record.SYNC_HANDLERS`, so a detector's results
differ between the modes only by the access subset — which is exactly
the property the equivalence tests check.
"""

from __future__ import annotations

from repro.analyses.record import dispatch_sync
from repro.core.analysis import SharedDataAnalysis
from repro.dbr.codecache import CachedBlock
from repro.dbr.tool import Tool
from repro.umbra.shadow import ShadowMemory


class FullInstrumentationTool(Tool):
    """Instrument every memory access and feed the wrapped detector.

    Each access pays a shadow-memory translation (Umbra at
    ``block_size`` granularity) plus the detector's clean call, and
    counts as one tool invocation in the engine stats.
    """

    name = "full-generic"

    def __init__(self, kernel, detector, block_size: int = 8):
        super().__init__()
        self.kernel = kernel
        self.detector = detector
        self.shadow = ShadowMemory(kernel.counter, block_size)
        vm = kernel.process.vm
        for region in vm.user_regions():
            self.shadow.add_region(region.start, region.length)
        vm.post_map_hooks.append(self._on_new_region)

    def instrument_block(self, cached: CachedBlock) -> None:
        hook = self._access_hook
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None:
                cached.set_hook(pos, hook)

    def on_sync_event(self, event) -> None:
        dispatch_sync(self.detector, event)

    def _access_hook(self, thread, instr, ea):
        self.shadow.translate(thread.tid, ea)
        self.engine.stats.tool_invocations += 1
        self.detector.on_access(thread.tid, ea, instr.is_write, instr.uid)
        return None

    def _on_new_region(self, region) -> None:
        if region.kind in ("static", "heap", "mmap"):
            self.shadow.add_region(region.start, region.length)


class GenericAnalysis(SharedDataAnalysis):
    """Feed the wrapped detector shared-page accesses only (Aikido mode)."""

    name = "aikido-generic"

    def __init__(self, detector):
        self.detector = detector

    def on_shared_access(self, thread, instr, addr: int,
                         is_write: bool) -> None:
        self.detector.on_access(thread.tid, addr, is_write, instr.uid)

    def on_sync_event(self, event) -> None:
        dispatch_sync(self.detector, event)
