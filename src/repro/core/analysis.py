"""The shared-data-analysis interface AikidoSD drives.

A *shared data analysis* in the paper's sense is any dynamic analysis that
only needs to observe accesses to shared data (race detection, atomicity
checking, sharing profiling, ...). Under Aikido such an analysis is fed:

* every access an instrumented instruction makes to a shared page,
* every synchronization event,
* page-lifecycle notifications (first touch / became shared) that carry
  the information the §6 ordering workaround needs.

The analysis is responsible for charging its own per-event instrumentation
cycles (clean call + algorithm work) against the run's cycle counter.
"""

from __future__ import annotations


class SharedDataAnalysis:
    """Base class for analyses accelerated by Aikido."""

    name = "analysis"

    def on_shared_access(self, thread, instr, addr: int,
                         is_write: bool) -> None:
        """An instrumented instruction accessed a shared page.

        Called from AikidoSD's quiet hooks (see ``CachedBlock.set_hook``):
        it may charge cycles, but must not read the cycle counter, the
        engine stats or pc, which the compiled tiers book only at the
        next exit.
        """

    def on_sync_event(self, event) -> None:
        """A kernel synchronization event occurred."""

    def on_page_first_touch(self, vpn: int, thread) -> None:
        """Page became PRIVATE(thread). Only called when the §6
        first-access ordering workaround is enabled."""

    def on_page_shared(self, vpn: int, thread) -> None:
        """Page became SHARED; ``thread`` is the second toucher. Only
        called when the §6 first-access ordering workaround is enabled."""

    def on_run_end(self) -> None:
        """The workload finished; flush any buffered reports."""
