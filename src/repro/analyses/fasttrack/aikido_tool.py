"""Aikido-FastTrack: the accelerated race detector of paper §4.2.

Under Aikido, FastTrack "only instruments instructions that access shared
data and only maintains the epoch metadata for shared data": AikidoSD
feeds this adapter just the shared-page accesses, so private data costs
nothing and its metadata is never allocated. Access and sync dispatch
are :class:`~repro.analyses.generic_tool.GenericAnalysis`'s.

When the §6 first-access ordering workaround is enabled
(:attr:`repro.core.config.AikidoConfig.order_first_accesses`), the page
lifecycle callbacks add a happens-before edge from a page's private phase
to its sharing access, closing the first-two-access false-negative window
(the deterministic substrate is assumed to make that ordering stable).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.fasttrack.vectorclock import VectorClock
from repro.analyses.generic_tool import GenericAnalysis


class AikidoFastTrack(GenericAnalysis):
    """FastTrack as a shared-data analysis driven by AikidoSD."""

    name = "aikido-fasttrack"

    def __init__(self, kernel, detector: Optional[FastTrackDetector] = None,
                 block_size: int = 8):
        super().__init__(detector if detector is not None
                         else FastTrackDetector(kernel.counter, block_size))
        #: vpn -> owner's clock snapshot, kept while the §6 ordering
        #: workaround is active.
        self._page_clocks: Dict[int, VectorClock] = {}

    # perfbench/layers.py times the analysis layer on this class's own
    # attributes, so the inherited dispatch is bound here by name.
    on_shared_access = GenericAnalysis.on_shared_access
    on_sync_event = GenericAnalysis.on_sync_event

    # ------------------------------------------------------------------
    # §6 ordering workaround
    # ------------------------------------------------------------------
    def on_page_first_touch(self, vpn: int, thread) -> None:
        owner = self.detector.meta.thread(thread.tid)
        self._page_clocks[vpn] = owner.vc.copy()
        owner.increment()

    def on_page_shared(self, vpn: int, thread) -> None:
        snapshot = self._page_clocks.pop(vpn, None)
        if snapshot is None:
            return
        sharer = self.detector.meta.thread(thread.tid)
        sharer.vc.join(snapshot)
        sharer.refresh_epoch()

    # ------------------------------------------------------------------
    @property
    def races(self):
        return self.detector.races
