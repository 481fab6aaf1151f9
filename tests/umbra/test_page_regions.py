"""Umbra's page→region map must charge exactly what the per-thread page
memo it replaced charged.

:class:`MemoShadow` keeps the previous ``ShadowMemory.translate``
verbatim, with its one-entry ``(page, region)`` memo per thread, as the
reference model. Hypothesis drives both through the same sequences of
``(tid, addr)`` translations, with regions added mid-sequence, adjacent
regions whose shared boundary splits a page, and addresses outside every
region: the returned region (or the error), the ``umbra`` cycles and the
three hit counters must agree after every step.
"""

from __future__ import annotations

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import costs
from repro.errors import ToolError
from repro.machine.cpu import CycleCounter
from repro.umbra.shadow import ShadowMemory, ShadowRegion

BASE = 0x40000
#: Candidate region boundaries span 12 pages above ``BASE``.
SPAN = 12 * 4096
#: One boundary always sits mid-page, so two adjacent regions split it.
STRADDLE = BASE + 5 * 4096 + 2048


class MemoShadow(ShadowMemory):
    """The reference model: ``translate`` as it was with a page memo."""

    def __init__(self, counter=None, block_size: int = 8):
        super().__init__(counter, block_size)
        self._page_memo: Dict[int, tuple] = {}

    def translate(self, tid: int, addr: int) -> ShadowRegion:
        """App address -> region, charging the appropriate cache level."""
        page = addr >> 12
        memo = self._page_memo.get(tid)
        if memo is not None and memo[0] == page:
            self.inline_hits += 1
            self._cell[0] += costs.UMBRA_TRANSLATE_INLINE
            return memo[1]
        region = self._inline_cache.get(tid)
        if region is not None and region.contains(addr):
            self.inline_hits += 1
            self._cell[0] += costs.UMBRA_TRANSLATE_INLINE
            self._refresh_page_memo(tid, page, region)
            return region
        region = self.region_for(addr)
        if region is None:
            raise ToolError(f"no shadow region covers {addr:#x}")
        warm = self._warm.setdefault(tid, set())
        key = id(region)
        if key in warm:
            self.lean_hits += 1
            self._cell[0] += costs.UMBRA_TRANSLATE_LEAN
        else:
            warm.add(key)
            self.full_lookups += 1
            self._cell[0] += costs.UMBRA_TRANSLATE_FULL
            if self.tracer is not None:
                self.tracer.instant("umbra_full_lookup", "umbra", tid=tid,
                                    app_start=region.app_start)
        self._inline_cache[tid] = region
        self._refresh_page_memo(tid, page, region)
        return region

    def _refresh_page_memo(self, tid: int, page: int, region: ShadowRegion):
        if (region.app_start <= (page << 12)
                and ((page + 1) << 12) <= region.app_end):
            self._page_memo[tid] = (page, region)
        else:
            # Page straddles a region boundary: a page match would not
            # prove containment, so drop the memo entirely.
            self._page_memo.pop(tid, None)


def _observe(shadow, counter, tid, addr):
    try:
        region = shadow.translate(tid, addr)
        got = (region.app_start, region.length)
    except ToolError as exc:
        got = str(exc)
    return (got, counter.snapshot().get("umbra", 0), shadow.inline_hits,
            shadow.lean_hits, shadow.full_lookups)


@st.composite
def scripts(draw):
    """``(regions, steps)``: candidate regions between sorted boundaries
    (adjacent ones share a boundary), and steps that add a region or
    translate an address anywhere in the span."""
    cuts = draw(st.sets(st.integers(1, SPAN // 8 - 1), min_size=2,
                        max_size=8))
    bounds = sorted({BASE, BASE + SPAN, STRADDLE}
                    | {BASE + 8 * c for c in cuts})
    regions = list(zip(bounds, bounds[1:]))
    straddle = bounds.index(STRADDLE)
    step = st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(regions) - 1)),
        st.tuples(st.just("translate"), st.integers(1, 3),
                  st.integers(BASE - 4096, BASE + SPAN + 4096)),
        # Addresses on either side of the split page's boundary.
        st.tuples(st.just("translate"), st.integers(1, 3),
                  st.integers(STRADDLE - 2048, STRADDLE + 2047)))
    steps = [("add", straddle - 1), ("add", straddle)]
    steps = draw(st.permutations(steps + draw(st.lists(step, max_size=60))))
    return regions, steps


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_page_map_charges_like_the_page_memo(script):
    regions, steps = script
    shadows = [(cls(counter), counter)
               for cls, counter in ((ShadowMemory, CycleCounter()),
                                    (MemoShadow, CycleCounter()))]
    added = set()
    for step in steps:
        if step[0] == "add":
            if step[1] in added:
                continue
            added.add(step[1])
            start, end = regions[step[1]]
            for shadow, _ in shadows:
                shadow.add_region(start, end - start)
            continue
        _, tid, addr = step
        new, old = (_observe(shadow, counter, tid, addr)
                    for shadow, counter in shadows)
        assert new == old

