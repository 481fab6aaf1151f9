"""Mirror pages: unprotected aliases of the application's memory (§3.3.3).

AikidoSD cannot unprotect a shared page (it must keep discovering new
instructions that touch it), so rewritten instructions access the data
through *mirror pages*: a second virtual mapping of the same physical
memory that carries no Aikido protection.

The real system builds mirrors by creating a backing file per memory
segment, copying the segment into it and mmapping the file twice
(``MAP_SHARED``) — once over the original range, once into the mirror
range — and intercepts ``mmap``/``brk`` to keep new allocations mirrored.
Here the file dance is modeled by :class:`BackingFile` records plus a
direct page-table alias (``map_alias_at``), which yields exactly the same
observable property: *both mappings resolve to the same frames*. brk
interception falls out of the VM's post-map hook, since our kernel already
implements heap growth as region mappings (the paper had to emulate brk
with mmapped files for the same reason).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ToolError
from repro.machine.paging import PAGE_SHIFT
from repro.umbra.shadow import ShadowMemory


class BackingFile:
    """Models the shared backing file created for one mirrored segment."""

    __slots__ = ("file_id", "segment_name", "size", "mappings")

    def __init__(self, file_id: int, segment_name: str, size: int):
        self.file_id = file_id
        self.segment_name = segment_name
        self.size = size
        #: Virtual base addresses this file is mapped at (original, mirror).
        self.mappings: List[int] = []


class MirrorManager:
    """Creates and tracks mirror mappings for every application region."""

    def __init__(self, vm, shadow: ShadowMemory, *, enabled: bool = True):
        self.vm = vm
        self.shadow = shadow
        #: When disabled (ablation), regions are still registered with the
        #: shadow framework but no alias mappings are created.
        self.enabled = enabled
        self.backing_files: Dict[int, BackingFile] = {}
        self._next_file_id = 1
        self._attached = False
        #: page -> mirror address minus application address, for pages
        #: :meth:`mirror_address` has translated before. Hot callers may
        #: read it and call :meth:`mirror_address` only on a miss.
        self.page_delta: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Mirror all existing regions and intercept future mmap/brk."""
        if self._attached:
            raise ToolError("MirrorManager attached twice")
        self._attached = True
        for region in list(self.vm.user_regions()):
            self._mirror_region(region)
        self.vm.post_map_hooks.append(self._on_new_region)

    def mirror_address(self, addr: int) -> int:
        """Translate an application address to its mirror alias.

        The mirror offset is memoized per page for pages that lie wholly
        inside one region: shadow regions are never removed and each
        gets its mirror when registered here, so a page's offset never
        changes. Uncosted host bookkeeping, like ``region_for``.
        """
        page = addr >> PAGE_SHIFT
        delta = self.page_delta.get(page)
        if delta is not None:
            return addr + delta
        region = self.shadow.region_for(addr)
        if region is None:
            raise ToolError(f"address {addr:#x} is not in a mirrored region")
        mirrored = region.mirror_address(addr)
        if (region.app_start <= page << PAGE_SHIFT
                and (page + 1) << PAGE_SHIFT <= region.app_end):
            self.page_delta[page] = mirrored - addr
        return mirrored

    # ------------------------------------------------------------------
    def _on_new_region(self, region) -> None:
        if region.kind in ("static", "heap", "mmap"):
            self._mirror_region(region)

    def _mirror_region(self, region) -> None:
        backing = BackingFile(self._next_file_id, region.name, region.length)
        self._next_file_id += 1
        backing.mappings.append(region.start)
        mirror_base = None
        if self.enabled:
            mirror_base = self.vm.alloc_mirror_range(region.length)
            self.vm.map_alias_at(mirror_base, region.start, region.length,
                                 name=f"mirror:{region.name}")
            backing.mappings.append(mirror_base)
        self.backing_files[backing.file_id] = backing
        self.shadow.add_region(region.start, region.length, mirror_base)
