"""The sharing detector's page state machine (paper §3.3.2, Fig. 3).

Each page moves monotonically through::

    UNUSED --first access by t--> PRIVATE(t) --access by u != t--> SHARED

SHARED is absorbing: the page stays globally protected forever so every
new instruction touching it is discovered.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.errors import ToolError


class PageState(enum.Enum):
    UNUSED = "unused"
    PRIVATE = "private"
    SHARED = "shared"


#: Encoded shared marker in the internal table (tids are positive).
SHARED_MARK = -1


class PageStateTable:
    """vpn -> sharing state, with transition counters.

    ``_table`` maps a tracked vpn to its owner tid (PRIVATE) or to
    :data:`SHARED_MARK`; an untracked vpn is UNUSED.
    """

    def __init__(self):
        self._table: Dict[int, int] = {}
        self.private_transitions = 0
        self.shared_transitions = 0

    def state(self, vpn: int) -> Tuple[PageState, Optional[int]]:
        """Return (state, owner-tid-or-None)."""
        value = self._table.get(vpn)
        if value is None:
            return PageState.UNUSED, None
        if value == SHARED_MARK:
            return PageState.SHARED, None
        return PageState.PRIVATE, value

    def is_shared(self, vpn: int) -> bool:
        """Is ``vpn`` SHARED? (The SD's Fig. 4 hook inlines this test.)"""
        return self._table.get(vpn) == SHARED_MARK

    def make_private(self, vpn: int, tid: int) -> None:
        current = self._table.get(vpn)
        if current is not None:
            raise ToolError(
                f"page {vpn:#x} already tracked (state {current})")
        self._table[vpn] = tid
        self.private_transitions += 1

    def make_shared(self, vpn: int) -> int:
        """Transition PRIVATE -> SHARED; returns the previous owner tid."""
        current = self._table.get(vpn)
        if current is None or current == SHARED_MARK:
            raise ToolError(
                f"page {vpn:#x} cannot become shared from state {current}")
        self._table[vpn] = SHARED_MARK
        self.shared_transitions += 1
        return current

    def make_shared_direct(self, vpn: int) -> None:
        """UNUSED -> SHARED in one step.

        Only used by the per-process-protection ablation, where the
        faulting thread's identity is unknowable and every touched page
        must conservatively be treated as shared.
        """
        current = self._table.get(vpn)
        if current is not None:
            raise ToolError(
                f"page {vpn:#x} already tracked (state {current})")
        self._table[vpn] = SHARED_MARK
        self.shared_transitions += 1

    @property
    def private_pages(self) -> int:
        return sum(1 for v in self._table.values() if v != SHARED_MARK)

    @property
    def shared_pages(self) -> int:
        return sum(1 for v in self._table.values() if v == SHARED_MARK)

    def __len__(self) -> int:
        return len(self._table)
