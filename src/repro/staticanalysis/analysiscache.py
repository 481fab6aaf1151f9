"""One static-analysis pass per program, shared by every consumer.

The linter, the static race analyzer, the elision report and the fuzz
oracle's soundness checks all start from the same expensive artifacts: the CFG
and the context discovery + footprint pass. Before this module each
consumer rebuilt them from scratch — up to four CFG constructions per
harness job. :func:`analysis_for` memoizes a :class:`ProgramAnalysis`
per *program fingerprint* (a content hash, so two structurally identical
builds of the same workload share an entry even across distinct
``Program`` objects), and each artifact inside it is computed lazily at
most once.

Calls per fuzz scenario: the oracle renders the scenario once and makes
two lookups on that program — ``lint_program`` (which computes the
``lint`` artifact) and the soundness checks after the record run
(``sharing`` and ``races``, built on one CFG and one context
discovery). The Aikido tier runs make no lookup.

The cache is bounded (:data:`MAX_ENTRIES`, FIFO eviction) and safe under
the harness's process-pool parallelism: each worker process has its own
cache, and every artifact is a pure function of the finalized program.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import List, Optional, TYPE_CHECKING

from repro.machine.program import Program
from repro.staticanalysis.cfg import CFG
from repro.staticanalysis.lockset import (
    LocksetResult,
    compute_locksets,
    lock_touching_entries,
)
from repro.staticanalysis.sharing import (
    Context,
    SharingReport,
    _compute_footprints,
    classify_sharing,
    discover_contexts,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.staticanalysis.elision import ElisionPlan
    from repro.staticanalysis.lint import Finding
    from repro.staticanalysis.races import StaticRaceReport

#: Cached programs per process; eviction is FIFO (oldest insert first).
MAX_ENTRIES = 32

_MISSING = object()


def program_fingerprint(program: Program) -> str:
    """Content hash identifying a finalized program's analysis inputs.

    Covers everything the static analyses read: the instruction stream
    (via ``repr``, which round-trips through the disassembler), block
    labels and order, and every data segment's name/size/writability and
    initial words. Deliberately excludes object identity, so rebuilding
    the same workload in another process hits the same corpus entry.
    """
    h = hashlib.sha256()
    h.update(program.name.encode())
    for block in program.blocks:
        h.update(b"\x00B")
        h.update(block.label.encode())
        for instr in block.instructions:
            h.update(b"\x00I")
            h.update(repr(instr).encode())
    for seg in program.segments:
        h.update(b"\x00S")
        h.update(f"{seg.name}|{seg.size}|{int(seg.writable)}".encode())
        for off in sorted(seg.initial):
            h.update(f"|{off}:{seg.initial[off]}".encode())
    return h.hexdigest()


class ProgramAnalysis:
    """Lazily-computed static-analysis artifacts for one program."""

    def __init__(self, program: Program, fingerprint: str):
        self.program = program
        self.fingerprint = fingerprint
        self._cfg: Optional[CFG] = None
        self._contexts: Optional[List[Context]] = None
        self._discovery_reason: Optional[str] = None
        self._sharing: Optional[SharingReport] = None
        self._locksets: Optional[List[LocksetResult]] = None
        self._races = _MISSING
        self._elision = _MISSING
        self._lint = _MISSING

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = CFG(self.program)
        return self._cfg

    def _discover(self) -> None:
        if self._contexts is None:
            contexts, reason = discover_contexts(self.cfg)
            if not reason:
                for ctx in contexts:
                    _compute_footprints(self.cfg, ctx)
            self._contexts = contexts
            self._discovery_reason = reason

    @property
    def contexts(self) -> List[Context]:
        """Discovered thread contexts, footprints already computed."""
        self._discover()
        return self._contexts

    @property
    def discovery_reason(self) -> str:
        """Nonempty when context discovery bailed out."""
        self._discover()
        return self._discovery_reason

    @property
    def sharing(self) -> SharingReport:
        if self._sharing is None:
            self._sharing = classify_sharing(
                self.program, self.cfg, contexts=self.contexts,
                discovery_reason=self.discovery_reason)
        return self._sharing

    @property
    def locksets(self) -> List[LocksetResult]:
        """Per-context sound must-locksets (parallel to ``contexts``)."""
        if self._locksets is None:
            touching = lock_touching_entries(self.cfg)
            self._locksets = [
                compute_locksets(self.cfg, ctx.states,
                                 entry=ctx.key.entry, touching=touching)
                for ctx in self.contexts]
        return self._locksets

    @property
    def races(self) -> "StaticRaceReport":
        if self._races is _MISSING:
            from repro.staticanalysis.races import analyze_races

            locksets = None if self.discovery_reason else self.locksets
            self._races = analyze_races(
                self.program, cfg=self.cfg, contexts=self.contexts,
                discovery_reason=self.discovery_reason,
                locksets=locksets)
        return self._races

    @property
    def elision(self) -> "ElisionPlan":
        if self._elision is _MISSING:
            from repro.staticanalysis.elision import build_elision_plan

            self._elision = build_elision_plan(self)
        return self._elision

    @property
    def lint(self) -> List["Finding"]:
        if self._lint is _MISSING:
            from repro.staticanalysis.lint import lint_program

            self._lint = lint_program(self.program, cfg=self.cfg,
                                      _cacheable=False)
        return self._lint


_CACHE: "OrderedDict[str, ProgramAnalysis]" = OrderedDict()


def analysis_for(program: Program) -> ProgramAnalysis:
    """The (cached) :class:`ProgramAnalysis` for ``program``."""
    key = program_fingerprint(program)
    entry = _CACHE.get(key)
    if entry is None:
        entry = ProgramAnalysis(program, key)
        _CACHE[key] = entry
        while len(_CACHE) > MAX_ENTRIES:
            _CACHE.popitem(last=False)
    return entry


def cache_info() -> dict:
    """Introspection for tests: fingerprints currently cached."""
    return {"entries": len(_CACHE), "max_entries": MAX_ENTRIES,
            "fingerprints": list(_CACHE)}


def clear_cache() -> None:
    _CACHE.clear()
