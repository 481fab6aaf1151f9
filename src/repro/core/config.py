"""Aikido configuration knobs.

Defaults match the paper's system; the non-default settings exist for the
ablation benchmarks (see DESIGN.md §7).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.chaos.plan import ChaosPlan


@dataclass
class AikidoConfig:
    """Tunable behavior of the Aikido stack.

    Attributes:
        block_size: bytes per analysis "variable" (paper uses 8).
        ctx_switch_mode: how AikidoVM intercepts same-address-space
            context switches — ``"hypercall"`` (inserted into the guest
            kernel, the paper's current implementation) or ``"gs_trap"``
            (VM exit on GS/FS segment-register writes, the paper's
            planned unmodified-guest variant).
        mirror_pages: when False, a page that becomes shared is simply
            unprotected for everyone instead of being redirected through
            mirror pages — the "no mirror" ablation. Only the two
            faulting instructions get instrumented, so later instructions
            touching the page are silently missed (completeness loss the
            mirror design exists to avoid).
        order_first_accesses: enable the §6 workaround — the sharing
            detector reports page first-touch ordering to the analysis so
            it can add a happens-before edge between a page's private
            phase and its sharing access, removing the first-two-access
            false-negative class (at the price of suppressing races
            between exactly those first accesses, which the deterministic
            substrate is assumed to order).
        per_thread_protection: when False, emulate what a system limited
            to *process-wide* page protection (ordinary mprotect, as
            Grace/Dthreads-style designs would have without their
            process-per-thread trick) can do: the faulting thread's
            identity cannot be told apart, so every touched page must
            conservatively be treated as shared immediately. The
            ablation shows per-thread protection is the paper's key
            enabler — without it nearly everything gets instrumented.
        chaos: a :class:`~repro.chaos.plan.ChaosPlan` of deterministic
            fault injections to deliver during the run, or None (the
            default) for a chaos-free run. With chaos disabled every
            metric is byte-identical to a build without the chaos hooks.
        check_invariants: run the cross-layer
            :class:`~repro.chaos.invariants.InvariantMonitor` during
            (every 50 scheduler quanta) and after the run, raising a
            structured :class:`~repro.errors.InvariantViolationError`
            on the first inconsistency.
        trace: record structured trace events (spans/instants/counter
            samples on the simulated cycle clock) via
            :class:`~repro.observability.tracer.Tracer` (default
            250,000-event buffer). Off by default; tracing charges no
            cycles and touches no statistic, so every metric is
            bit-identical either way.
        metrics_cadence: scheduler quanta between
            :class:`~repro.observability.metrics.MetricsRecorder`
            timeline samples (0 = no timeline; the run-end snapshot is
            always available from the stats and cycle counter).
        compile_blocks: run the DBR engine's block-compiled execution
            tier (see :mod:`repro.dbr.blockcompiler`). On by default;
            the interpreter tier is the reference and every simulated
            statistic is bit-identical between the two — this switch
            only changes host wall-clock speed (and is the escape hatch
            if it ever doesn't).
        superblocks: run the DBR engine's superblock (trace) tier on top
            of the compiled tier (see :mod:`repro.dbr.superblock`): hot
            block chains selected by the trace profiler are stitched
            into single generated functions with guard-protected side
            exits and hoisted TLB checks. On by default; ignored without
            ``compile_blocks``. Like the compiled tier, every simulated
            statistic is bit-identical with it on or off — the switch
            exists for benchmarking the tiers apart (and as the escape
            hatch).
    """

    block_size: int = 8
    ctx_switch_mode: str = "hypercall"
    mirror_pages: bool = True
    order_first_accesses: bool = False
    per_thread_protection: bool = True
    chaos: Optional[ChaosPlan] = None
    check_invariants: bool = False
    trace: bool = False
    metrics_cadence: int = 0
    compile_blocks: bool = True
    superblocks: bool = True

    def to_dict(self) -> Dict:
        """JSON-safe form (what job canonicalization already embeds)."""
        return dataclasses.asdict(self)
