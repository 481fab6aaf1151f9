"""AikidoSD statistics (the raw material of the paper's Table 2)."""

from __future__ import annotations


class AikidoStats:
    """Counters maintained by the sharing detector."""

    def __init__(self):
        #: Aikido faults handled by the SD (mirrors the hypervisor's
        #: delivered-segfault count, which is Table 2 column 4).
        self.faults_handled = 0
        self.private_transitions = 0
        self.shared_transitions = 0
        #: Static instructions upgraded to instrumented on discovery
        #: (a fault on a shared page, §3.3).
        self.instructions_instrumented = 0
        #: Code-cache blocks flushed for re-JIT.
        self.rejit_flushes = 0
        #: Direct instructions patched to their mirror address at block
        #: build (each rebuild of an instrumented block re-patches).
        self.direct_patches = 0
        #: Fig. 4 runtime hooks installed on indirect instructions at
        #: block build (same multiplicity as direct_patches).
        self.indirect_hooks = 0
        #: Dynamic accesses that went to shared pages through the Fig. 4
        #: path (Table 2 column 3).
        self.shared_accesses = 0
        #: Dynamic executions of instrumented indirect instructions that
        #: took the private fast path.
        self.private_fastpath = 0
        #: Redundant faults (e.g. a private page's owner re-faulting after
        #: a temporary-unprotection restore).
        self.redundant_faults = 0
        #: Chaos injections delivered during the run (0 without --chaos).
        self.chaos_injections = 0
        #: Delivered injections the stack's recovery paths absorbed.
        self.chaos_recovered = 0
        #: Invariant-monitor sweeps performed (0 without
        #: --check-invariants).
        self.invariant_checks = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)
