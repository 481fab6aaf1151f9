"""Outside-in per-layer tracing of the Aikido stack.

The benchmark never edits the program: it times calls into each layer's
public functions by replacing them, for the duration of a traced run, with
timing wrappers installed from here. The wrappers must be in place before
the stack is assembled, because the stack binds several of these functions
at construction or block-compile time (the CPU keeps the platform's
``translate``, compiled block bodies keep ``cpu.translate``, the code
cache keeps ``tool.instrument_block``). :meth:`LayerTracer.uninstall`
restores every original attribute and :func:`leftover_patches` proves it.

Only calls made inside a root span (one timed run, see
:meth:`LayerTracer.root`) are recorded; calls made while a run is being
assembled or checked cost one list test. For every span name the tracer
keeps calls, inclusive seconds (outermost activations only, so a recursive
call is not counted twice) and self seconds (inclusive minus the time of
timed children). The self times of all spans plus the roots' own self time
(``trace.unattributed_s``) partition the root spans exactly.

Counters come from the public stats objects of every kernel that finishes
a run (``Kernel.run`` is hooked for that, not timed): the engine's stats,
code cache and superblock cache, the sharing detector's and the
hypervisor's stats, the FastTrack detector and the cycle counter.
"""

from __future__ import annotations

import sys
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, so a leftover one can be found.
MARKER = "_perfbench_wrapper"

ROOT_SPAN = "root"

#: ``ProgramAnalysis`` properties timed together as one layer.
ANALYSIS_PROPERTIES = ("cfg", "contexts", "discovery_reason", "sharing",
                       "locksets", "races", "elision", "lint")


def method_targets():
    """(span name, class, method) for every timed method."""
    from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
    from repro.core.aikidolib import AikidoLib
    from repro.core.sharing import SharingDetector
    from repro.dbr.engine import DBREngine
    from repro.guestos.kernel import Kernel
    from repro.harness.journal import RunJournal
    from repro.hypervisor.aikidovm import AikidoVM
    from repro.umbra.shadow import ShadowMemory

    return [
        ("dbr.engine.run", DBREngine, "run"),
        ("core.sharing.instrument_block", SharingDetector,
         "instrument_block"),
        ("core.sharing.on_sync_event", SharingDetector, "on_sync_event"),
        ("core.aikidolib.set_page_protection", AikidoLib,
         "set_page_protection"),
        ("umbra.shadow.translate", ShadowMemory, "translate"),
        ("analyses.fasttrack.on_shared_access", AikidoFastTrack,
         "on_shared_access"),
        ("analyses.fasttrack.on_sync_event", AikidoFastTrack,
         "on_sync_event"),
        ("hypervisor.aikidovm.handle_fault", AikidoVM, "handle_fault"),
        ("hypervisor.aikidovm.hypercall", AikidoVM, "hypercall"),
        ("hypervisor.aikidovm.on_context_switch", AikidoVM,
         "on_context_switch"),
        ("hypervisor.aikidovm.translate", AikidoVM, "translate"),
        ("guestos.kernel.service", Kernel, "service"),
        ("guestos.kernel.repair_fault", Kernel, "repair_fault"),
        ("harness.journal.record", RunJournal, "record"),
    ]


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def function_targets():
    """(span name or namer, defining module, function name)."""
    import repro.dbr.blockcompiler as blockcompiler
    import repro.dbr.superblock as superblock
    import repro.eventlog.replay as replay
    import repro.scengen  # noqa: F401 - binds generate/render/oracle names
    import repro.scengen.generator as generator
    import repro.scengen.oracle as oracle
    import repro.scengen.scenario as scenario
    import repro.staticanalysis.lint as lint

    return [
        ("dbr.blockcompiler.compile_block", blockcompiler, "compile_block"),
        ("dbr.superblock.compile_superblock", superblock,
         "compile_superblock"),
        ("eventlog.record_run", replay, "record_run"),
        (lambda a, k: "eventlog.replay_log." + _arg(a, k, 1, "name"),
         replay, "replay_log"),
        ("staticanalysis.lint_program", lint, "lint_program"),
        ("scengen.generate", generator, "generate"),
        ("scengen.render", scenario, "render"),
        ("scengen.check_scenario", oracle, "check_scenario"),
        (lambda a, k: "scengen.tier." + _arg(a, k, 2, "tier"),
         oracle, "default_tier_runner"),
    ]


class LayerTracer:
    """Timing wrappers plus run-end counter harvest for one traced run.

    ``timing=False`` installs only the counter harvest (``Kernel.run``)
    and the analysis-cache lookup counter, and records every run rather
    than only runs inside a root span: the benchmark's warm-up run uses
    it to learn a workload's simulated work without timing anything.
    """

    def __init__(self, *, timing: bool = True):
        self.timing = timing
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: (parent span, child span) -> [calls, inclusive seconds]
        self.edges: Dict[Tuple[str, str], List] = {}
        self.counts: Dict[str, float] = {}
        self.roots = 0
        self._stack: List[List] = []
        self._active: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._seen_analyses: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> List:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame

    def _exit(self, frame: List, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        depth = self._active[name] - 1
        self._active[name] = depth
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[(parent[0], name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += elapsed

    def _recording(self) -> bool:
        return bool(self._stack) or not self.timing

    @contextmanager
    def root(self):
        """The span of one timed run; layer calls outside it are ignored."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        frame = self._enter(ROOT_SPAN)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)
            self.roots += 1

    def _timed(self, name, fn: Callable) -> Callable:
        stack = self._stack
        enter = self._enter
        exit_ = self._exit
        clock = time.perf_counter
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = enter(namer(args, kwargs) if namer else name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, clock() - start)

        return _mark(wrapper, fn)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def bump(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def harvest_kernel(self, kernel) -> None:
        """Fold one finished kernel's public stats into ``counts``."""
        from repro.core.sharing import SharingDetector
        from repro.dbr.engine import DBREngine
        from repro.hypervisor.aikidovm import AikidoVM
        from repro.observability.attribution import attribute_cycles

        bump = self.bump
        counter = kernel.counter
        bump("sim.cycles", counter.total)
        for bucket, cycles in attribute_cycles(counter.snapshot(),
                                               total=counter.total).items():
            if bucket != "total":
                bump("cycles." + bucket, cycles)
        driver = kernel.driver
        if driver is not None:
            bump("dbr.instructions", driver.stats.instructions)
        if isinstance(driver, DBREngine):
            cache = driver.codecache
            bump("dbr.codecache.builds", cache.builds)
            bump("dbr.codecache.flushes", cache.flushes)
            bump("dbr.codecache.traces_built", cache.traces_built)
            sb_cache = driver.superblock_cache
            if sb_cache is not None:
                bump("dbr.superblock.built", sb_cache.built)
                bump("dbr.superblock.dropped", sb_cache.dropped)
                bump("dbr.superblock.entries", sb_cache.entries)
                bump("dbr.superblock.side_exits", sb_cache.side_exits)
                bump("dbr.superblock.instructions", sb_cache.instructions)
            tool = driver.tool
            detector = getattr(tool, "detector", None)
            if isinstance(tool, SharingDetector):
                for field in ("faults_handled", "shared_transitions",
                              "rejit_flushes", "shared_accesses",
                              "private_fastpath"):
                    bump("core.sharing." + field, getattr(tool.stats, field))
                bump("core.sharing.memory_refs", driver.stats.memory_refs)
                detector = getattr(tool.analysis, "detector", None)
                if detector is not None:
                    bump("analyses.fasttrack.accesses",
                         detector.reads + detector.writes)
                    bump("analyses.fasttrack.same_epoch_hits",
                         detector.same_epoch_hits)
            if detector is not None and hasattr(detector, "sync_ops"):
                bump("sim.detector_events", detector.reads
                     + detector.writes + detector.sync_ops)
        if isinstance(kernel.platform, AikidoVM):
            stats = kernel.platform.stats
            for field in ("vmexits", "segfaults_delivered",
                          "protection_updates", "shadow_syncs"):
                bump("hypervisor." + field, getattr(stats, field))

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, name: str, wrapper_for) -> None:
        """Replace ``module.name`` in every loaded module that bound it."""
        original = getattr(module, name)
        wrapper = wrapper_for(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patch(loaded, attr, wrapper)

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        import repro.staticanalysis.analysiscache as analysiscache
        from repro.guestos.kernel import Kernel

        original_run = Kernel.run

        def run(kernel, *args, **kwargs):
            try:
                return original_run(kernel, *args, **kwargs)
            finally:
                if self._recording():
                    self.harvest_kernel(kernel)

        self._patch(Kernel, "run", _mark(run, original_run))

        def lookup_counter(fn):
            seen = self._seen_analyses

            def analysis_for(program):
                entry = fn(program)
                if self._recording():
                    self.bump("staticanalysis.lookups", 1)
                    if entry in seen:
                        self.bump("staticanalysis.cache_hits", 1)
                    seen.add(entry)
                return entry

            return _mark(analysis_for, fn)

        self._patch_function(analysiscache, "analysis_for", lookup_counter)
        if not self.timing:
            return self
        for name, cls, attr in method_targets():
            if attr not in vars(cls):
                raise RuntimeError(f"{cls.__name__}.{attr} is inherited; "
                                   f"time the defining class instead")
            self._patch(cls, attr, self._timed(name, vars(cls)[attr]))
        for name, module, attr in function_targets():
            self._patch_function(
                module, attr, lambda fn, name=name: self._timed(name, fn))
        cls = analysiscache.ProgramAnalysis
        for attr in ANALYSIS_PROPERTIES:
            prop = vars(cls)[attr]
            self._patch(cls, attr, property(
                self._timed("staticanalysis.analysis", prop.fget),
                doc=prop.__doc__))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def partition_error(self) -> float:
        """|sum of every self time - root time|; ~0 when spans nest."""
        return abs(sum(self.self_s.values())
                   - self.inclusive.get(ROOT_SPAN, 0.0))

    def spans(self) -> Dict:
        """JSON-safe dump of the aggregated spans and counters."""
        return {
            "roots": self.roots,
            "spans": {name: {"calls": self.calls[name],
                             "s": self.inclusive.get(name, 0.0),
                             "self_s": self.self_s[name]}
                      for name in sorted(self.calls)},
            "edges": [{"parent": parent, "child": child, "calls": calls,
                       "s": seconds}
                      for (parent, child), (calls, seconds)
                      in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def _mark(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    setattr(wrapper, MARKER, True)
    return wrapper


def leftover_patches() -> List[str]:
    """Every wrapper still reachable from a repro module or class."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type):
                for name, member in list(vars(value).items()):
                    target = (member.fget if isinstance(member, property)
                              else member)
                    if getattr(target, MARKER, False):
                        found.append(f"{module_name}.{attr}.{name}")
    return sorted(set(found))


#: Timed spans reported as per-layer metrics, with the fields reported.
PER_LAYER_SPANS = [
    ("dbr.engine.run", ("calls", "s", "self_s")),
    ("dbr.blockcompiler.compile_block", ("calls", "s")),
    ("dbr.superblock.compile_superblock", ("calls", "s")),
    ("core.sharing.instrument_block", ("calls", "s")),
    ("core.sharing.on_sync_event", ("calls", "s")),
    ("core.aikidolib.set_page_protection", ("calls", "s")),
    ("umbra.shadow.translate", ("calls", "s")),
    ("analyses.fasttrack.on_shared_access", ("calls", "s", "self_s")),
    ("analyses.fasttrack.on_sync_event", ("calls", "s")),
    ("hypervisor.aikidovm.handle_fault", ("calls", "s")),
    ("hypervisor.aikidovm.hypercall", ("calls", "s")),
    ("hypervisor.aikidovm.on_context_switch", ("calls", "s")),
    ("hypervisor.aikidovm.translate", ("calls", "s")),
    ("guestos.kernel.service", ("calls", "s", "self_s")),
    ("guestos.kernel.repair_fault", ("calls", "s")),
    ("eventlog.record_run", ("s",)),
    ("eventlog.replay_log.fasttrack", ("s",)),
    ("eventlog.replay_log.djit", ("s",)),
    ("eventlog.replay_log.eraser", ("s",)),
    ("eventlog.replay_log.memtag", ("s",)),
    ("staticanalysis.analysis", ("s",)),
    ("staticanalysis.lint_program", ("calls", "s")),
    ("scengen.generate", ("s",)),
    ("scengen.render", ("s",)),
    ("scengen.check_scenario", ("calls", "s", "self_s")),
    ("scengen.tier.interp", ("s",)),
    ("scengen.tier.compiled", ("s",)),
    ("scengen.tier.superblock", ("s",)),
    ("harness.journal.record", ("calls", "s")),
]

#: Harvested counters reported as per-layer metrics, with their unit.
PER_LAYER_COUNTS = [
    ("dbr.instructions", "count"),
    ("dbr.codecache.builds", "count"),
    ("dbr.codecache.flushes", "count"),
    ("dbr.codecache.traces_built", "count"),
    ("dbr.superblock.built", "count"),
    ("dbr.superblock.dropped", "count"),
    ("dbr.superblock.entries", "count"),
    ("dbr.superblock.side_exits", "count"),
    ("core.sharing.faults_handled", "count"),
    ("core.sharing.shared_transitions", "count"),
    ("core.sharing.rejit_flushes", "count"),
    ("core.sharing.shared_accesses", "count"),
    ("core.sharing.private_fastpath", "count"),
    ("hypervisor.vmexits", "count"),
    ("hypervisor.segfaults_delivered", "count"),
    ("hypervisor.protection_updates", "count"),
    ("hypervisor.shadow_syncs", "count"),
    ("eventlog.events", "count"),
    ("eventlog.chunks", "count"),
    ("eventlog.bytes", "bytes"),
    ("cycles.app", "cycles"),
    ("cycles.discovery_fault", "cycles"),
    ("cycles.rejit", "cycles"),
    ("cycles.tool_hook", "cycles"),
    ("cycles.kernel_emulation", "cycles"),
]

#: Ratios reported as per-layer metrics: (name, numerator, denominator,
#: unit); 0 when the denominator is.
PER_LAYER_RATIOS = [
    ("dbr.superblock.instr_share", "dbr.superblock.instructions",
     "dbr.instructions", "ratio"),
    ("dbr.superblock.side_exit_rate", "dbr.superblock.side_exits",
     "dbr.superblock.entries", "ratio"),
    ("core.sharing.shared_access_frac", "core.sharing.shared_accesses",
     "core.sharing.memory_refs", "ratio"),
    ("analyses.fasttrack.same_epoch_hit_frac",
     "analyses.fasttrack.same_epoch_hits", "analyses.fasttrack.accesses",
     "ratio"),
    ("eventlog.bytes_per_event", "eventlog.bytes", "eventlog.events",
     "bytes"),
    ("staticanalysis.cache_hit_frac", "staticanalysis.cache_hits",
     "staticanalysis.lookups", "ratio"),
]


def per_layer_metrics(tracer: LayerTracer, runs: int,
                      extra_counts: Optional[Dict[str, float]] = None,
                      overhead_frac: float = 0.0) -> Dict[str, Dict]:
    """Every ``per_layer`` metric, each as a per-timed-run value."""
    counts = dict(tracer.counts)
    for name, value in (extra_counts or {}).items():
        counts[name] = counts.get(name, 0) + value
    scale = 1.0 / max(1, runs)
    metrics: Dict[str, Dict] = {}
    for name, fields in PER_LAYER_SPANS:
        for field in fields:
            if field == "calls":
                value, unit = tracer.calls.get(name, 0), "count"
            elif field == "s":
                value, unit = tracer.inclusive.get(name, 0.0), "s"
            else:
                value, unit = tracer.self_s.get(name, 0.0), "s"
            metrics[f"{name}.{field}"] = {"value": value * scale,
                                          "unit": unit}
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = {"value": counts.get(name, 0) * scale, "unit": unit}
    for name, num, den, unit in PER_LAYER_RATIOS:
        denominator = counts.get(den, 0)
        metrics[name] = {"value": (counts.get(num, 0) / denominator
                                   if denominator else 0.0),
                         "unit": unit}
    metrics["trace.overhead_frac"] = {"value": overhead_frac,
                                      "unit": "ratio"}
    metrics["trace.unattributed_s"] = {
        "value": tracer.self_s.get(ROOT_SPAN, 0.0) * scale, "unit": "s"}
    return metrics
