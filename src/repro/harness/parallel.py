"""The campaign executor: process-pool runs with a journal and a cache.

Every run of the evaluation (§5) is an independent, deterministic
simulation: the same job tuple always produces the same metrics. That
makes the suite embarrassingly parallel and perfectly cacheable, and
this module exploits both:

* the *unit contract* — :class:`ParallelRunner` runs any unit that
  offers ``key(fp)`` (a content address that folds in the
  fingerprint), a picklable ``execute()`` returning a JSON payload,
  ``decode(payload)``, and ``describe()`` for failure records. The
  harness :class:`Job` and the fuzz campaign's
  :class:`~repro.scengen.campaign.FuzzUnit` both implement it;
* :class:`Job` — one run, described by plain data (a registered
  benchmark name rather than a live :class:`~repro.machine.program.Program`,
  so it pickles cheaply and hashes stably);
* :class:`ParallelRunner` — executes a batch of units via
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs>1``) or inline
  (``jobs=1``), consulting a :class:`~repro.harness.journal.RunJournal`
  and then a :class:`~repro.harness.resultcache.ResultCache` first when
  they are attached;
* :func:`fingerprint` — hash of the package version plus every active
  cost constant, folded into each cache key so editing the cost model
  (or running under a :class:`~repro.harness.costmodel.CostModel`
  override) invalidates prior results automatically.

The runner is crash-tolerant (this is the harness the chaos experiments
lean on, so it must outlive anything it measures): per-job wall-clock
timeouts, bounded retry with backoff for transient failures, recovery
from a killed worker (:class:`BrokenProcessPool` rebuilds the pool or
falls back to inline execution), per-job :class:`JobFailure` records
instead of batch aborts, and an optional
:class:`~repro.harness.journal.RunJournal` checkpoint so ``--resume``
replays every finished job with zero re-simulation.

Because runs are deterministic per seed, parallel and serial execution
produce identical metrics — ``tests/harness/test_parallel.py`` enforces
this metric-for-metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, Union)

from repro import __version__
from repro.analyses.fasttrack.reports import RaceReport
from repro.core.config import AikidoConfig
from repro.errors import (
    HarnessError,
    JobTimeoutError,
    ReproError,
    SuiteFailureError,
)
from repro.harness.costmodel import snapshot
from repro.harness.journal import RunJournal
from repro.harness.resultcache import ResultCache
from repro.harness.runner import MODES, RunResult, run_mode

#: Failure kinds the runner will retry (transient by nature). Simulated
#: errors (deadlock, segfault, invariant violation) are deterministic —
#: retrying replays the identical failure, so they fail fast instead.
_RETRYABLE_KINDS = frozenset({"timeout", "exception", "worker-lost"})


class Unit(Protocol):
    """One independent, deterministic piece of campaign work."""

    def key(self, fp: Optional[str] = None) -> str:
        """Content address; folds in ``fp`` (default: :func:`fingerprint`)."""

    def execute(self) -> Dict:
        """Do the work in this process; return a JSON-able payload."""

    def decode(self, payload: Dict):
        """Rebuild the caller-facing result from a payload."""

    def describe(self) -> str:
        """Short label for failure records."""


@dataclass(frozen=True)
class Job:
    """One simulation run, described by plain (picklable, hashable) data.

    ``workload`` is a registered benchmark name (see
    :mod:`repro.workloads.parsec`); the worker process rebuilds the
    program from the registry, so no simulator state crosses the
    process boundary.
    """

    workload: str
    mode: str
    threads: int = 8
    scale: float = 1.0
    seed: int = 1
    quantum: int = 150
    config: Optional[AikidoConfig] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(
                f"unknown mode {self.mode!r}; expected one of {MODES}")

    def canonical(self) -> Dict:
        """JSON-able description used for cache keying."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "threads": self.threads,
            "scale": self.scale,
            "seed": self.seed,
            "quantum": self.quantum,
            "config": (dataclasses.asdict(self.config)
                       if self.config is not None else None),
        }

    # The unit contract ParallelRunner executes.
    def key(self, fp: Optional[str] = None) -> str:
        return job_key(self, fp)

    def execute(self) -> Dict:
        return result_to_dict(execute_job(self))

    def decode(self, payload: Dict) -> RunResult:
        return result_from_dict(payload)

    def describe(self) -> str:
        return f"{self.workload}/{self.mode}"


def fingerprint() -> str:
    """Hash of everything that can change a run's result besides the job.

    Covers the package version and the full cost-constant snapshot, so
    cache entries written under a different cost model (including
    temporary :class:`CostModel` overrides) never satisfy a lookup.
    """
    basis = {"version": __version__, "costs": snapshot()}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def job_key(job: Job, fp: Optional[str] = None) -> str:
    """Stable cache key for one job under the given fingerprint."""
    basis = {"job": job.canonical(),
             "fingerprint": fp if fp is not None else fingerprint()}
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------
# RunResult <-> JSON
# ---------------------------------------------------------------------
_RACE_FIELDS = ("kind", "block", "address", "prior_epoch",
                "current_tid", "current_clock", "instr_uid")


class CachedRace:
    """Replayed race report whose structured fields were not archived."""

    def __init__(self, description: str):
        self._description = description

    def describe(self) -> str:
        return self._description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachedRace {self._description}>"


def _race_to_dict(race) -> Dict:
    if all(hasattr(race, field) for field in _RACE_FIELDS):
        return {field: getattr(race, field) for field in _RACE_FIELDS}
    return {"describe": race.describe()}


def _race_from_dict(payload: Dict):
    if "describe" in payload:
        return CachedRace(payload["describe"])
    return RaceReport(payload["kind"], payload["block"], payload["address"],
                      payload["prior_epoch"], payload["current_tid"],
                      payload["current_clock"],
                      payload.get("instr_uid", -1))


def result_to_dict(result: RunResult) -> Dict:
    """Serialize a :class:`RunResult` for caching / IPC."""
    return {
        "mode": result.mode,
        "cycles": result.cycles,
        "run_stats": dict(result.run_stats),
        "cycle_breakdown": dict(result.cycle_breakdown),
        "races": [_race_to_dict(r) for r in result.races],
        "aikido_stats": dict(result.aikido_stats),
        "hypervisor_stats": dict(result.hypervisor_stats),
        "detector_profile": dict(result.detector_profile),
        "chaos": result.chaos,
        "timeline": [dict(sample) for sample in result.timeline],
        "superblocks": result.superblocks,
    }


def result_from_dict(payload: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    return RunResult(
        payload["mode"], payload["cycles"], dict(payload["run_stats"]),
        dict(payload["cycle_breakdown"]),
        races=[_race_from_dict(r) for r in payload["races"]],
        aikido_stats=dict(payload["aikido_stats"]),
        hypervisor_stats=dict(payload["hypervisor_stats"]),
        detector_profile=dict(payload["detector_profile"]),
        chaos=payload.get("chaos"),  # absent in pre-chaos archives
        timeline=payload.get("timeline"),  # absent in pre-1.2 archives
        superblocks=payload.get("superblocks"),  # absent pre-1.4
    )


def execute_job(job: Job) -> RunResult:
    """Run one job in this process (the serial path and the worker body)."""
    from repro.workloads.parsec import get_benchmark

    spec = get_benchmark(job.workload)
    program = spec.program(threads=job.threads, scale=job.scale)
    kwargs = dict(seed=job.seed, quantum=job.quantum)
    if job.config is not None:
        kwargs["config"] = job.config
    return run_mode(program, job.mode, **kwargs)


@dataclass
class JobFailure:
    """Per-unit failure record: what failed, how, and what it left behind.

    Takes a failed unit's slot in the batch result list so one bad run
    no longer costs the suite every *good* run. ``job`` is the failed
    unit (a :class:`Job` or any other unit). ``kind`` is one of
    ``timeout`` / ``simulated`` / ``exception`` / ``worker-lost``;
    ``address`` / ``thread_id`` / ``invariant`` carry the structured
    fields of :class:`~repro.errors.SegmentationFaultError` and
    :class:`~repro.errors.InvariantViolationError` when present.
    """

    job: Unit
    kind: str
    error_type: str
    message: str
    attempts: int = 1
    address: Optional[int] = None
    thread_id: Optional[int] = None
    invariant: Optional[str] = None
    details: Dict = field(default_factory=dict)

    def describe(self) -> str:
        parts = [self.job.describe(),
                 f"[{self.kind}] {self.error_type}: {self.message}"]
        if self.address is not None:
            parts.append(f"addr={self.address:#x}")
        if self.thread_id is not None:
            parts.append(f"tid={self.thread_id}")
        if self.invariant is not None:
            parts.append(f"invariant={self.invariant}")
        if self.attempts > 1:
            parts.append(f"after {self.attempts} attempts")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobFailure {self.describe()}>"


@contextmanager
def _deadline(seconds: Optional[float]):
    """Enforce a wall-clock budget on the enclosed block via SIGALRM.

    No-op when ``seconds`` is None or we are not on the main thread
    (SIGALRM can only be handled there). Nests: an enclosing deadline's
    remaining time is re-armed on exit, so the per-job guard composes
    with e.g. the test suite's global runaway guard.
    """
    if (seconds is None
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(
            f"job exceeded its {seconds:g}s wall-clock budget")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            remaining = old_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001),
                             old_interval)


def _error_outcome(kind: str, exc: BaseException) -> Dict:
    outcome = {
        "status": "error",
        "kind": kind,
        "error_type": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("address", "thread_id", "invariant"):
        value = getattr(exc, attr, None)
        if value is not None:
            outcome[attr] = value
    details = getattr(exc, "details", None)
    if details:
        outcome["details"] = dict(details)
    return outcome


def _guarded_outcome(unit: Unit, timeout: Optional[float]) -> Dict:
    """Run one unit, capturing any failure as a plain outcome dict.

    Outcome dicts (not exceptions) cross the process boundary: exception
    pickling would silently drop the structured fields of errors like
    :class:`SegmentationFaultError` whose ``__init__`` takes keyword-only
    extras.
    """
    try:
        with _deadline(timeout):
            payload = unit.execute()
    except JobTimeoutError as exc:
        return _error_outcome("timeout", exc)
    except ReproError as exc:
        return _error_outcome("simulated", exc)
    except Exception as exc:  # noqa: BLE001 - the pool must survive anything
        return _error_outcome("exception", exc)
    return {"status": "ok", "payload": payload}


def _pool_worker(unit: Unit, timeout: Optional[float] = None) -> Dict:
    """Top-level (picklable) worker: run one unit, ship the outcome back."""
    os.environ["AIKIDO_POOL_WORKER"] = "1"
    return _guarded_outcome(unit, timeout)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map the user-facing ``--jobs`` value to a worker count.

    ``None`` or ``0`` mean "auto" (one worker per CPU); anything below
    zero is an error.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise HarnessError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


#: What ParallelRunner.run hands back per unit.
BatchEntry = Union[RunResult, JobFailure, Dict]

#: ``progress(unit, entry)``: called once per unit the runner executed.
Progress = Callable[[Unit, BatchEntry], None]


@dataclass
class _Batch:
    """One :meth:`ParallelRunner.run` call's units and result slots."""

    units: List[Unit]
    keys: List[str]
    results: List[Optional[BatchEntry]]
    progress: Optional[Progress] = None


class ParallelRunner:
    """Execute unit batches across processes, reusing finished results.

    The one campaign executor: suite runs and chaos sweeps hand it
    :class:`Job` units, fuzz campaigns hand it
    :class:`~repro.scengen.campaign.FuzzUnit` units, and it treats both
    alike through the unit contract.

    ``jobs=1`` runs everything inline in submission order. ``jobs>1``
    fans the batch out over a :class:`ProcessPoolExecutor`; ``jobs=0``
    (or None) sizes the pool to the machine. ``cache`` (a
    :class:`ResultCache` or None) short-circuits any unit whose key is
    already archived.

    Hardening knobs (all keyword-only, all off by default):

    ``timeout``
        Per-unit wall-clock budget in seconds (positive and finite; None
        means no budget); an overrunning unit becomes a ``timeout``
        failure record instead of hanging the suite.
    ``retries``
        Extra attempts granted to *transient* failures (timeout, host
        exception, killed worker). Simulated errors never retry — the
        simulation is deterministic, so the rerun would fail identically.
    ``backoff``
        Seconds slept before retry attempt *n* (scaled by n).
    ``journal``
        A :class:`RunJournal`; every finished unit is checkpointed —
        cache hits included — and journaled results are replayed before
        cache lookup, so resuming an interrupted campaign re-simulates
        nothing that finished.

    A worker death (:class:`BrokenProcessPool`) is absorbed: completed
    results are kept, the pool is rebuilt for units with retry budget,
    and units without budget run inline in this process — the batch
    always comes back full.

    Counters: ``simulations`` (runs actually started), ``cache_hits``,
    ``journal_hits``, ``timeouts``, ``retries_performed``,
    ``pool_recoveries``, ``inline_fallbacks`` — the acceptance check "a
    warm rerun performs zero simulations" is ``runner.simulations == 0``.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ResultCache] = None, *,
                 timeout: Optional[float] = None, retries: int = 0,
                 backoff: float = 0.0,
                 journal: Optional[RunJournal] = None):
        if retries < 0:
            raise HarnessError(f"retries must be >= 0, got {retries}")
        if timeout is not None and not 0 < timeout < math.inf:
            raise HarnessError(
                f"timeout must be a positive finite number of seconds, "
                f"got {timeout}")
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.journal = journal
        self.simulations = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.timeouts = 0
        self.retries_performed = 0
        self.pool_recoveries = 0
        self.inline_fallbacks = 0

    def run(self, units: Sequence[Unit], strict: bool = True,
            progress: Optional[Progress] = None) -> List[BatchEntry]:
        """Run a batch; entries come back in submission order.

        With ``strict=True`` (default) any failed unit raises
        :class:`SuiteFailureError` *after* the whole batch settles; the
        exception carries both the failure records and the full mixed
        result list, so completed work is never lost. ``strict=False``
        returns the mixed list directly.
        """
        units = list(units)
        results: List[Optional[BatchEntry]] = [None] * len(units)
        keys: List[str] = []
        pending: List[int] = []

        fp = fingerprint()
        for index, unit in enumerate(units):
            key = unit.key(fp)
            keys.append(key)
            payload = None
            if self.journal is not None:
                payload = self.journal.get(key)
                if payload is not None:
                    self.journal_hits += 1
            if payload is None and self.cache is not None:
                payload = self.cache.get(key)
                if payload is not None:
                    self.cache_hits += 1
                    if self.journal is not None:
                        # Backfill, so a resume without the cache still
                        # replays this unit instead of re-simulating it.
                        self.journal.record(key, payload)
            if payload is not None:
                results[index] = unit.decode(payload)
            else:
                pending.append(index)

        if pending:
            self.simulations += len(pending)
            queue: List[Tuple[int, int]] = [(i, 1) for i in pending]
            batch = _Batch(units, keys, results, progress)
            if self.jobs == 1 or len(pending) == 1:
                self._run_inline(batch, queue)
            else:
                self._run_pool(batch, queue)

        failures = [entry for entry in results
                    if isinstance(entry, JobFailure)]
        if failures and strict:
            lines = "; ".join(f.describe() for f in failures)
            raise SuiteFailureError(
                f"{len(failures)} of {len(units)} jobs failed: {lines}",
                failures=failures, results=results)
        return results

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def _run_inline(self, batch: _Batch,
                    queue: List[Tuple[int, int]]) -> None:
        while queue:
            retry_queue: List[Tuple[int, int]] = []
            for index, attempt in queue:
                outcome = _guarded_outcome(batch.units[index], self.timeout)
                self._settle(batch, index, attempt, outcome, retry_queue)
            queue = retry_queue

    def _run_pool(self, batch: _Batch,
                  queue: List[Tuple[int, int]]) -> None:
        while queue:
            workers = min(self.jobs, len(queue))
            retry_queue: List[Tuple[int, int]] = []
            casualties: List[Tuple[int, int]] = []
            broken = False
            unsubmitted: List[Tuple[int, int]] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for pos, (index, attempt) in enumerate(queue):
                    try:
                        future = pool.submit(_pool_worker,
                                             batch.units[index],
                                             self.timeout)
                    except BrokenProcessPool:
                        # A worker died while the batch was being
                        # submitted. The rest never ran: requeue them at
                        # their current attempt, so they spend no retry
                        # budget. (A fresh pool accepts its first
                        # submit, so every round makes progress.)
                        unsubmitted = queue[pos:]
                        break
                    futures[future] = (index, attempt)
                not_done = set(futures)
                while not_done and not broken:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        index, attempt = futures[future]
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            broken = True
                            casualties.append((index, attempt))
                            continue
                        self._settle(batch, index, attempt, outcome,
                                     retry_queue)
                if broken or unsubmitted:
                    self.pool_recoveries += 1
                if broken:
                    # The pool is dead but completed futures still hold
                    # their outcomes — harvest them, requeue the rest.
                    for future in not_done:
                        index, attempt = futures[future]
                        try:
                            outcome = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 - dead future
                            casualties.append((index, attempt))
                            continue
                        self._settle(batch, index, attempt, outcome,
                                     retry_queue)
            for index, attempt in casualties:
                if attempt <= self.retries:
                    self.retries_performed += 1
                    retry_queue.append((index, attempt + 1))
                else:
                    # No retry budget left: guarantee progress by running
                    # the casualty inline (a kill loop cannot reach us
                    # here — this process is the suite).
                    self.inline_fallbacks += 1
                    outcome = _guarded_outcome(batch.units[index],
                                               self.timeout)
                    self._settle(batch, index, attempt, outcome,
                                 retry_queue, lost_worker_fallback=True)
            retry_queue.extend(unsubmitted)
            queue = retry_queue

    def _settle(self, batch: _Batch, index: int, attempt: int,
                outcome: Dict, retry_queue: List[Tuple[int, int]],
                lost_worker_fallback: bool = False) -> None:
        """Turn one outcome dict into a result, a retry, or a failure."""
        unit = batch.units[index]
        if outcome["status"] == "ok":
            payload = outcome["payload"]
            key = batch.keys[index]
            batch.results[index] = unit.decode(payload)
            if self.cache is not None:
                self.cache.put(key, payload)
            if self.journal is not None:
                self.journal.record(key, payload)
        else:
            kind = outcome["kind"]
            if kind == "timeout":
                self.timeouts += 1
            if (kind in _RETRYABLE_KINDS and attempt <= self.retries
                    and not lost_worker_fallback):
                self.retries_performed += 1
                if self.backoff > 0:
                    time.sleep(self.backoff * attempt)
                retry_queue.append((index, attempt + 1))
                return
            batch.results[index] = JobFailure(
                job=unit, kind=kind,
                error_type=outcome.get("error_type", "Exception"),
                message=outcome.get("message", ""), attempts=attempt,
                address=outcome.get("address"),
                thread_id=outcome.get("thread_id"),
                invariant=outcome.get("invariant"),
                details=outcome.get("details", {}))
        if batch.progress is not None:
            batch.progress(unit, batch.results[index])

    def run_one(self, job: Unit) -> BatchEntry:
        """Convenience wrapper: run a single unit through cache + pool."""
        return self.run([job])[0]

    def stats_line(self) -> str:
        """One-line traffic summary for CLI/script footers."""
        line = (f"{self.simulations} simulated, "
                f"{self.cache_hits} served from cache")
        if self.journal_hits:
            line += f", {self.journal_hits} replayed from journal"
        extras = []
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.retries_performed:
            extras.append(f"{self.retries_performed} retries")
        if self.pool_recoveries:
            extras.append(f"{self.pool_recoveries} pool recoveries")
        if self.inline_fallbacks:
            extras.append(f"{self.inline_fallbacks} inline fallbacks")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ParallelRunner jobs={self.jobs} "
                f"simulations={self.simulations} "
                f"cache_hits={self.cache_hits}>")
