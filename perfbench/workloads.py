"""The benchmark's four workloads, each a closed loop of back-to-back runs.

One iteration is split in two. :meth:`Workload.setup` builds the input
and assembles the stack, untimed; ``run.py`` measures that cost in fresh
processes as ``setup_s``. :meth:`Workload.run` makes the timed calls
inside ``region`` and returns an :class:`Observation`: the seconds, a
digest of everything the run simulated, which must equal the warm-up
run's digest on every repeat, traced or not, and what the run's
correctness checks found.

The guest's 4 threads are simulated inside the one host thread; nothing
here starts a process or a thread (the replay fan-out runs with
``jobs=1`` and the campaign serially).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import repro.eventlog.replay as replay
from repro.core.config import AikidoConfig
from repro.harness.journal import RunJournal
from repro.harness.runner import build_aikido_system, system_result
from repro.scengen import run_campaign
from repro.staticanalysis import analysiscache
from repro.workloads.parsec import build_benchmark

THREADS = 4
QUANTUM = 200
JITTER = 0.1
FANOUT_ANALYSES = ("fasttrack", "djit", "eraser", "memtag")

#: Input sizes: one run of each simulation workload lasts about a second
#: on a 2-core x86-64 host, a campaign run about three.
SHARED_SCALE = 3.0
PRIVATE_SCALE = 15.0
REPLAY_SCALE = 2.0
FUZZ_COUNT = 100


@dataclass
class Observation:
    """What one timed run produced."""

    seconds: float
    #: Seconds of the analysis phase: the fan-out on replay-fanout, the
    #: whole run elsewhere (analysis interleaves with simulation there).
    analysis_seconds: float
    #: Digest of the run's simulated stats, verdicts and races.
    surface: str
    #: Checks this run stands for: 1, or one per campaign scenario.
    attempted: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Per-layer counters read from the run's own results.
    counts: Dict[str, float] = field(default_factory=dict)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Region:
    """The timed region of one run: a timer, plus the tracer's root span
    when the run is traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self._root = None

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self._root = self.tracer.root()
            self._root.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        if self._root is not None:
            self._root.__exit__(*exc)


class Workload:
    """One benchmark workload; subclasses define its input and run."""

    name = ""
    #: Programs checked per run (the ``scenarios_per_s`` numerator).
    scenarios = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def params(self) -> Dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed reference work, done once before the warm-up run."""

    def setup(self):
        """Build the input and assemble the stack for one run."""
        raise NotImplementedError

    def run(self, handle, region: Region) -> Observation:
        raise NotImplementedError

    def events(self, counts: Dict[str, float], warm: Observation) -> float:
        """Analysis events one run processes (``replay_events_per_s``)."""
        return counts.get("sim.detector_events", 0)

    def cleanup(self) -> None:
        """Remove the files runs leave in ``workdir``."""


class AikidoRun(Workload):
    """The paper's stack, as ``run_aikido_fasttrack`` assembles it with
    the default (paper) ``AikidoConfig``."""

    def __init__(self, name: str, benchmark: str, scale: float, seed: int,
                 workdir: Path):
        super().__init__(seed, workdir)
        self.name = name
        self.benchmark = benchmark
        self.scale = scale

    def params(self) -> Dict:
        return {"benchmark": self.benchmark, "scale": self.scale,
                "threads": THREADS, "quantum": QUANTUM, "jitter": JITTER,
                "config": AikidoConfig().to_dict()}

    def setup(self):
        program = build_benchmark(self.benchmark, threads=THREADS,
                                  scale=self.scale)
        return build_aikido_system(program, seed=self.seed,
                                   quantum=QUANTUM, jitter=JITTER,
                                   config=AikidoConfig())

    def run(self, system, region: Region) -> Observation:
        with region:
            system.run()
            result = system_result(system)
        return self.observe(result, region.seconds)

    def observe(self, result, seconds: float) -> Observation:
        problems = []
        if result.races:
            # docs/workloads.md: streamcluster and raytrace are fully
            # synchronized, so the race inventory is empty.
            problems.append(f"{len(result.races)} race(s) reported on "
                            f"{self.benchmark}, whose inventory is empty")
        surface = digest({
            "cycles": result.cycles,
            "run_stats": result.run_stats,
            "cycle_breakdown": result.cycle_breakdown,
            "aikido_stats": result.aikido_stats,
            "hypervisor_stats": result.hypervisor_stats,
            "detector_profile": result.detector_profile,
            "superblocks": result.superblocks,
            "races": sorted(race.describe() for race in result.races),
        })
        return Observation(seconds, seconds, surface,
                           failed=int(bool(problems)), problems=problems)


class ReplayFanoutRun(Workload):
    """Record streamcluster once, replay the log into four detectors."""

    name = "replay-fanout"
    benchmark = "streamcluster"

    def __init__(self, seed: int, workdir: Path,
                 scale: float = REPLAY_SCALE):
        super().__init__(seed, workdir)
        self.scale = scale
        self.path = self.workdir / "fanout.aiklog"
        self.live = None

    def params(self) -> Dict:
        return {"benchmark": self.benchmark, "scale": self.scale,
                "threads": THREADS, "quantum": QUANTUM, "jitter": JITTER,
                "analyses": list(FANOUT_ANALYSES), "jobs": 1}

    def _program(self):
        return build_benchmark(self.benchmark, threads=THREADS,
                               scale=self.scale)

    def prepare(self) -> None:
        self.live = replay.live_run_verdict(
            self._program(), "fasttrack", seed=self.seed, quantum=QUANTUM,
            jitter=JITTER)

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self._program()

    def run(self, program, region: Region) -> Observation:
        path = str(self.path)
        try:
            with region:
                stats = replay.record_run(program, path, seed=self.seed,
                                          quantum=QUANTUM, jitter=JITTER)
                start = time.perf_counter()
                merged = replay.ReplayFanout(FANOUT_ANALYSES, jobs=1).run(
                    path, check=True)
                fanout_seconds = time.perf_counter() - start
        finally:
            self.cleanup()
        verdicts = merged["verdicts"]
        problems = []
        if verdicts["fasttrack"] != self.live:
            problems.append("replayed FastTrack verdict differs from the "
                            "live run")
        for name in ("fasttrack", "djit"):
            if verdicts[name]["report_count"]:
                problems.append(f"{name} reported races on streamcluster, "
                                f"whose inventory is empty")
        record = {key: stats[key]
                  for key in ("events", "chunks", "bytes", "cycles")}
        return Observation(
            region.seconds, fanout_seconds,
            digest({"record": record, "fanout": merged}),
            failed=int(bool(problems)), problems=problems,
            counts={"eventlog." + key: stats[key]
                    for key in ("events", "chunks", "bytes")})

    def events(self, counts, warm):
        return warm.counts["eventlog.events"] * len(FANOUT_ANALYSES)

    def cleanup(self) -> None:
        if self.path.exists():
            self.path.unlink()


class FuzzCampaign(Workload):
    """``aikido-repro fuzz --quick --seed <seed>``: a serial campaign with a
    fresh journal and no result cache, so every scenario simulates."""

    name = "fuzz-campaign"

    def __init__(self, seed: int, workdir: Path, count: int = FUZZ_COUNT):
        super().__init__(seed, workdir)
        self.count = self.scenarios = count
        self.journal = self.workdir / "fuzz.journal"

    def params(self) -> Dict:
        return {"count": self.count, "quick": True, "journal": "fresh",
                "cache": None}

    def setup(self):
        # Each run starts like a fresh `aikido-repro fuzz` process, with
        # no static analysis memoized by the previous run.
        analysiscache.clear_cache()
        return RunJournal(self.journal)

    def run(self, journal, region: Region) -> Observation:
        with region:
            result = run_campaign(self.seed, self.count, quick=True,
                                  journal=journal, cache=None)
        bad = [p["seed"] for p in result.payloads if not p["verdict"]["ok"]]
        problems = ([f"oracle disagreement on scenario seed(s) {bad}"]
                    if bad else [])
        failed = len(bad)
        if result.simulated != self.count:
            problems.append(f"{result.simulated} of {self.count} scenarios "
                            f"simulated")
            failed = self.count
        return Observation(region.seconds, region.seconds,
                           digest(result.payloads), attempted=self.count,
                           failed=failed, problems=problems)

    def cleanup(self) -> None:
        if self.journal.exists():
            self.journal.unlink()


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "shared-heavy":
        return AikidoRun(name, "streamcluster", SHARED_SCALE, seed, workdir)
    if name == "private-heavy":
        return AikidoRun(name, "raytrace", PRIVATE_SCALE, seed, workdir)
    if name == "replay-fanout":
        return ReplayFanoutRun(seed, workdir)
    if name == "fuzz-campaign":
        return FuzzCampaign(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
