"""The repository benchmark: host time of the Aikido reproduction on four
closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload shared-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs untraced for half of ``--seconds`` and traced for the
other half, and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are tables. The whole
result (every sample, quartiles, stamps, spans) is written to
``perfbench/results/``. Reported times are scaled to a reference host
speed (see :func:`speed_probe`). perfbench/README.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

NAMES = ("shared-heavy", "private-heavy", "replay-fanout", "fuzz-campaign")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (("wall_s", "s"), ("sim_instr_per_s", "1/s"),
              ("replay_events_per_s", "1/s"), ("scenarios_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("sim_cpi", "cycles/instr"))
SPAN_FIELDS = ("calls", "s", "self_s")

#: Fresh processes timed per measurement for ``setup_s``.
SETUP_PROBES = 5
#: Timed runs per measurement, however short ``--seconds`` is.
MIN_RUNS = 5
MIN_TRACED_RUNS = 2
#: Allowed |sum of self times - root time| per second of root time.
PARTITION_TOLERANCE = 1e-6
#: Loop length of the host-speed probe (see :func:`speed_probe`), and the
#: probe time of the reference host speed every reported time is scaled to.
PROBE_ITERATIONS = 100_000
PROBE_REFERENCE_S = 0.025
#: How strongly run times follow the probe: log(run seconds) against
#: log(probe) within one measurement fits slopes of 0.57-0.71 for the
#: three simulation workloads on a shared 2-core x86-64 host.
PROBE_SENSITIVITY = 0.7


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def load_workloads():
    """Import the program from this checkout's ``src``, nowhere else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SetupError(f"repro was imported from {repro.__file__}")
    import workloads

    return workloads


# ----------------------------------------------------------------------
# host speed and set-up time
# ----------------------------------------------------------------------
def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    A shared host's speed drifts by up to 2x between processes and
    within seconds, far more than the spread inside one measurement, so
    every reported time is scaled to the reference speed by
    ``(PROBE_REFERENCE_S / probe) ** PROBE_SENSITIVITY``, with the probe
    taken around the timed call (:func:`scaled`). The loop uses nothing
    from the program, so a change to the program cannot move it. Best of
    three: an interrupt only ever makes a probe slower.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(PROBE_ITERATIONS):
            key = i & 1023
            table[key] = table.get(key, 0) + (i ^ acc)
            acc = (acc * 31 + i) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def probe_setup(name: str, seed: int) -> tuple:
    """(speed probe, seconds to import the stack, build one input and
    assemble it), in this fresh process."""
    probe = speed_probe()
    start = time.perf_counter()
    workload = load_workloads().make(name, seed, WORK)
    workload.setup()
    return probe, time.perf_counter() - start


def setup_samples(name: str, seed: int) -> list:
    """Scaled ``probe_setup`` seconds from SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: "
                             + proc.stderr.strip()[-400:])
        probe, seconds = (float(word) for word in proc.stdout.split()[-2:])
        samples.append(seconds * speed_factor(probe))
    return samples


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Tally:
    """Correctness accounting over every checked run.

    The first run checked (the warm-up) sets the reference digest; every
    later run, traced or not, must reproduce it exactly.
    """

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, obs) -> bool:
        if self.reference is None:
            self.reference = obs.surface
        failed = obs.failed
        problems = list(obs.problems)
        if obs.surface != self.reference:
            failed = obs.attempted
            problems.append("simulated results differ from the warm-up run")
        self.attempted += obs.attempted
        self.failed += failed
        self.problems += [p for p in problems if p not in self.problems]
        return failed == 0


def run_once(workloads, workload, tracer=None):
    """One run; an exception fails the run, not the benchmark. Returns
    the observation and the mean of the speed probes around it."""
    handle = workload.setup()
    before = speed_probe()
    region = workloads.Region(tracer)
    try:
        obs = workload.run(handle, region)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        obs = workloads.Observation(
            region.seconds, region.seconds, "",
            attempted=workload.scenarios, failed=workload.scenarios,
            problems=[f"{type(exc).__name__}: {exc}"])
    return obs, (before + speed_probe()) / 2


def timed_runs(workloads, workload, tally, seconds, minimum, tracer=None):
    """Back-to-back runs for ``seconds``, at least ``minimum`` of them;
    returns (observation, speed probe) for each run that passed every
    check."""
    passed = []
    runs = 0
    deadline = time.perf_counter() + seconds
    while runs < minimum or time.perf_counter() < deadline:
        obs, probe = run_once(workloads, workload, tracer)
        runs += 1
        if tally.check(obs):
            passed.append((obs, probe))
    return passed


def speed_factor(probe: float) -> float:
    """Multiplier taking seconds measured at ``probe`` to the reference
    host speed."""
    return (PROBE_REFERENCE_S / probe) ** PROBE_SENSITIVITY


def scaled(runs, attr: str = "seconds") -> list:
    """Each run's seconds at the reference host speed."""
    return [getattr(obs, attr) * speed_factor(probe) for obs, probe in runs]


def summary(samples) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def measure(workloads, workload, seconds: float, trace: bool, setup: list):
    """Measure one workload; returns (result line, result document).

    ``setup`` holds the ``setup_s`` samples, taken in fresh processes by
    the caller. The first run is the warm-up: not timed, but counted (its
    simulated work sizes the throughput metrics) and checked (its digest
    is the reference every later run must reproduce).
    """
    from layers import (ROOT_SPAN, LayerTracer, leftover_patches,
                        per_layer_metrics)

    tally = Tally()
    integrity = []
    workload.prepare()
    with LayerTracer(timing=False) as work:
        warm, _ = run_once(workloads, workload)
    tally.check(warm)
    counts = work.counts
    plain = timed_runs(workloads, workload, tally,
                       seconds / 2 if trace else seconds, MIN_RUNS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    instructions = counts.get("dbr.instructions", 0)
    wall = scaled(plain)
    samples = {"wall_s": wall,
               "host_wall_s": [obs.seconds for obs, _ in plain],
               "speed_probe_s": [probe for _, probe in plain]}
    if plain and instructions:
        events = workload.events(counts, warm)
        samples.update(
            sim_instr_per_s=[instructions / s for s in wall],
            replay_events_per_s=[events / s for s in
                                 scaled(plain, "analysis_seconds")],
            scenarios_per_s=[workload.scenarios / s for s in wall],
            setup_s=setup,
            peak_rss_mb=[rss_mb],
            sim_cpi=[counts["sim.cycles"] / instructions])
    doc = {"work": counts, "warmup_s": warm.seconds}
    if trace:
        tracer = LayerTracer()
        with tracer:
            traced = timed_runs(workloads, workload, tally, seconds / 2,
                                MIN_TRACED_RUNS, tracer)
        leftovers = leftover_patches()
        if leftovers:
            integrity.append("wrappers left behind: " + ", ".join(leftovers))
        for name in sorted(set(counts) | set(tracer.counts)):
            if tracer.counts.get(name, 0) != counts.get(name, 0) * tracer.roots:
                integrity.append(f"traced runs changed {name}")
        root_s = tracer.inclusive.get(ROOT_SPAN, 0.0)
        error = tracer.partition_error()
        if error > PARTITION_TOLERANCE * max(root_s, 1.0):
            integrity.append(f"self times miss the root spans by {error:.3g} s")
        extra = {}
        for obs, _ in traced:
            for name, value in obs.counts.items():
                extra[name] = extra.get(name, 0) + value
        samples["traced_wall_s"] = scaled(traced)
        overhead = (statistics.median(samples["traced_wall_s"])
                    / statistics.median(samples["wall_s"]) - 1
                    if traced and plain else 0.0)
        metrics = per_layer_metrics(tracer, tracer.roots, extra, overhead)
        runs = max(1, tracer.roots)
        unattributed = tracer.self_s.get(ROOT_SPAN, 0.0)
        doc["spans"] = tracer.spans()
        doc["partition"] = {
            "root_s": root_s / runs,
            "layer_self_s": (sum(tracer.self_s.values()) - unattributed) / runs,
            "unattributed_s": unattributed / runs,
            "error_s": error,
            "overhead_frac": overhead,
        }
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END if samples.get(name)}
    line = {"correct": tally.failed == 0 and not integrity and bool(metrics),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}
    doc.update(result=line, problems=tally.problems + integrity,
               samples=samples,
               summary={name: summary(values)
                        for name, values in samples.items() if values})
    return line, doc


# ----------------------------------------------------------------------
# stamps, reports, comparison
# ----------------------------------------------------------------------
def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for entry in (git / "packed-refs").read_text().splitlines():
            if entry.endswith(" " + ref):
                return entry.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload, seconds: float, trace: int) -> dict:
    """Identity of a result. Two results are comparable only when their
    ``key`` matches; seed, node and commit are recorded beside it."""
    return {
        "key": {
            "workload": workload.name, "params": workload.params(),
            "seconds": seconds, "trace": trace,
            "host": {"machine": platform.machine(),
                     "system": platform.system(), "cpus": os.cpu_count()},
            "python": (f"{platform.python_implementation()} "
                       f"{platform.python_version()}"),
        },
        "seed": workload.seed,
        "node": platform.node(),
        "commit": git_commit(),
    }


def render(doc) -> str:
    line, key = doc["result"], doc["key"]
    timed = doc["summary"].get("wall_s", {}).get("n", 0)
    lines = [f"== {key['workload']} seed {doc['seed']}"
             f"{', traced' if key['trace'] else ''}: {timed} timed runs "
             f"after 1 warm-up; failed {line['failed']}/{line['attempted']} "
             f"(failed_frac {line['failed'] / line['attempted']:.4g}); "
             f"correct {str(line['correct']).lower()}"]
    lines += [f"   problem: {problem}" for problem in doc["problems"]]
    if not key["trace"]:
        for name, unit in END_TO_END:
            if name in line["metrics"]:
                s = doc["summary"][name]
                lines.append(
                    f"   {name:<20} {line['metrics'][name]['value']:>14.6g} "
                    f"{unit:<13} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                    f"n={s['n']}")
        return "\n".join(lines)
    spans, part = doc["spans"], doc["partition"]
    runs = max(1, spans["roots"])
    lines.append(f"   {'span (per timed run)':<44} {'calls':>10} {'s':>10} "
                 f"{'self_s':>10}")
    for name, span in sorted(spans["spans"].items(),
                             key=lambda item: -item[1]["self_s"]):
        lines.append(f"   {name:<44} {span['calls'] / runs:>10.1f} "
                     f"{span['s'] / runs:>10.4f} "
                     f"{span['self_s'] / runs:>10.4f}")
    lines.append(f"   root {part['root_s']:.4f} s = layer self times "
                 f"{part['layer_self_s']:.4f} s + unattributed "
                 f"{part['unattributed_s']:.4f} s (error "
                 f"{part['error_s']:.2g} s); tracing overhead "
                 f"{part['overhead_frac']:+.1%}")
    lines += [f"   {name:<44} {metric['value']:>14.6g} {metric['unit']}"
              for name, metric in line["metrics"].items()
              if name.rsplit(".", 1)[-1] not in SPAN_FIELDS]
    return "\n".join(lines)


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per metric; refuse results whose keys differ."""
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    if a["key"] != b["key"]:
        differ = sorted(name for name in set(a["key"]) | set(b["key"])
                        if a["key"].get(name) != b["key"].get(name))
        print(f"not comparable: the results differ in {', '.join(differ)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_than_bound = []
    print(f"{'metric':<44} {'A':>14} {'B':>14} {'B/A-1':>8}")
    for name, old in a["result"]["metrics"].items():
        new = b["result"]["metrics"].get(name)
        if new is None:
            continue
        change = new["value"] / old["value"] - 1 if old["value"] else 0.0
        metric = specs.get(name, {})
        worse = change if metric.get("better") == "lower" else -change
        flag = ""
        if "bound" in metric and worse > metric["bound"]:
            flag = "  worse than its bound"
            worse_than_bound.append(name)
        print(f"{name:<44} {old['value']:>14.6g} {new['value']:>14.6g} "
              f"{change:>+8.1%}{flag}")
    return 1 if worse_than_bound else 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    load_workloads()
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exited with code {proc.returncode}")
            results[name] = None
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if not args.trace:
        print(f"{'workload':<14}"
              + "".join(f" {f'{name} [{unit}]':>26}"
                        for name, unit in END_TO_END)
              + f" {'failed_frac':>12}")
        for name, line in results.items():
            if line is None:
                continue
            print(f"{name:<14}"
                  + "".join(f" {line['metrics'][metric]['value']:>26.6g}"
                            if metric in line["metrics"] else f" {'-':>26}"
                            for metric, _ in END_TO_END)
                  + f" {line['failed'] / line['attempted']:>12.4g}")
    print(json.dumps(results))
    return 0 if all(line and line["correct"]
                    for line in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the Aikido reproduction "
                    "(see perfbench/README.md).")
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON",
                        help="compare two files from perfbench/results/")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            print(*map(repr, probe_setup(args.workload, args.seed)))
            return 0
        workloads = load_workloads()
        WORK.mkdir(parents=True, exist_ok=True)
        setup = [] if args.trace else setup_samples(args.workload, args.seed)
        workload = workloads.make(args.workload, args.seed, WORK)
        try:
            line, doc = measure(workloads, workload, args.seconds,
                                bool(args.trace), setup)
        finally:
            workload.cleanup()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    doc.update(stamp(workload, args.seconds, args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(render(doc))
    print(f"(full result in {out.relative_to(ROOT)})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
