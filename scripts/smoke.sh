#!/usr/bin/env bash
# Smoke check: tier-1 tests and the benchmark files' assertions, then a
# tiny parallel suite run twice against a fresh cache directory — the
# second invocation must be served entirely from the cache (zero
# simulations).
#
#     bash scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
AIKIDO_CACHE_DIR="$(mktemp -d)"
export AIKIDO_CACHE_DIR
trap 'rm -rf "$AIKIDO_CACHE_DIR"' EXIT

python -m pytest -x -q

# The pytest-benchmark files live outside the tier-1 testpaths; run
# their assertions once (timing disabled) so an API change that breaks
# them fails here. They run at the default scale: the ratio assertions
# are calibrated for it.
python -m pytest benchmarks --benchmark-disable -x -q

# Workload linter gate: every bundled workload must be finding-free at
# the thread counts the suite uses (the CLI exits non-zero on findings).
for threads in 2 8; do
    python -m repro.harness.cli lint --threads "$threads"
done

# Elision smoke: --static-elide is the one static fast path on the
# Aikido stack. The ablation runs vips plain and elided and exits 2 if
# any simulated statistic differs; at this size the dynamic tripwire
# retires locked-tier uids, so the retirement path runs too.
python -m repro.harness.cli elide --benchmark vips --threads 2 \
    --scale 0.1 --jobs 1 --no-cache

python - <<'EOF'
from repro.harness.experiments import run_suite
from repro.harness.parallel import ParallelRunner
from repro.harness.report import suite_to_dict
from repro.harness.resultcache import ResultCache

SUITE = dict(threads=2, scale=0.05, quantum=100,
             benchmarks=["blackscholes", "canneal"])

cold = ParallelRunner(jobs=2, cache=ResultCache())
first = run_suite(runner=cold, **SUITE)
assert cold.simulations == 6 and cold.cache_hits == 0, cold.stats_line()

warm = ParallelRunner(jobs=2, cache=ResultCache())
second = run_suite(runner=warm, **SUITE)
assert warm.simulations == 0, (
    f"warm rerun was not served from cache: {warm.stats_line()}")
assert warm.cache_hits == 6, warm.stats_line()
assert suite_to_dict(first) == suite_to_dict(second), \
    "cached metrics differ from live metrics"
print(f"smoke ok: cold run {cold.stats_line()}; "
      f"warm run {warm.stats_line()}")
EOF

# Scripts smoke: every script must support --help and exit 0 (the
# argparse convention; a script that chokes on flags regresses here).
for script in scripts/*.py; do
    python "$script" --help > /dev/null
done

# Trace smoke: emit a Chrome trace through the CLI, then reload and
# re-validate it from disk (schema + per-tid span nesting), and check
# the cycle attribution it prints sums exactly.
TRACE_OUT="$AIKIDO_CACHE_DIR/smoke-trace.json"
python -m repro.harness.cli trace --benchmark blackscholes \
    --threads 2 --scale 0.05 --quantum 100 --trace-out "$TRACE_OUT"
python - "$TRACE_OUT" <<'EOF'
import json
import sys

from repro.observability.sink import load_chrome

path = sys.argv[1]
payload = load_chrome(path)       # raises TraceError on any violation
events = payload["traceEvents"]
assert events, "trace smoke emitted no events"
phases = {event["ph"] for event in events}
assert {"B", "E", "i", "M"} <= phases, f"missing phases: {phases}"
# The file is plain JSON too (what chrome://tracing actually parses).
with open(path) as fh:
    assert json.load(fh)["traceEvents"]
print(f"trace smoke ok: {len(events)} events validated from {path}")
EOF

# Chaos smoke: fault injection + invariant monitoring on two bundled
# workloads must be absorbed with race reports identical to the clean
# runs (exercised through the CLI so the flags stay wired).
python -m repro.harness.cli chaos --benchmark canneal \
    --threads 2 --scale 0.05 --quantum 100 --jobs 2
python - <<'EOF'
from repro.harness.experiments import chaos_sweep
from repro.harness.parallel import ParallelRunner

sweep = chaos_sweep(threads=2, scale=0.05, quantum=100,
                    benchmarks=["blackscholes", "canneal"],
                    chaos_seeds=(11,), include_hostile=True,
                    runner=ParallelRunner(jobs=2))
assert sweep.delivered > 0, "chaos smoke delivered no injections"
assert sweep.all_recovery_cells_clean(), \
    "a recovery-plan chaos run failed or changed race reports"
print(f"chaos smoke ok: {sweep.delivered} injected, "
      f"{sweep.recovered} recovered")
EOF

# Superblock smoke: all three execution tiers (interpreter, compiled,
# superblock) must agree bit-for-bit on every simulated statistic on
# bare DBR — the parity contract tests/dbr/test_compiled_parity.py and
# the fuzz oracle's tier_parity_* checks pin — with at least one
# superblock actually built so the tier is known to have engaged.
python - <<'EOF'
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.workloads.parsec import build_benchmark

built = 0
for name in ("blackscholes", "canneal"):
    surfaces = []
    for cb, sb in ((False, False), (True, False), (True, True)):
        kernel = Kernel(seed=3, quantum=100, jitter=0.1)
        kernel.create_process(
            build_benchmark(name, threads=2, scale=0.2))
        engine = DBREngine(kernel, compile_blocks=cb, superblocks=sb)
        kernel.run()
        surfaces.append((kernel.counter.total, engine.stats.as_dict(),
                         kernel.counter.snapshot()))
    snapshot = engine.superblock_snapshot() or {}
    built += snapshot.get("superblocks_built", 0)
    assert surfaces[0] == surfaces[1] == surfaces[2], \
        f"{name}: execution-tier surfaces diverge"
assert built > 0, "superblock smoke never built a superblock"
print(f"superblock smoke ok: 3-tier surfaces bit-identical, "
      f"{built} superblock(s) built")
EOF

# Fuzz smoke: a fixed-seed differential campaign over generated
# scenarios must complete with zero oracle disagreements (exit 0; a
# disagreement exits 3). Then the resumability contract: kill a
# journaled campaign mid-flight and the --resume rerun must replay
# every journaled verdict without re-simulating it.
FUZZ_JOURNAL="$AIKIDO_CACHE_DIR/smoke-fuzz.jsonl"
python -m repro.harness.cli fuzz --seed 1 --count 30 --quick
set -m  # own process group, so the kill takes the pool workers too
python -m repro.harness.cli fuzz --seed 100 --count 30 --quick \
    --journal "$FUZZ_JOURNAL" --no-cache 2> /dev/null &
FUZZ_PID=$!
set +m
until [ -s "$FUZZ_JOURNAL" ]; do sleep 0.05; done
kill -9 -- -"$FUZZ_PID" 2> /dev/null || true
wait "$FUZZ_PID" 2> /dev/null || true
JOURNALED=$(wc -l < "$FUZZ_JOURNAL")
echo "fuzz smoke: killed campaign after $JOURNALED journaled verdict(s)"
RESUME_STATS=$(python -m repro.harness.cli fuzz --seed 100 --count 30 \
    --quick --journal "$FUZZ_JOURNAL" --resume --no-cache \
    2>&1 > /dev/null | tail -1)
echo "fuzz smoke: $RESUME_STATS"
python - "$JOURNALED" "$RESUME_STATS" <<'EOF'
import re
import sys

journaled = int(sys.argv[1])
stats = sys.argv[2]
simulated = int(re.search(r"(\d+) simulated", stats).group(1))
replayed = int(re.search(r"(\d+) replayed from journal", stats).group(1))
assert replayed >= journaled, \
    f"resume replayed {replayed} < {journaled} journaled before the kill"
assert simulated == 30 - replayed, \
    f"resume re-simulated journaled runs: {stats}"
print(f"fuzz smoke ok: resume replayed {replayed}, "
      f"simulated only the remaining {simulated}")
EOF

# Fleet smoke: a suite grid on two pool workers is SIGKILLed (its
# process group, workers included) after its first journaled job. The
# --resume rerun must replay every journaled job without re-simulating
# it, and its report must be byte-identical to a --workers 1 run.
FLEET_GRID=(--benchmarks blackscholes,canneal,swaptions --seeds 1,2,3,4
            --scale 3 --no-cache)
FLEET_JOURNAL="$AIKIDO_CACHE_DIR/fleet.jsonl"
FLEET_SERIAL="$AIKIDO_CACHE_DIR/fleet-serial.json"
FLEET_JSON="$AIKIDO_CACHE_DIR/fleet-report.json"
set -m
python -m repro.harness.cli fleet run "${FLEET_GRID[@]}" --workers 2 \
    --journal "$FLEET_JOURNAL" --json "$FLEET_JSON" > /dev/null 2>&1 &
FLEET_PID=$!
set +m
until [ -s "$FLEET_JOURNAL" ]; do sleep 0.05; done
kill -9 -- -"$FLEET_PID" 2> /dev/null || true
wait "$FLEET_PID" 2> /dev/null || true
JOURNALED=$(wc -l < "$FLEET_JOURNAL")
echo "fleet smoke: killed campaign after $JOURNALED journaled job(s)"
RESUME_STATS=$(python -m repro.harness.cli fleet run "${FLEET_GRID[@]}" \
    --workers 2 --journal "$FLEET_JOURNAL" --resume --json "$FLEET_JSON" \
    2>&1 > /dev/null | tail -1)
echo "fleet smoke: $RESUME_STATS"
python -m repro.harness.cli fleet run "${FLEET_GRID[@]}" --workers 1 \
    --json "$FLEET_SERIAL" > /dev/null
python - "$JOURNALED" "$RESUME_STATS" "$FLEET_SERIAL" "$FLEET_JSON" <<'EOF'
import re
import sys

journaled = int(sys.argv[1])
stats = sys.argv[2]
simulated = int(re.search(r"(\d+) simulated", stats).group(1))
replayed = int(re.search(r"(\d+) replayed from journal", stats).group(1))
assert replayed >= journaled, \
    f"resume replayed {replayed} < {journaled} journaled before the kill"
assert simulated == 12 - replayed, \
    f"resume re-simulated journaled jobs: {stats}"
serial, resumed = (open(path, "rb").read() for path in sys.argv[3:5])
assert serial == resumed, "resumed fleet report differs from --workers 1"
print(f"fleet smoke ok: resume replayed {replayed}, simulated only the "
      f"remaining {simulated}; report byte-identical to --workers 1")
EOF

# Tier-parity smoke: the block-compiled tier (the default) and the
# interpreter reference must report bit-identical simulated results.
python - <<'EOF'
from repro.core.config import AikidoConfig
from repro.harness.runner import run_mode
from repro.workloads.parsec import build_benchmark

program = build_benchmark("canneal", threads=2, scale=0.05)
results = {
    cb: run_mode(program, "aikido-fasttrack", seed=2, quantum=100,
                 config=AikidoConfig(compile_blocks=cb))
    for cb in (True, False)}
for field in ("cycles", "run_stats", "cycle_breakdown", "aikido_stats",
              "hypervisor_stats", "detector_profile", "cycle_attribution"):
    on, off = (getattr(results[cb], field) for cb in (True, False))
    assert on == off, f"tier parity smoke: {field} differs ({on} != {off})"
print("tier parity smoke ok: compiled == interpreter on every "
      "simulated statistic")
EOF

# Record/replay smoke: record one workload once, replay the log through
# all four analyses in parallel, and diff every replayed verdict against
# a fresh live run — bit-identical, with zero re-simulation on replay.
# The same log replayed inline (--jobs 1) must write the identical
# merged document.
REPLAY_DIR="$(mktemp -d)"
REPLAY_LOG_PATH="$REPLAY_DIR/canneal.aiklog"
python -m repro.harness.cli record --benchmark canneal --threads 2 \
    --scale 0.05 --seed 2 --quantum 100 --out "$REPLAY_LOG_PATH"
REPLAY_STATS=$(python -m repro.harness.cli replay --log "$REPLAY_LOG_PATH" \
    --analyses fasttrack,djit,eraser,memtag --jobs 2 --diff-live \
    --benchmark canneal --threads 2 --scale 0.05 --seed 2 --quantum 100 \
    --json "$REPLAY_DIR/jobs2.json" 2>&1 > /dev/null | tail -1)
python -m repro.harness.cli replay --log "$REPLAY_LOG_PATH" \
    --analyses fasttrack,djit,eraser,memtag --jobs 1 \
    --json "$REPLAY_DIR/jobs1.json" > /dev/null
if ! cmp -s "$REPLAY_DIR/jobs1.json" "$REPLAY_DIR/jobs2.json"; then
    echo "replay smoke: --jobs 1 and --jobs 2 wrote different documents"
    exit 1
fi
rm -rf "$REPLAY_DIR"
echo "record/replay smoke: $REPLAY_STATS"
case "$REPLAY_STATS" in
    *"0 simulations"*) ;;
    *) echo "replay smoke re-simulated instead of replaying"; exit 1 ;;
esac
echo "record/replay smoke ok: 4 analyses bit-identical to live," \
    "zero re-simulation, --jobs 1 == --jobs 2"
