"""The benchmark's own tests, on inputs small enough to run in seconds.

Run from the repository root::

    python3 perfbench/selftest.py

They check that every metric name is well formed and matches
BENCHMARK.json; that a planted wrong answer (one repeat retiring a
different instruction count) is counted as a failure; and that traced
runs of every workload leave no wrapper behind, reproduce the untraced
runs' simulated results and partition their root spans.
"""

from __future__ import annotations

import json
import re
import shutil
import unittest

import layers
import run

workloads = run.load_workloads()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def small(name: str, seed: int, workdir):
    """The named workload on an input small enough for a unit test."""
    if name == "shared-heavy":
        return workloads.AikidoRun(name, "streamcluster", 0.2, seed, workdir)
    if name == "private-heavy":
        return workloads.AikidoRun(name, "raytrace", 1.0, seed, workdir)
    if name == "replay-fanout":
        return workloads.ReplayFanoutRun(seed, workdir, scale=0.2)
    return workloads.FuzzCampaign(seed, workdir, count=3)


def patch_targets() -> dict:
    """The current value of every attribute the tracer replaces."""
    from repro.guestos.kernel import Kernel
    from repro.staticanalysis import analysiscache

    state = {("Kernel", "run"): vars(Kernel)["run"],
             ("analysiscache", "analysis_for"): analysiscache.analysis_for}
    for _, cls, attr in layers.method_targets():
        state[(cls.__name__, attr)] = vars(cls)[attr]
    for _, module, attr in layers.function_targets():
        state[(module.__name__, attr)] = getattr(module, attr)
    for attr in layers.ANALYSIS_PROPERTIES:
        state[("ProgramAnalysis", attr)] = vars(
            analysiscache.ProgramAnalysis)[attr]
    return state


class MetricNamesTest(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        end_to_end = list(run.END_TO_END)
        per_layer = [(name, metric["unit"]) for name, metric in
                     layers.per_layer_metrics(layers.LayerTracer(), 1).items()]
        for name, unit in end_to_end + per_layer:
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertIsNotNone(UNIT.fullmatch(unit), unit)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         end_to_end)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         per_layer)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.NAMES)


class MeasuredTest(unittest.TestCase):
    def setUp(self):
        self.workdir = run.WORK / "selftest"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def measure(self, workload, trace=False):
        try:
            return run.measure(workloads, workload, 0.0, trace, [0.5])
        finally:
            workload.cleanup()


class PlantedWrongAnswerTest(MeasuredTest):
    def test_mismatched_instruction_count_raises_failed_frac(self):
        class Planted(workloads.AikidoRun):
            observed = 0

            def observe(self, result, seconds):
                Planted.observed += 1
                if Planted.observed == 3:  # the second timed repeat
                    result.run_stats["instructions"] += 1
                return super().observe(result, seconds)

        line, doc = self.measure(
            Planted("shared-heavy", "streamcluster", 0.2, 1, self.workdir))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertGreater(line["failed"] / line["attempted"], 0)
        self.assertIn("simulated results differ from the warm-up run",
                      doc["problems"])
        self.assertEqual(set(line["metrics"]),
                         {name for name, _ in run.END_TO_END})


class TracedRunTest(MeasuredTest):
    def test_traced_runs_are_faithful_and_leave_nothing_patched(self):
        before = patch_targets()
        declared = set(layers.per_layer_metrics(layers.LayerTracer(), 1))
        for name in run.NAMES:
            with self.subTest(workload=name):
                line, doc = self.measure(small(name, 2, self.workdir),
                                         trace=True)
                self.assertTrue(line["correct"], doc["problems"])
                self.assertEqual(set(line["metrics"]), declared)
                self.assertLess(doc["partition"]["error_s"], 1e-6)
                self.assertEqual(layers.leftover_patches(), [])
                self.assertEqual(patch_targets(), before)
                if name == "shared-heavy":
                    # Bound at assembly or block-compile time: these calls
                    # show only because the wrappers went in first.
                    for metric in ("hypervisor.aikidovm.translate.calls",
                                   "core.sharing.instrument_block.calls",
                                   "umbra.shadow.translate.calls",
                                   "analyses.fasttrack.on_shared_access.calls"):
                        self.assertGreater(line["metrics"][metric]["value"],
                                           0, metric)


if __name__ == "__main__":
    unittest.main()
