"""Render experiment results as the paper's tables and figures (ASCII).

Figures are printed as horizontal bar charts; tables as aligned columns
with measured-vs-paper comparisons where the paper published numbers.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.harness.experiments import (
    ChaosSweep,
    SuiteResult,
    figure5,
    figure6,
    table2,
)
from repro.workloads.parsec import get_benchmark


def _bar(value: float, maximum: float, width: int = 36) -> str:
    filled = 0 if maximum <= 0 else int(round(width * value / maximum))
    return "#" * min(width, filled)


def render_figure5(suite: SuiteResult) -> str:
    """Figure 5: slowdown vs native (lower is better)."""
    rows = figure5(suite)
    maximum = max(max(ft, aik) for _, ft, aik in rows)
    out = io.StringIO()
    out.write("Figure 5: slowdown vs native "
              f"({suite.threads} threads; lower is better)\n")
    out.write(f"{'benchmark':>14s}  {'tool':>16s} {'x':>7s}  chart\n")
    for name, ft, aik in rows:
        out.write(f"{name:>14s}  {'FastTrack':>16s} {ft:6.1f}x  "
                  f"{_bar(ft, maximum)}\n")
        out.write(f"{'':>14s}  {'Aikido-FastTrack':>16s} {aik:6.1f}x  "
                  f"{_bar(aik, maximum)}\n")
    return out.getvalue()


def render_figure6(suite: SuiteResult) -> str:
    """Figure 6: % of accesses that target shared pages."""
    rows = figure6(suite)
    out = io.StringIO()
    out.write("Figure 6: accesses to shared pages "
              f"({suite.threads} threads)\n")
    out.write(f"{'benchmark':>14s} {'measured':>9s} {'paper':>7s}  chart\n")
    for name, fraction in rows:
        paper = get_benchmark(name).paper.shared_fraction
        label = (f"{fraction*100:8.2f}%" if fraction >= 0.005
                 else f"{fraction*100:8.2f}%")
        out.write(f"{name:>14s} {label} {paper*100:6.2f}%  "
                  f"{_bar(fraction, 1.0, 40)}\n")
    return out.getvalue()


def render_table1(results, *, paper: Optional[dict] = None) -> str:
    """Table 1: fluidanimate/vips slowdowns at 2/4/8 threads."""
    paper = paper if paper is not None else PAPER_TABLE1
    out = io.StringIO()
    out.write("Table 1: slowdowns at different thread counts "
              "(measured | paper)\n")
    threads = sorted(next(iter(results.values())).keys())
    header = "".join(f"{t:>20d}T" for t in threads)
    out.write(f"{'benchmark (tool)':>32s}{header}\n")
    for name, per_thread in results.items():
        for idx, tool in enumerate(("FastTrack", "Aikido-FastTrack")):
            cells = []
            for t in threads:
                measured = per_thread[t][idx]
                published = paper.get((name, tool, t))
                cells.append(f"{measured:9.1f}x |{published:7.1f}x"
                             if published is not None
                             else f"{measured:9.1f}x |      - ")
            out.write(f"{name + ' (' + tool + ')':>32s}"
                      + "".join(f"{c:>21s}" for c in cells) + "\n")
    return out.getvalue()


#: The paper's Table 1 numbers.
PAPER_TABLE1 = {
    ("fluidanimate", "FastTrack", 2): 55.79,
    ("fluidanimate", "FastTrack", 4): 127.62,
    ("fluidanimate", "FastTrack", 8): 178.60,
    ("fluidanimate", "Aikido-FastTrack", 2): 48.11,
    ("fluidanimate", "Aikido-FastTrack", 4): 110.65,
    ("fluidanimate", "Aikido-FastTrack", 8): 184.33,
    ("vips", "FastTrack", 2): 45.52,
    ("vips", "FastTrack", 4): 53.34,
    ("vips", "FastTrack", 8): 67.24,
    ("vips", "Aikido-FastTrack", 2): 31.5,
    ("vips", "Aikido-FastTrack", 4): 35.96,
    ("vips", "Aikido-FastTrack", 8): 66.37,
}

#: The paper's Table 2 (absolute dynamic counts on the real PARSEC runs;
#: our counts are scaled, so reports compare the *ratios*).
PAPER_TABLE2 = {
    "freqmine": (1_167_712_401, 742_195_956, 651_009_521, 24_880),
    "blackscholes": (105_944_404, 7_395_315, 7_340_038, 889),
    "bodytrack": (384_925_938, 83_514_877, 77_116_382, 8_993),
    "raytrace": (13_186_394_771, 16_920_360, 14_419_167, 23_350),
    "swaptions": (350_009_582, 58_348_333, 41_602_078, 1_778),
    "fluidanimate": (556_317_760, 356_317_897, 267_758_255, 11_054),
    "vips": (1_044_161_383, 253_794_130, 231_533_572, 10_227),
    "x264": (241_456_020, 82_561_137, 70_813_420, 32_616),
    "canneal": (560_635_087, 69_108_663, 68_153_896, 23_049),
    "streamcluster": (1_067_233_548, 403_953_097, 396_265_668, 5_918),
}


def render_table2(suite: SuiteResult) -> str:
    rows = table2(suite)
    out = io.StringIO()
    out.write("Table 2: instrumentation statistics "
              f"({suite.threads} threads)\n")
    out.write(f"{'benchmark':>14s} {'mem refs':>10s} {'instrumented':>13s} "
              f"{'shared acc':>11s} {'segfaults':>10s} "
              f"{'instr frac (paper)':>19s}\n")
    for row in rows:
        paper = PAPER_TABLE2[row.benchmark]
        paper_frac = paper[1] / paper[0]
        frac = row.instrumented_execs / max(1, row.memory_refs)
        out.write(f"{row.benchmark:>14s} {row.memory_refs:>10d} "
                  f"{row.instrumented_execs:>13d} {row.shared_accesses:>11d} "
                  f"{row.segfaults:>10d} "
                  f"{frac*100:8.1f}% ({paper_frac*100:5.1f}%)\n")
    reduction = suite.geomean_instrumentation_reduction()
    out.write(f"geomean reduction in instrumented memory instructions: "
              f"{reduction:.2f}x (paper: 6.75x)\n")
    return out.getvalue()


def render_breakdown(suite: SuiteResult, top: int = 6) -> str:
    """Where the cycles go: top cost categories per benchmark and mode.

    The view the calibration was done with — useful when tuning the cost
    model or explaining a benchmark's slowdown.
    """
    out = io.StringIO()
    out.write("Cycle breakdown (top categories; share of the mode's "
              "total)\n")
    for name, runs in suite.runs.items():
        out.write(f"{name}:\n")
        for label, result in (("FastTrack", runs.fasttrack),
                              ("Aikido-FastTrack", runs.aikido)):
            total = max(1, result.cycles)
            top_categories = sorted(result.cycle_breakdown.items(),
                                    key=lambda kv: -kv[1])[:top]
            cells = ", ".join(f"{category} {100*cycles/total:.0f}%"
                              for category, cycles in top_categories)
            out.write(f"  {label:>16s}: {cells}\n")
    return out.getvalue()


def render_attribution(suite: SuiteResult) -> str:
    """Where the cycles go: the bucket decomposition per benchmark.

    One aikido-fasttrack row per benchmark, showing each attribution
    bucket's share of the run's total simulated cycles. The buckets
    partition the cycle counter's categories, so the shares sum to 100%
    exactly (modulo display rounding) — the per-row total is asserted by
    :attr:`~repro.harness.runner.RunResult.cycle_attribution` itself.
    """
    from repro.observability.attribution import BUCKETS

    out = io.StringIO()
    out.write("Where the cycles go (aikido-fasttrack, "
              f"{suite.threads} threads; share of total simulated "
              "cycles)\n")
    header = "".join(f"{bucket:>17s}" for bucket in BUCKETS)
    out.write(f"{'benchmark':>14s}{header} {'total cycles':>14s}\n")
    for name, runs in suite.runs.items():
        attribution = runs.aikido.cycle_attribution
        total = max(1, attribution["total"])
        cells = "".join(f"{100 * attribution[b] / total:16.1f}%"
                        for b in BUCKETS)
        out.write(f"{name:>14s}{cells} {attribution['total']:>14,d}\n")
    return out.getvalue()


def render_instrumentation(suite: SuiteResult) -> str:
    """Discovery-machinery counters per benchmark (aikido-fasttrack).

    The satellite view of Table 2: how much re-JIT work the fault-driven
    discovery performed — faults handled, blocks flushed and rebuilt,
    direct patches and indirect hooks installed across all (re)builds.
    """
    out = io.StringIO()
    out.write("Instrumentation machinery (aikido-fasttrack, "
              f"{suite.threads} threads)\n")
    out.write(f"{'benchmark':>14s} {'faults':>7s} {'rejit':>6s} "
              f"{'cc builds':>10s} {'cc flushes':>11s} {'patches':>8s} "
              f"{'hooks':>6s} {'traces':>7s}\n")
    for name, runs in suite.runs.items():
        aik = runs.aikido
        out.write(
            f"{name:>14s} "
            f"{aik.aikido_stats.get('faults_handled', 0):>7d} "
            f"{aik.rejit_flushes:>6d} "
            f"{aik.run_stats.get('codecache_builds', 0):>10d} "
            f"{aik.run_stats.get('codecache_flushes', 0):>11d} "
            f"{aik.aikido_stats.get('direct_patches', 0):>8d} "
            f"{aik.aikido_stats.get('indirect_hooks', 0):>6d} "
            f"{aik.run_stats.get('traces_built', 0):>7d}\n")
    return out.getvalue()


def render_static_races(reports) -> str:
    """Static race analyzer verdicts, one section per workload."""
    out = io.StringIO()
    for report in reports:
        out.write(report.render() + "\n\n")
    return out.getvalue().rstrip() + "\n"


def render_chaos(sweep) -> str:
    """Survivability table for a chaos sweep.

    Accepts a :class:`ChaosSweep` or its :meth:`~ChaosSweep.to_dict`
    payload (so archived JSON renders identically). Per cell: injections
    delivered, injections recovered, invariant checks run, and whether
    the race reports matched the chaos-free baseline bit for bit —
    guaranteed for recovery plans, informational for hostile ones.
    """
    payload = sweep.to_dict() if isinstance(sweep, ChaosSweep) else sweep
    out = io.StringIO()
    out.write("Chaos sweep: survivability under fault injection "
              f"({payload['threads']} threads, "
              f"intensity {payload['intensity']:g})\n")
    out.write(f"{'benchmark':>14s} {'plan':>9s} {'seed':>5s} "
              f"{'injected':>9s} {'recovered':>10s} {'inv.checks':>11s} "
              f"{'races':>7s} {'outcome':>24s}\n")
    for cell in payload["cells"]:
        if cell["survived"]:
            races = "same" if cell["races_match"] else "differ"
            if not cell["schedule_neutral"] and not cell["races_match"]:
                races += "*"
            outcome = "survived"
        else:
            races = "-"
            failure = cell.get("failure", {})
            outcome = failure.get("error_type", "failed")
            if failure.get("invariant"):
                outcome = f"violation:{failure['invariant']}"
        out.write(f"{cell['benchmark']:>14s} {cell['plan']:>9s} "
                  f"{cell['chaos_seed']:>5d} {cell['injected']:>9d} "
                  f"{cell['recovered']:>10d} "
                  f"{cell['invariant_checks']:>11d} {races:>7s} "
                  f"{outcome:>24s}\n")
    out.write(f"total: {payload['delivered']} injections delivered, "
              f"{payload['recovered']} recovered\n")
    if any(not c["schedule_neutral"] for c in payload["cells"]):
        out.write("(* hostile preemption perturbs the schedule; differing "
                  "races are expected, invariants must still hold)\n")
    return out.getvalue()


def render_races(race_table: dict) -> str:
    out = io.StringIO()
    out.write("Detected races (§5.3): FastTrack vs Aikido-FastTrack\n")
    out.write(f"{'benchmark':>14s} {'FastTrack':>10s} {'Aikido':>8s}\n")
    for name, counts in race_table.items():
        out.write(f"{name:>14s} {counts['fasttrack']:>10d} "
                  f"{counts['aikido']:>8d}\n")
    return out.getvalue()


def suite_to_dict(suite: SuiteResult) -> dict:
    """Machine-readable form of one suite run (for --json / archiving)."""
    out = {
        "config": {"threads": suite.threads, "scale": suite.scale,
                   "seed": suite.seed},
        "geomean_speedup": suite.geomean_speedup(),
        "geomean_instrumentation_reduction":
            suite.geomean_instrumentation_reduction(),
        "benchmarks": {},
    }
    for name, runs in suite.runs.items():
        paper = get_benchmark(name).paper
        out["benchmarks"][name] = {
            "ft_slowdown": runs.ft_slowdown,
            "aikido_slowdown": runs.aikido_slowdown,
            "speedup": runs.speedup,
            "shared_fraction": runs.shared_fraction,
            "instrumented_fraction": runs.instrumented_fraction,
            "memory_refs": runs.aikido.memory_refs,
            "instrumented_execs": runs.aikido.instrumented_execs,
            "shared_accesses": runs.aikido.shared_accesses,
            "segfaults": runs.aikido.segfaults,
            "races_fasttrack": len(runs.fasttrack.races),
            "races_aikido": len(runs.aikido.races),
            "faults_handled":
                runs.aikido.aikido_stats.get("faults_handled", 0),
            "rejit_flushes": runs.aikido.rejit_flushes,
            "direct_patches":
                runs.aikido.aikido_stats.get("direct_patches", 0),
            "indirect_hooks":
                runs.aikido.aikido_stats.get("indirect_hooks", 0),
            "codecache_builds":
                runs.aikido.run_stats.get("codecache_builds", 0),
            "codecache_flushes":
                runs.aikido.run_stats.get("codecache_flushes", 0),
            "traces_built":
                runs.aikido.run_stats.get("traces_built", 0),
            # The complete counter set, under its canonical field names
            # (the schema-consistency test pins this against AikidoStats).
            "aikido_stats": dict(runs.aikido.aikido_stats),
            "cycle_attribution": runs.aikido.cycle_attribution,
            "timeline": [dict(s) for s in runs.aikido.timeline],
            "paper": {
                "shared_fraction": paper.shared_fraction,
                "instrumented_fraction": paper.instrumented_fraction,
                "ft_slowdown_8t": paper.ft_slowdown_8t,
                "aikido_slowdown_8t": paper.aikido_slowdown_8t,
            },
        }
    return out


def render_summary(suite: SuiteResult) -> str:
    speedup = suite.geomean_speedup()
    best_name, best = max(
        ((name, runs.speedup) for name, runs in suite.runs.items()),
        key=lambda kv: kv[1])
    wins = sum(1 for r in suite.runs.values() if r.speedup > 1.1)
    parity = sum(1 for r in suite.runs.values()
                 if 0.95 <= r.speedup <= 1.1)
    losses = sum(1 for r in suite.runs.values() if r.speedup < 0.95)
    return (
        "Headline vs paper:\n"
        f"  average speedup: {100*(speedup-1):.0f}% (paper: 76%)\n"
        f"  best speedup: {best:.1f}x on {best_name} "
        "(paper: 6.0x on raytrace)\n"
        f"  improved: {wins}, little change: {parity}, slower: {losses} "
        "(paper: 6 improved, 3 little change, 1 slower)\n")
