"""Ablation (DESIGN.md §4.4): the asynchronous-noise filter.

The paper treats 1-30 LOC coverage differences rooted in vlapic.c /
irq.c / vpt.c "as noise to filter out" (§VI-B).  This ablation shows
why: with the noise files excluded from the comparison, the per-seed
agreement between record and replay jumps, while the cumulative fitting
barely moves (the noise blocks are eventually covered on both sides —
they just land on different seeds).
"""

from __future__ import annotations

from repro.analysis import coverage_fitting, render_table
from repro.analysis.accuracy import per_seed_coverage_diffs
from repro.core.replay import SeedReplayResult
from repro.core.seed import ExitMetrics, Trace, VMExitRecord
from repro.hypervisor.coverage import NOISE_FILES, CoverageMap
from repro.hypervisor.handlers import common as hc
from repro.hypervisor import vlapic as vlapic_mod

#: The full footprint of one asynchronous event: the noise components'
#: own lines plus the injection blocks (vmx.c) their pending
#: interrupts drag into unrelated exits.
_NOISE_LINES = frozenset(
    line
    for block in (
        hc.BLK_INTR_ASSIST, hc.BLK_INJECT_EVENT,
        hc.BLK_OPEN_INTR_WINDOW, vlapic_mod.BLK_TIMER_FIRE,
        vlapic_mod.BLK_SET_IRQ, vlapic_mod.BLK_UPDATE_PPR,
    )
    for line in block.lines()
)


def _is_noise_line(line: tuple[str, int]) -> bool:
    return line[0] in NOISE_FILES or line in _NOISE_LINES


def strip_noise_trace(trace: Trace) -> Trace:
    records = [
        VMExitRecord(
            seed=record.seed,
            metrics=ExitMetrics(
                vmwrites=record.metrics.vmwrites,
                coverage=CoverageMap(
                    line for line in record.metrics.coverage.lines()
                    if not _is_noise_line(line)
                ),
                handler_cycles=record.metrics.handler_cycles,
                guest_cycles=record.metrics.guest_cycles,
            ),
        )
        for record in trace.records
    ]
    return Trace(workload=trace.workload, records=records)


def strip_noise_results(results):
    return [
        SeedReplayResult(
            outcome=result.outcome,
            handled_reason=result.handled_reason,
            coverage=CoverageMap(
                line for line in result.coverage.lines()
                if not _is_noise_line(line)
            ),
            vmwrites=result.vmwrites,
            handler_cycles=result.handler_cycles,
        )
        for result in results
    ]


def test_ablation_noise_filter(cpu_experiment, benchmark):
    trace = cpu_experiment.session.trace
    results = cpu_experiment.replay.results
    benchmark.pedantic(
        lambda: strip_noise_trace(trace), rounds=3, iterations=1
    )

    raw_diffs = per_seed_coverage_diffs(trace, results)
    filtered_trace = strip_noise_trace(trace)
    filtered_results = strip_noise_results(results)
    filtered_diffs = per_seed_coverage_diffs(
        filtered_trace, filtered_results
    )

    raw_fit = coverage_fitting(trace, results)
    filtered_fit = coverage_fitting(filtered_trace, filtered_results)

    exact_raw = len(trace) - len(raw_diffs)
    exact_filtered = len(trace) - len(filtered_diffs)
    print()
    print(render_table(
        ["comparison", "exact per-seed matches", "fitting"],
        [
            ("raw (noise included)",
             f"{exact_raw}/{len(trace)}",
             f"{raw_fit.fitting_pct:.1f}%"),
            ("noise filtered (paper's treatment)",
             f"{exact_filtered}/{len(trace)}",
             f"{filtered_fit.fitting_pct:.1f}%"),
        ],
        title="Ablation — filtering vlapic/irq/vpt noise out of the "
              "coverage comparison",
    ))

    # Filtering the asynchronous components' lines removes most of the
    # per-seed disagreement...
    assert exact_filtered > exact_raw
    assert len(filtered_diffs) < 0.6 * max(len(raw_diffs), 1)
    # ...while the cumulative fitting stays essentially unchanged.
    assert abs(
        filtered_fit.fitting_pct - raw_fit.fitting_pct
    ) < 5.0
