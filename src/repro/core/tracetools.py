"""Trace manipulation utilities: slice, filter, merge, stats, diff.

Recorded VM behaviors are the fuzzer's raw material; these helpers are
the corpus-management layer a downstream user needs around the binary
trace files — cutting a boot prefix, isolating one exit reason's
seeds, combining recordings, and comparing two behaviors.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.core.seed import Trace, VMExitRecord
from repro.core.tracestore import TraceLike
from repro.hypervisor.coverage import CoverageMap
from repro.vmx.exit_reasons import ExitReason, exit_reason_for


def slice_trace(trace: TraceLike, start: int = 0,
                stop: int | None = None) -> Trace:
    """A new trace holding records ``[start:stop]``."""
    return Trace(
        workload=trace.workload,
        records=list(trace.records[start:stop]),
    )


def filter_by_reason(
    trace: TraceLike, reasons: set[ExitReason] | list[ExitReason]
) -> Trace:
    """Keep only the seeds with one of the given exit reasons."""
    wanted = {exit_reason_for(r) for r in reasons}
    return Trace(
        workload=trace.workload,
        records=[
            record for record in trace.records
            if record.seed.reason in wanted
        ],
    )


def merge_traces(traces: list[TraceLike],
                 workload: str = "") -> Trace:
    """Concatenate several recordings into one behavior."""
    if not traces:
        raise ValueError("nothing to merge")
    records: list[VMExitRecord] = []
    for trace in traces:
        records.extend(trace.records)
    return Trace(
        workload=workload or "+".join(t.workload for t in traces),
        records=records,
    )


@dataclass
class TraceStats:
    """Summary statistics of one recorded behavior."""

    workload: str
    exits: int
    reasons: dict[str, int]
    seed_bytes_min: int
    seed_bytes_max: int
    seed_bytes_mean: float
    vmcs_reads_mean: float
    vmwrites_mean: float
    unique_loc: int
    guest_cycles: int
    handler_cycles: int

    def rows(self) -> list[tuple[str, object]]:
        return [
            ("workload", self.workload),
            ("exits", self.exits),
            ("unique LOC covered", self.unique_loc),
            ("seed size (min/mean/max B)",
             f"{self.seed_bytes_min}/{self.seed_bytes_mean:.0f}/"
             f"{self.seed_bytes_max}"),
            ("VMCS reads per seed (mean)",
             f"{self.vmcs_reads_mean:.1f}"),
            ("VMWRITEs per seed (mean)", f"{self.vmwrites_mean:.1f}"),
            ("guest cycles", f"{self.guest_cycles:,}"),
            ("handler cycles", f"{self.handler_cycles:,}"),
        ]


def trace_stats(trace: TraceLike) -> TraceStats:
    """Compute summary statistics for a trace."""
    if not trace.records:
        return TraceStats(
            workload=trace.workload, exits=0, reasons={},
            seed_bytes_min=0, seed_bytes_max=0, seed_bytes_mean=0.0,
            vmcs_reads_mean=0.0, vmwrites_mean=0.0, unique_loc=0,
            guest_cycles=0, handler_cycles=0,
        )
    sizes = [record.seed.size_bytes() for record in trace.records]
    reads = [
        len(record.seed.vmcs_reads()) for record in trace.records
    ]
    writes = [
        len(record.metrics.vmwrites) for record in trace.records
    ]
    lines = CoverageMap.union_all(
        record.metrics.coverage for record in trace.records
    )
    return TraceStats(
        workload=trace.workload,
        exits=len(trace),
        reasons=trace.reason_histogram(),
        seed_bytes_min=min(sizes),
        seed_bytes_max=max(sizes),
        seed_bytes_mean=statistics.mean(sizes),
        vmcs_reads_mean=statistics.mean(reads),
        vmwrites_mean=statistics.mean(writes),
        unique_loc=len(lines),
        guest_cycles=trace.total_guest_cycles(),
        handler_cycles=sum(
            record.metrics.handler_cycles
            for record in trace.records
        ),
    )


@dataclass
class TraceDiff:
    """Comparison of two recorded behaviors."""

    reasons_only_in_a: dict[str, int] = field(default_factory=dict)
    reasons_only_in_b: dict[str, int] = field(default_factory=dict)
    reason_deltas: dict[str, int] = field(default_factory=dict)
    loc_only_in_a: int = 0
    loc_only_in_b: int = 0
    loc_shared: int = 0

    @property
    def coverage_jaccard(self) -> float:
        union = self.loc_only_in_a + self.loc_only_in_b + \
            self.loc_shared
        if union == 0:
            return 1.0
        return self.loc_shared / union


def diff_traces(a: TraceLike, b: TraceLike) -> TraceDiff:
    """Compare exit-reason mixes and coverage of two behaviors."""
    hist_a = a.reason_histogram()
    hist_b = b.reason_histogram()
    diff = TraceDiff()
    for name in set(hist_a) | set(hist_b):
        count_a = hist_a.get(name, 0)
        count_b = hist_b.get(name, 0)
        if count_a and not count_b:
            diff.reasons_only_in_a[name] = count_a
        elif count_b and not count_a:
            diff.reasons_only_in_b[name] = count_b
        elif count_a != count_b:
            diff.reason_deltas[name] = count_b - count_a

    lines_a = CoverageMap.union_all(
        record.metrics.coverage for record in a.records
    )
    lines_b = CoverageMap.union_all(
        record.metrics.coverage for record in b.records
    )
    diff.loc_shared = lines_a.intersection_loc(lines_b)
    diff.loc_only_in_a = len(lines_a.difference(lines_b))
    diff.loc_only_in_b = len(lines_b.difference(lines_a))
    return diff
