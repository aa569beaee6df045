"""Accuracy analysis: coverage fitting, per-seed diffs, VMWRITE fitting
(paper §VI-B, Figs. 6, 7, 8)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.replay import SeedReplayResult
from repro.core.tracestore import TraceLike
from repro.hypervisor.coverage import NOISE_FILES, CoverageMap
from repro.vmx.exit_reasons import reason_name
from repro.arch.fields import GUEST_STATE_FIELDS, ArchField
from repro.x86.cpumodes import OperatingMode, mode_transitions

#: The paper's threshold separating asynchronous-event noise from
#: genuine (memory-linked) replay divergence (§VI-B).
NOISE_LOC_THRESHOLD = 30


@dataclass
class CoverageFitting:
    """Fig. 6's summary numbers plus the cumulative curves."""

    recorded_loc: int
    replayed_loc: int
    intersection_loc: int
    recording_curve: list[int]
    replaying_curve: list[int]

    @property
    def fitting_pct(self) -> float:
        if self.recorded_loc == 0:
            return 100.0
        return 100.0 * self.intersection_loc / self.recorded_loc


def coverage_fitting(
    trace: TraceLike, results: list[SeedReplayResult]
) -> CoverageFitting:
    """Compare recorded vs replayed cumulative coverage (Fig. 6)."""
    recorded = CoverageMap()
    recording_curve = []
    for record in trace.records:
        recorded.merge(record.metrics.coverage)
        recording_curve.append(len(recorded))

    replayed = CoverageMap()
    replaying_curve = []
    for result in results:
        replayed.merge(result.coverage)
        replaying_curve.append(len(replayed))

    return CoverageFitting(
        recorded_loc=len(recorded),
        replayed_loc=len(replayed),
        intersection_loc=recorded.intersection_loc(replayed),
        recording_curve=recording_curve,
        replaying_curve=replaying_curve,
    )


@dataclass(frozen=True)
class SeedCoverageDiff:
    """Per-seed record/replay coverage difference (one Fig. 7 point)."""

    index: int
    reason: str
    diff_loc: int
    files: tuple[str, ...]

    @property
    def is_noise(self) -> bool:
        """1-30 LOC differences rooted in vlapic/irq/vpt (§VI-B).

        The asynchronous components' activity drags a few injection
        blocks (vmx.c/intr.c) along with it, so "noise" means the
        difference *involves* a noise component, not that it is
        confined to one.
        """
        return (
            self.diff_loc <= NOISE_LOC_THRESHOLD
            and any(f in NOISE_FILES for f in self.files)
        )


def per_seed_coverage_diffs(
    trace: TraceLike, results: list[SeedReplayResult]
) -> list[SeedCoverageDiff]:
    """Symmetric per-seed coverage differences, skipping exact matches."""
    diffs: list[SeedCoverageDiff] = []
    for index, (record, result) in enumerate(
        zip(trace.records, results)
    ):
        delta = record.metrics.coverage.symmetric_difference(
            result.coverage
        )
        if not delta:
            continue
        diffs.append(SeedCoverageDiff(
            index=index,
            reason=reason_name(record.seed.exit_reason),
            diff_loc=len(delta),
            files=tuple(sorted(delta.bitmaps())),
        ))
    return diffs


@dataclass
class ReasonDiffCluster:
    """Fig. 7's per-exit-reason clustering of coverage differences."""

    reason: str
    count: int = 0
    min_diff: int = 0
    max_diff: int = 0
    large_count: int = 0  # diffs beyond the noise threshold

    def large_frequency(self, total_seeds: int) -> float:
        """The paper's 0.36%/0.18%/1.16% metric."""
        return 100.0 * self.large_count / max(total_seeds, 1)


def cluster_diffs_by_reason(
    diffs: list[SeedCoverageDiff],
) -> dict[str, ReasonDiffCluster]:
    clusters: dict[str, ReasonDiffCluster] = {}
    for diff in diffs:
        cluster = clusters.get(diff.reason)
        if cluster is None:
            cluster = ReasonDiffCluster(
                reason=diff.reason,
                min_diff=diff.diff_loc, max_diff=diff.diff_loc,
            )
            clusters[diff.reason] = cluster
        cluster.count += 1
        cluster.min_diff = min(cluster.min_diff, diff.diff_loc)
        cluster.max_diff = max(cluster.max_diff, diff.diff_loc)
        if diff.diff_loc > NOISE_LOC_THRESHOLD:
            cluster.large_count += 1
    return clusters


@dataclass
class VmwriteFitting:
    """Guest-state VMWRITE accuracy (the Fig. 8 companion metric)."""

    seeds_compared: int
    seeds_matching: int
    total_writes_recorded: int
    total_writes_matched: int

    @property
    def fitting_pct(self) -> float:
        if self.total_writes_recorded == 0:
            return 100.0
        return (
            100.0 * self.total_writes_matched
            / self.total_writes_recorded
        )


def _guest_state_writes(
    writes: list[tuple[ArchField, int]]
) -> list[tuple[ArchField, int]]:
    return [(f, v) for f, v in writes if f in GUEST_STATE_FIELDS]


def vmwrite_fitting(
    trace: TraceLike, results: list[SeedReplayResult]
) -> VmwriteFitting:
    """Compare guest-state VMWRITE sequences, seed by seed."""
    seeds_matching = 0
    total_recorded = 0
    total_matched = 0
    compared = 0
    for record, result in zip(trace.records, results):
        compared += 1
        recorded = _guest_state_writes(record.metrics.vmwrites)
        replayed = _guest_state_writes(result.vmwrites)
        total_recorded += len(recorded)
        matched = sum(
            1 for pair in recorded if pair in replayed
        )
        total_matched += matched
        if recorded == replayed:
            seeds_matching += 1
    return VmwriteFitting(
        seeds_compared=compared,
        seeds_matching=seeds_matching,
        total_writes_recorded=total_recorded,
        total_writes_matched=total_matched,
    )


def cr0_mode_trajectory(
    source: TraceLike | list[SeedReplayResult],
) -> list[OperatingMode]:
    """The Fig. 8 ladder: operating modes implied by CR0 VMWRITEs."""
    cr0_values: list[int] = []
    # Replay results arrive as a plain list; anything trace-shaped
    # (in-RAM Trace or lazy TraceReader) goes through .records.
    if isinstance(source, list):
        for result in source:
            cr0_values.extend(
                v for f, v in result.vmwrites
                if f is ArchField.GUEST_CR0
            )
    else:
        for record in source.records:
            cr0_values.extend(record.metrics.cr0_writes())
    return mode_transitions(cr0_values)
