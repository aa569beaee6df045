"""Unit tests for the accuracy analysis (Figs. 6, 7, 8)."""

import pytest

from repro.analysis.accuracy import (
    NOISE_LOC_THRESHOLD,
    SeedCoverageDiff,
    cluster_diffs_by_reason,
    coverage_fitting,
    cr0_mode_trajectory,
    per_seed_coverage_diffs,
    vmwrite_fitting,
)
from repro.core.replay import ReplayOutcome, SeedReplayResult
from repro.core.seed import (
    ExitMetrics,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.hypervisor.coverage import CoverageMap
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs_fields import VmcsField
from repro.x86.cpumodes import OperatingMode


def record_of(reason, lines, vmwrites=()):
    return VMExitRecord(
        seed=VMSeed(exit_reason=int(reason)),
        metrics=ExitMetrics(
            vmwrites=list(vmwrites),
            coverage=CoverageMap(lines),
        ),
    )


def result_of(lines, vmwrites=()):
    return SeedReplayResult(
        outcome=ReplayOutcome.OK,
        coverage=CoverageMap(lines),
        vmwrites=list(vmwrites),
    )


class TestCoverageFitting:
    def test_identical_traces_fit_100(self):
        lines = {("a.c", 1), ("a.c", 2)}
        trace = Trace("w", [record_of(ExitReason.RDTSC, lines)])
        fitting = coverage_fitting(trace, [result_of(lines)])
        assert fitting.fitting_pct == 100.0

    def test_partial_fit(self):
        trace = Trace("w", [record_of(
            ExitReason.RDTSC, {("a.c", i) for i in range(10)}
        )])
        fitting = coverage_fitting(
            trace, [result_of({("a.c", i) for i in range(8)})]
        )
        assert fitting.fitting_pct == pytest.approx(80.0)

    def test_curves_are_cumulative(self):
        trace = Trace("w", [
            record_of(ExitReason.RDTSC, {("a.c", 1)}),
            record_of(ExitReason.RDTSC, {("a.c", 1), ("a.c", 2)}),
        ])
        fitting = coverage_fitting(trace, [
            result_of({("a.c", 1)}), result_of({("a.c", 2)}),
        ])
        assert fitting.recording_curve == [1, 2]
        assert fitting.replaying_curve == [1, 2]

    def test_empty_trace_fits_100(self):
        fitting = coverage_fitting(Trace("w", []), [])
        assert fitting.fitting_pct == 100.0


class TestPerSeedDiffs:
    def test_exact_matches_skipped(self):
        lines = {("a.c", 1)}
        trace = Trace("w", [record_of(ExitReason.RDTSC, lines)])
        assert per_seed_coverage_diffs(
            trace, [result_of(lines)]
        ) == []

    def test_diff_reports_loc_and_files(self):
        trace = Trace("w", [record_of(
            ExitReason.RDTSC, {("emulate.c", 1), ("vmx.c", 1)}
        )])
        diffs = per_seed_coverage_diffs(
            trace, [result_of({("vmx.c", 1)})]
        )
        assert len(diffs) == 1
        assert diffs[0].diff_loc == 1
        assert diffs[0].files == ("emulate.c",)
        assert diffs[0].reason == "RDTSC"

    def test_noise_classification(self):
        noise_diff = SeedCoverageDiff(
            index=0, reason="RDTSC", diff_loc=5,
            files=("arch/x86/hvm/vlapic.c",),
        )
        big_diff = SeedCoverageDiff(
            index=1, reason="RDTSC", diff_loc=45,
            files=("arch/x86/hvm/emulate.c",),
        )
        assert noise_diff.is_noise
        assert not big_diff.is_noise

    def test_cluster_by_reason(self):
        diffs = [
            SeedCoverageDiff(0, "RDTSC", 5, ("a.c",)),
            SeedCoverageDiff(1, "RDTSC", 40, ("b.c",)),
            SeedCoverageDiff(2, "CPUID", 2, ("a.c",)),
        ]
        clusters = cluster_diffs_by_reason(diffs)
        assert clusters["RDTSC"].count == 2
        assert clusters["RDTSC"].min_diff == 5
        assert clusters["RDTSC"].max_diff == 40
        assert clusters["RDTSC"].large_count == 1
        assert clusters["RDTSC"].large_frequency(1000) == \
            pytest.approx(0.1)
        assert clusters["CPUID"].large_count == 0

    def test_threshold_is_the_papers(self):
        assert NOISE_LOC_THRESHOLD == 30


class TestVmwriteFitting:
    def test_matching_guest_state_writes_fit_100(self):
        writes = [(VmcsField.GUEST_CR0, 0x11)]
        trace = Trace("w", [record_of(
            ExitReason.CR_ACCESS, set(), vmwrites=writes
        )])
        fitting = vmwrite_fitting(
            trace, [result_of(set(), vmwrites=writes)]
        )
        assert fitting.fitting_pct == 100.0
        assert fitting.seeds_matching == 1

    def test_control_field_writes_ignored(self):
        # Only guest-state writes define the paper's metric.
        trace = Trace("w", [record_of(
            ExitReason.CR_ACCESS, set(),
            vmwrites=[(VmcsField.CPU_BASED_VM_EXEC_CONTROL, 1)],
        )])
        fitting = vmwrite_fitting(trace, [result_of(set())])
        assert fitting.fitting_pct == 100.0

    def test_missing_write_lowers_fitting(self):
        trace = Trace("w", [record_of(
            ExitReason.CR_ACCESS, set(),
            vmwrites=[
                (VmcsField.GUEST_CR0, 0x11),
                (VmcsField.GUEST_RIP, 0x2),
            ],
        )])
        fitting = vmwrite_fitting(trace, [result_of(
            set(), vmwrites=[(VmcsField.GUEST_CR0, 0x11)]
        )])
        assert fitting.fitting_pct == pytest.approx(50.0)
        assert fitting.seeds_matching == 0


class TestCr0Trajectory:
    def test_trace_trajectory(self):
        trace = Trace("w", [
            record_of(ExitReason.CR_ACCESS, set(),
                      vmwrites=[(VmcsField.GUEST_CR0, 0x11)]),
            record_of(ExitReason.CR_ACCESS, set(),
                      vmwrites=[(VmcsField.GUEST_CR0, 0x80000011)]),
        ])
        assert cr0_mode_trajectory(trace) == [
            OperatingMode.MODE2, OperatingMode.MODE3,
        ]

    def test_replay_results_trajectory(self):
        results = [result_of(set(), vmwrites=[
            (VmcsField.GUEST_CR0, 0x11),
            (VmcsField.GUEST_RIP, 0x5),  # ignored
        ])]
        assert cr0_mode_trajectory(results) == [OperatingMode.MODE2]
