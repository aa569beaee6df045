"""Tests for trace tooling and the stats/diff/svm-export CLI."""

import pytest

from repro.core.cli import main
from repro.core.seed import (
    ExitMetrics,
    SeedEntry,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.core.tracetools import (
    diff_traces,
    filter_by_reason,
    merge_traces,
    slice_trace,
    trace_stats,
)
from repro.hypervisor.coverage import CoverageMap
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR


def record_of(reason, lines=(), guest_cycles=100):
    return VMExitRecord(
        seed=VMSeed(exit_reason=int(reason), entries=[
            SeedEntry.for_gpr(GPR.RAX, 0)
        ]),
        metrics=ExitMetrics(
            coverage=CoverageMap(lines),
            guest_cycles=guest_cycles,
            handler_cycles=50,
        ),
    )


@pytest.fixture
def sample_trace():
    return Trace("sample", [
        record_of(ExitReason.RDTSC, [("a.c", 1)]),
        record_of(ExitReason.CPUID, [("a.c", 2)]),
        record_of(ExitReason.RDTSC, [("b.c", 1)]),
        record_of(ExitReason.HLT, [("a.c", 1)]),
    ])


class TestManipulation:
    def test_slice(self, sample_trace):
        part = slice_trace(sample_trace, 1, 3)
        assert len(part) == 2
        assert part.records[0].seed.reason is ExitReason.CPUID

    def test_slice_does_not_alias(self, sample_trace):
        part = slice_trace(sample_trace)
        part.records.pop()
        assert len(sample_trace) == 4

    def test_filter_by_reason(self, sample_trace):
        rdtsc_only = filter_by_reason(sample_trace,
                                      [ExitReason.RDTSC])
        assert len(rdtsc_only) == 2
        assert set(rdtsc_only.reason_histogram()) == {"RDTSC"}

    def test_merge(self, sample_trace):
        merged = merge_traces([sample_trace, sample_trace])
        assert len(merged) == 8
        assert merged.workload == "sample+sample"

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([])


class TestStats:
    def test_stats_fields(self, sample_trace):
        stats = trace_stats(sample_trace)
        assert stats.exits == 4
        assert stats.reasons["RDTSC"] == 2
        assert stats.unique_loc == 3
        assert stats.guest_cycles == 400
        assert stats.seed_bytes_min == stats.seed_bytes_max == 10

    def test_stats_empty_trace(self):
        stats = trace_stats(Trace("empty", []))
        assert stats.exits == 0
        assert stats.unique_loc == 0

    def test_rows_render(self, sample_trace):
        rows = trace_stats(sample_trace).rows()
        assert any("unique LOC" in str(name) for name, _ in rows)


class TestDiff:
    def test_identical_traces(self, sample_trace):
        diff = diff_traces(sample_trace, sample_trace)
        assert diff.coverage_jaccard == 1.0
        assert not diff.reasons_only_in_a
        assert not diff.reason_deltas

    def test_disjoint_reasons(self, sample_trace):
        other = Trace("other", [
            record_of(ExitReason.VMCALL, [("c.c", 1)]),
        ])
        diff = diff_traces(sample_trace, other)
        assert "VMCALL" in diff.reasons_only_in_b
        assert "HLT" in diff.reasons_only_in_a
        assert diff.loc_shared == 0
        assert diff.coverage_jaccard == 0.0

    def test_count_deltas(self, sample_trace):
        other = Trace("other", [
            record_of(ExitReason.RDTSC, [("a.c", 1)]),
        ] * 5)
        diff = diff_traces(sample_trace, other)
        assert diff.reason_deltas["RDTSC"] == 3


class TestCliCommands:
    @pytest.fixture
    def trace_file(self, tmp_path, sample_trace):
        path = tmp_path / "t.iris"
        sample_trace.save(path)
        return str(path)

    def test_stats_command(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "unique LOC" in out
        assert "RDTSC" in out

    def test_diff_command(self, trace_file, capsys):
        assert main(["diff", trace_file, trace_file]) == 0
        assert "Jaccard" in capsys.readouterr().out

    def test_svm_export_command(self, trace_file, capsys):
        assert main(["svm-export", trace_file]) == 0
        out = capsys.readouterr().out
        assert "entry coverage" in out
        assert "SVM/VMCB" in out