"""Unit tests for efficiency analysis, distributions, and renderers."""

import pytest

from repro.analysis.distributions import (
    reason_distribution,
    reason_percentages,
    timeline_distribution,
)
from repro.analysis.efficiency import (
    compare_timing,
    ideal_throughput_gap,
    recording_overhead,
    repeated_timing_significance,
)
from repro.analysis.report import (
    render_histogram,
    render_series,
    render_table,
)
from repro.core.seed import ExitMetrics, Trace, VMExitRecord, VMSeed
from repro.vmx.exit_reasons import ExitReason


def trace_of(*reason_cycles):
    records = [
        VMExitRecord(
            seed=VMSeed(exit_reason=int(reason)),
            metrics=ExitMetrics(
                guest_cycles=cycles, handler_cycles=1000
            ),
        )
        for reason, cycles in reason_cycles
    ]
    return Trace("w", records)


class TestTimingComparison:
    def test_paper_cpu_bound_numbers(self):
        # Fig. 9b: 0.21 s replay vs 1.44 s real = 85.4% decrease.
        cmp = compare_timing("CPU-bound", 1.44, 0.21, 5000)
        assert cmp.percentage_decrease == pytest.approx(85.4, abs=0.1)
        assert cmp.speedup == pytest.approx(6.86, abs=0.01)
        assert cmp.replay_throughput == pytest.approx(23_809, abs=1)

    def test_paper_idle_numbers(self):
        cmp = compare_timing("IDLE", 62.61, 0.22, 5000)
        assert cmp.percentage_decrease == pytest.approx(99.6, abs=0.1)
        assert cmp.speedup == pytest.approx(284.6, abs=1)

    def test_zero_real_time(self):
        assert compare_timing("x", 0, 1, 10).percentage_decrease == 0


class TestOverheadAndGap:
    def test_recording_overhead(self):
        report = recording_overhead("CPU-bound",
                                    [100, 102, 98], [101, 103, 99])
        assert report.percentage_increase == pytest.approx(1.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            recording_overhead("x", [], [1])

    def test_ideal_gap_paper_numbers(self):
        # §VI-C: 18,518 exits/s vs 50K ideal = 63% difference.
        gap = ideal_throughput_gap(50_000, 18_518)
        assert gap.percentage_difference == pytest.approx(63, abs=1)

    def test_significance_on_disjoint_samples(self):
        p = repeated_timing_significance(
            [1.4, 1.45, 1.43, 1.44], [0.2, 0.21, 0.22, 0.21]
        )
        assert p < 0.05  # the paper's significance criterion

    #: Two-sided p-values from scipy 1.17.1's
    #: ``mannwhitneyu(x, y, alternative="two-sided")``.
    @pytest.mark.parametrize("real, replay, expected", [
        # exact: no ties, smaller sample <= 8
        ([1.4, 1.45, 1.43, 1.44], [0.2, 0.21, 0.22, 0.21],
         0.029401048190339642),
        ([1, 2, 3, 4, 5], [3.5, 6, 7, 8], 0.06349206349206349),
        ([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], 0.7),
        # normal approximation: both samples > 8
        (list(range(15)), [v + 3.5 for v in range(15)],
         0.05639236422683157),
        ([0.1 * i for i in range(9)],
         [0.1 * i + 0.05 for i in range(10)], 0.48766835345893045),
        # normal approximation with tie correction
        ([1, 1, 2, 3], [2, 3, 3, 4, 5], 0.07854585095119067),
        ([5, 5, 5], [5, 5, 5], 1.0),
    ])
    def test_significance_matches_scipy(self, real, replay, expected):
        assert repeated_timing_significance(real, replay) == \
            pytest.approx(expected, rel=1e-12)

    def test_significance_needs_samples(self):
        with pytest.raises(ValueError):
            repeated_timing_significance([1.0], [2.0])


class TestDistributions:
    def test_reason_distribution(self):
        trace = trace_of(
            (ExitReason.RDTSC, 10), (ExitReason.RDTSC, 10),
            (ExitReason.HLT, 10),
        )
        assert reason_distribution(trace) == {"RDTSC": 2, "HLT": 1}

    def test_reason_percentages_sum_to_100(self):
        trace = trace_of(
            (ExitReason.RDTSC, 10), (ExitReason.HLT, 10),
        )
        percentages = reason_percentages(trace)
        assert sum(percentages.values()) == pytest.approx(100.0)

    def test_timeline_assigns_by_time_not_index(self):
        # Many fast exits followed by one long-gap exit: the fast ones
        # all complete in the first time slice, the slow one in the
        # last — even though it is 1 of 10 by index.
        trace = trace_of(
            *[(ExitReason.RDTSC, 10)] * 9,
            (ExitReason.HLT, 1_000_000),
        )
        buckets = timeline_distribution(trace, buckets=2)
        assert buckets[0] == {"RDTSC": 9}
        assert buckets[1] == {"HLT": 1}

    def test_empty_trace(self):
        buckets = timeline_distribution(Trace("w", []), buckets=3)
        assert buckets == [{}, {}, {}]

    def test_bucket_count_validated(self):
        with pytest.raises(ValueError):
            timeline_distribution(Trace("w", []), buckets=0)


class TestRenderers:
    def test_table_alignment(self):
        text = render_table(
            ["name", "value"], [("a", 1), ("long-name", 22)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text
        assert "---" in lines[2]

    def test_histogram_sorted_and_percented(self):
        text = render_histogram({"A": 1, "B": 3})
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("B")
        assert "75.0%" in lines[0]

    def test_histogram_empty(self):
        assert render_histogram({}, title="t") == "t"

    def test_series_downsamples(self):
        text = render_series({"cov": list(range(100))}, points=5)
        assert "99" in text  # final value always shown

    def test_series_empty(self):
        assert "(empty)" in render_series({"x": []})
