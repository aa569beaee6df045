"""Efficiency analysis: replay speed and recording overhead
(paper §VI-C/§VI-D, Figs. 9 and 10)."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass
class TimingComparison:
    """One Fig. 9 panel: real guest execution vs IRIS replay."""

    workload: str
    real_seconds: float
    replay_seconds: float
    exits: int

    @property
    def percentage_decrease(self) -> float:
        """The paper's headline metric (42.5% / 85.4% / 99.6%)."""
        if self.real_seconds <= 0:
            return 0.0
        return 100.0 * (1 - self.replay_seconds / self.real_seconds)

    @property
    def speedup(self) -> float:
        """The 6.8x / 294x factors."""
        if self.replay_seconds <= 0:
            return float("inf")
        return self.real_seconds / self.replay_seconds

    @property
    def replay_throughput(self) -> float:
        """Exits replayed per second."""
        if self.replay_seconds <= 0:
            return float("inf")
        return self.exits / self.replay_seconds


def compare_timing(
    workload: str,
    real_seconds: float,
    replay_seconds: float,
    exits: int,
) -> TimingComparison:
    return TimingComparison(
        workload=workload, real_seconds=real_seconds,
        replay_seconds=replay_seconds, exits=exits,
    )


@dataclass
class OverheadReport:
    """Fig. 10: per-exit handler time with vs without recording."""

    workload: str
    median_cycles_off: float
    median_cycles_on: float
    samples: int

    @property
    def percentage_increase(self) -> float:
        """The paper's 1.02%-1.25% band."""
        if self.median_cycles_off <= 0:
            return 0.0
        return 100.0 * (
            self.median_cycles_on / self.median_cycles_off - 1
        )


def recording_overhead(
    workload: str,
    cycles_without: list[int],
    cycles_with: list[int],
) -> OverheadReport:
    """Summarize per-exit handler-cycle samples (median of runs)."""
    if not cycles_without or not cycles_with:
        raise ValueError("need samples from both configurations")
    return OverheadReport(
        workload=workload,
        median_cycles_off=statistics.median(cycles_without),
        median_cycles_on=statistics.median(cycles_with),
        samples=min(len(cycles_without), len(cycles_with)),
    )


@dataclass
class IdealGap:
    """§VI-C: measured replay throughput vs the empty-exit upper bound."""

    ideal_exits_per_second: float
    measured_exits_per_second: float

    @property
    def percentage_difference(self) -> float:
        """The 63% / 52% / 55% gaps the paper reports."""
        if self.ideal_exits_per_second <= 0:
            return 0.0
        return 100.0 * (
            1 - self.measured_exits_per_second
            / self.ideal_exits_per_second
        )


def ideal_throughput_gap(
    ideal_exits_per_second: float,
    measured_exits_per_second: float,
) -> IdealGap:
    return IdealGap(
        ideal_exits_per_second=ideal_exits_per_second,
        measured_exits_per_second=measured_exits_per_second,
    )


def repeated_timing_significance(
    real_samples: list[float], replay_samples: list[float]
) -> float:
    """p-value that replay times differ from real-execution times.

    The paper runs each comparison 15 times and reports p < 0.05.  The
    test is a two-sided Mann-Whitney U, computed as scipy's
    ``mannwhitneyu(method="auto")`` does: the exact null distribution
    when there are no ties and the smaller sample has at most 8
    values, otherwise the normal approximation with tie and continuity
    correction.
    """
    if len(real_samples) < 2 or len(replay_samples) < 2:
        raise ValueError("need at least two samples per condition")
    n1, n2 = len(real_samples), len(replay_samples)
    pooled = sorted(real_samples + replay_samples)
    # Average (1-based) rank of each distinct value, and tie sizes.
    rank_of: dict[float, float] = {}
    ties: list[int] = []
    start = 0
    while start < len(pooled):
        end = start
        while end < len(pooled) and pooled[end] == pooled[start]:
            end += 1
        rank_of[pooled[start]] = (start + 1 + end) / 2
        ties.append(end - start)
        start = end
    u1 = sum(rank_of[v] for v in real_samples) - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if min(n1, n2) <= 8 and max(ties) == 1:
        # P(U >= u) = P(U <= n1*n2 - u) by symmetry.
        p = 2 * _exact_u_cdf(round(n1 * n2 - u), n1, n2)
    else:
        n = n1 + n2
        tie_term = sum(t**3 - t for t in ties)
        sigma = math.sqrt(
            n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
        )
        if sigma == 0:
            return 1.0
        z = (u - n1 * n2 / 2 - 0.5) / sigma
        p = math.erfc(z / math.sqrt(2))  # 2 x the normal upper tail
    return min(p, 1.0)


def _exact_u_cdf(u: int, n1: int, n2: int) -> float:
    """P(U <= u) under the null hypothesis, for samples of n1 and n2.

    The counts of U are the coefficients of the Gaussian binomial
    ``[n1 + n2 choose n1]_q = prod_i (1 - q^(n2+i)) / (1 - q^i)``,
    built one factor at a time and truncated at degree ``u``.
    """
    small, large = min(n1, n2), max(n1, n2)
    counts = [1] + [0] * u
    for i in range(1, small + 1):
        step = large + i
        for k in range(u, step - 1, -1):
            counts[k] -= counts[k - step]
        for k in range(i, u + 1):
            counts[k] += counts[k - i]
    return sum(counts) / math.comb(n1 + n2, n1)
