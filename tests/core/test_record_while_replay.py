"""Tests for the record-while-replay mode (paper §IV-C).

"The IRIS manager allows enabling the replay mode together with the
record mode enabled to store metrics while replaying. This latter is
necessary to evaluate the accuracy and efficiency of recorded/crafted
VM seeds which are submitted via the replay mode."
"""

import pytest

from repro.vmx.exit_reasons import ExitReason


class TestMetricsTrace:
    def test_metrics_trace_attached(self, cpu_session):
        manager, session = cpu_session
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
            record_metrics=True,
        )
        assert replay.metrics_trace is not None
        assert len(replay.metrics_trace) == len(session.trace)

    def test_metrics_trace_absent_when_disabled(self, cpu_session):
        manager, session = cpu_session
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
            record_metrics=False,
        )
        assert replay.metrics_trace is None

    def test_metrics_only_no_seeds(self, cpu_session):
        # The alongside-recorder runs with store_seeds off: the product
        # is metrics, not a second seed corpus.
        manager, session = cpu_session
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
        )
        assert all(
            record.seed.entries == []
            for record in replay.metrics_trace.records
        )

    def test_recorded_reasons_are_the_replayed_ones(self, cpu_session):
        # The recorder sees the *overridden* exit reason: replaying a
        # RDTSC seed over a preemption-timer exit records RDTSC.
        manager, session = cpu_session
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
        )
        assert replay.metrics_trace.reasons() == \
            session.trace.reasons()
        assert ExitReason.PREEMPTION_TIMER not in \
            replay.metrics_trace.reasons()

    def test_replayed_metrics_match_replayer_observations(
        self, cpu_session
    ):
        manager, session = cpu_session
        replay = manager.replay_trace(
            session.trace, from_snapshot=session.snapshot,
        )
        for result, record in zip(replay.results,
                                  replay.metrics_trace.records):
            assert record.metrics.coverage == result.coverage
            assert record.metrics.vmwrites == result.vmwrites