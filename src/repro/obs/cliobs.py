"""Shared ``--trace`` / ``--metrics`` wiring for the CLIs.

Every front-end (``iris record/replay/evaluate``, ``iris-fuzz``) takes
the same two flags and the same lifecycle: install observability
*before* the first :class:`IrisManager` is built (the tracer's clock is
bound at hypervisor construction), run the command, then flush the
JSONL trace and the metrics-snapshot JSON on the way out.  This module
is that lifecycle, once.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from typing import Iterator, TextIO

from repro.obs import observability
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracer import Tracer


def add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trace FILE`` / ``--metrics FILE`` to a subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", dest="trace_out", metavar="FILE", default=None,
        help="write a structured JSONL trace of this run "
             "(inspect with 'iris trace FILE')",
    )
    group.add_argument(
        "--metrics", dest="metrics_out", metavar="FILE", default=None,
        help="write a deterministic metrics snapshot (JSON)",
    )


class CliObs:
    """The active observability session a command runs inside.

    Commands that delegate work to hermetic shards (``iris-fuzz`` with
    a :class:`~repro.fuzz.parallel.ParallelCampaign`) feed the merged
    shard snapshot back through :meth:`add_snapshot`; the final JSON is
    the ambient registry's snapshot merged with every added one.
    """

    def __init__(
        self,
        tracer: Tracer | None,
        metrics: MetricsRegistry | None,
        trace_path: str | None,
        metrics_path: str | None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self._extra: list[MetricsSnapshot] = []

    @property
    def wants_metrics(self) -> bool:
        return self.metrics is not None

    def add_snapshot(self, snapshot: MetricsSnapshot | None) -> None:
        if snapshot is not None:
            self._extra.append(snapshot)

    def final_snapshot(self) -> MetricsSnapshot:
        base = (
            self.metrics.snapshot() if self.metrics is not None
            else MetricsSnapshot.empty()
        )
        return MetricsSnapshot.merge_all([base, *self._extra])


@contextmanager
def cli_observability(args: argparse.Namespace) -> Iterator[CliObs | None]:
    """Scoped observability for one CLI command.

    Yields ``None`` when neither flag was given (the zero-cost path);
    otherwise sets the tracer/registry for the command's context (and
    the threads it starts in a copy of that context) for its duration
    and writes the output files on exit — including
    the error path, so a crashed run still leaves its flight data.
    """
    trace_path = getattr(args, "trace_out", None)
    metrics_path = getattr(args, "metrics_out", None)
    if trace_path is None and metrics_path is None:
        yield None
        return

    sink: TextIO | None = None
    tracer = None
    if trace_path is not None:
        sink = open(trace_path, "w", encoding="utf-8")
        tracer = Tracer(sink=sink)
    metrics = MetricsRegistry() if metrics_path is not None else None
    obs = CliObs(tracer, metrics, trace_path, metrics_path)
    try:
        with observability(tracer=tracer, metrics=metrics):
            yield obs
    finally:
        if sink is not None:
            sink.close()
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(obs.final_snapshot().to_json() + "\n")
