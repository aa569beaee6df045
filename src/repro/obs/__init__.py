"""``repro.obs`` — structured tracing, metrics and profiling.

The observability substrate the rest of the stack reports into
(DESIGN.md §7).  The active (tracer, metrics) pair lives in one
:class:`contextvars.ContextVar`, :data:`ACTIVE`, whose default is the
null pair; :data:`OBS` is the read-only view every instrumentation
site goes through (``OBS.metrics.enabled`` / ``OBS.tracer.enabled``),
so disabled observability costs one context lookup per site and
nothing else.

Usage::

    from repro.obs import MetricsRegistry, Tracer, observability

    with observability(tracer=Tracer(), metrics=MetricsRegistry()) as o:
        manager.record_workload("idle", n_exits=100)
    print(o.metrics.snapshot().counter_total("exits_handled"))

:func:`observability` sets the pair on entry and resets it on exit, so
nested scopes (a campaign shard inside an instrumented CLI run)
compose.  A scope is confined to its context: a new thread starts from
the null pair, and sees an enclosing scope only when it is started
inside a copy of that context (``contextvars.copy_context().run``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Union

from repro.obs.flight import (
    FlightReport,
    flight_report,
    flight_summary,
    summarize_trace_events,
)
from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NullMetrics,
    bucket_of,
    labels_key,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    load_trace_events,
)

__all__ = [
    "ACTIVE",
    "FlightReport",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "OBS",
    "ObsState",
    "TraceEvent",
    "Tracer",
    "bucket_of",
    "flight_report",
    "flight_summary",
    "labels_key",
    "load_trace_events",
    "observability",
    "summarize_trace_events",
]

AnyTracer = Union[Tracer, NullTracer]
AnyMetrics = Union[MetricsRegistry, NullMetrics]

#: The active (tracer, metrics) pair of the current context.
ACTIVE: ContextVar[tuple[AnyTracer, AnyMetrics]] = ContextVar(
    "repro.obs.active", default=(NULL_TRACER, NULL_METRICS)
)


class ObsState:
    """Read-only view of the current context's observability pair."""

    __slots__ = ()

    @property
    def tracer(self) -> AnyTracer:
        return ACTIVE.get()[0]

    @property
    def metrics(self) -> AnyMetrics:
        return ACTIVE.get()[1]


#: The singleton every instrumentation site reads.
OBS = ObsState()


class ObsScope:
    """What :func:`observability` yields: the active pair."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: AnyTracer, metrics: AnyMetrics) -> None:
        self.tracer = tracer
        self.metrics = metrics


@contextmanager
def observability(
    tracer: AnyTracer | None = None,
    metrics: AnyMetrics | None = None,
) -> Iterator[ObsScope]:
    """Scoped set: swap in either half of the pair (``None`` keeps the
    current one), yield the active pair, reset on exit."""
    current_tracer, current_metrics = ACTIVE.get()
    pair = (
        current_tracer if tracer is None else tracer,
        current_metrics if metrics is None else metrics,
    )
    token = ACTIVE.set(pair)
    try:
        yield ObsScope(*pair)
    finally:
        ACTIVE.reset(token)
