"""Unit tests for the tracer, the context-scoped OBS pair, and the
flight recorder rendering."""

from __future__ import annotations

import contextvars
import io
import sys
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    OBS,
    TraceEvent,
    Tracer,
    flight_report,
    flight_summary,
    load_trace_events,
    observability,
    summarize_trace_events,
)


# ---- tracer mechanics -------------------------------------------------

def test_events_are_sequenced_and_timestamped():
    tracer = Tracer()
    now = {"tsc": 100}
    tracer.bind_clock(lambda: now["tsc"])
    tracer.event("a", x=1)
    now["tsc"] = 250
    tracer.event("b")
    events = tracer.events()
    assert [e.seq for e in events] == [0, 1]
    assert [e.tsc for e in events] == [100, 250]
    assert events[0].field("x") == 1


def test_span_emits_start_end_with_back_reference():
    tracer = Tracer()
    with tracer.span("outer", k="v"):
        tracer.event("inside")
    kinds = [(e.kind, e.name) for e in tracer.events()]
    assert kinds == [
        ("span-start", "outer"), ("event", "inside"),
        ("span-end", "outer"),
    ]
    end = tracer.events()[-1]
    assert end.field("span") == 0


def test_span_closes_on_exception():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert tracer.events()[-1].kind == "span-end"


def test_ring_eviction_keeps_newest_and_counts_drops():
    tracer = Tracer(ring_size=3)
    for i in range(5):
        tracer.event(f"e{i}")
    assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]
    assert tracer.dropped == 2


def test_sink_receives_all_events_despite_eviction():
    sink = io.StringIO()
    tracer = Tracer(ring_size=2, sink=sink)
    for i in range(4):
        tracer.event(f"e{i}")
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == 4
    assert TraceEvent.from_json(lines[0]).name == "e0"


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("s", a=1):
        tracer.event("e", b="two")
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    events = load_trace_events(str(path))
    assert events == tracer.events()


def test_default_trace_has_no_wall_clock():
    tracer = Tracer()
    tracer.event("e")
    assert tracer.events()[0].wall is None
    wall_tracer = Tracer(wall_clock=True)
    wall_tracer.event("e")
    assert wall_tracer.events()[0].wall is not None


# ---- the context-scoped OBS pair --------------------------------------

def test_defaults_are_null_and_disabled():
    assert OBS.tracer is NULL_TRACER
    assert OBS.metrics is NULL_METRICS
    assert not OBS.tracer.enabled
    assert not OBS.metrics.enabled
    # the null implementations are inert
    with OBS.tracer.span("x"):
        OBS.tracer.event("y")
    OBS.metrics.inc("c")
    OBS.metrics.observe("h", 1)
    assert OBS.metrics.snapshot().counters == ()


def test_observability_scope_installs_and_restores():
    tracer, metrics = Tracer(), MetricsRegistry()
    with observability(tracer=tracer, metrics=metrics) as scope:
        assert OBS.tracer is tracer and OBS.metrics is metrics
        assert scope.tracer is tracer and scope.metrics is metrics
        # nested scope restores the outer one, not the null default
        inner = MetricsRegistry()
        with observability(metrics=inner):
            assert OBS.metrics is inner
            assert OBS.tracer is tracer  # unchanged
        assert OBS.metrics is metrics
    assert OBS.tracer is NULL_TRACER
    assert OBS.metrics is NULL_METRICS


def test_scope_restores_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with observability(tracer=tracer):
            assert OBS.tracer is tracer
            raise RuntimeError("x")
    assert OBS.tracer is NULL_TRACER


def test_new_thread_starts_from_the_null_pair():
    seen = {}

    def probe():
        seen["pair"] = (OBS.tracer, OBS.metrics)

    with observability(tracer=Tracer(), metrics=MetricsRegistry()):
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert seen["pair"] == (NULL_TRACER, NULL_METRICS)


def test_hermetic_scope_is_confined_to_its_thread():
    """While thread A holds a hermetic scope, thread B's increments
    reach the ambient registry and never A's snapshot."""
    ambient, hermetic = MetricsRegistry(), MetricsRegistry()
    a_in_scope, b_done = threading.Event(), threading.Event()

    def thread_a():
        with observability(metrics=hermetic):
            OBS.metrics.inc("shard_work")
            a_in_scope.set()
            b_done.wait(timeout=10)
            OBS.metrics.inc("shard_work")
        OBS.metrics.inc("after_scope")

    def thread_b():
        a_in_scope.wait(timeout=10)
        OBS.metrics.inc("transport_frames", value=3)
        b_done.set()

    with observability(metrics=ambient):
        # Both threads start inside a copy of the ambient context, as
        # the socket transport's driver threads do.
        threads = [
            threading.Thread(target=contextvars.copy_context().run,
                             args=(fn,))
            for fn in (thread_a, thread_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert hermetic.snapshot().counter_total("shard_work") == 2
    assert hermetic.snapshot().counter_total("transport_frames") == 0
    assert hermetic.snapshot().counter_total("after_scope") == 0
    assert ambient.snapshot().counter_total("transport_frames") == 3
    assert ambient.snapshot().counter_total("after_scope") == 1
    assert ambient.snapshot().counter_total("shard_work") == 0


def test_concurrent_hermetic_scopes_stay_exact():
    """More threads than cores, each in its own hermetic scope, with a
    short switch interval: every registry counts exactly its own
    thread's increments, and the ambient registry none of them."""
    n_threads, n_incs = 8, 2000
    ambient = MetricsRegistry()
    registries = [MetricsRegistry() for _ in range(n_threads)]

    def shard(registry):
        with observability(tracer=NULL_TRACER, metrics=registry):
            for _ in range(n_incs):
                OBS.metrics.inc("work")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with observability(metrics=ambient):
            threads = [
                threading.Thread(target=contextvars.copy_context().run,
                                 args=(shard, registry))
                for registry in registries
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [r.snapshot().counter_total("work") for r in registries] \
        == [n_incs] * n_threads
    assert ambient.snapshot().counter_total("work") == 0


# ---- flight recorder --------------------------------------------------

def _busy_snapshot():
    registry = MetricsRegistry(record_wall=False)
    registry.inc("exits_handled", value=7, reason="RDTSC", arch="vmx")
    registry.inc("exits_recorded", value=5, reason="RDTSC")
    registry.inc("seeds_replayed", value=3, outcome="ok")
    registry.inc("replay_divergence", value=2, field="GUEST_RIP")
    registry.inc("crashes", kind="vm-crash", reason="RDTSC")
    for cycles in (100, 900, 64):
        registry.observe("exit_cycles", cycles, reason="RDTSC")
    registry.observe("exit_cycles", 5000, reason="CPUID")
    return registry.snapshot()


def test_flight_report_contents():
    report = flight_report(_busy_snapshot())
    assert report.exits_handled == 7
    assert report.exits_recorded == 5
    assert report.seeds_replayed == 3
    # slowest first (by max cycles)
    assert report.slowest_exits[0][0] == "CPUID"
    assert report.divergences == [("GUEST_RIP", 2)]
    assert report.crash_hot_spots == [("vm-crash@RDTSC", 1)]


def test_flight_summary_renders_sections():
    text = flight_summary(_busy_snapshot())
    assert "campaign flight recorder" in text
    assert "CPUID" in text
    assert "GUEST_RIP" in text
    assert "vm-crash@RDTSC" in text


def test_flight_report_surfaces_differential_counters():
    registry = MetricsRegistry(record_wall=False)
    registry.inc("differential_seeds_compared", value=48)
    registry.inc("differential_untranslatable_seeds", value=6)
    registry.inc("differential_divergences", value=2)
    report = flight_report(registry.snapshot())
    assert report.differential_seeds_compared == 48
    assert report.differential_untranslatable == 6
    assert report.differential_divergences == 2
    text = report.render()
    assert (
        "differential oracle: 2 divergence(s) from 48 seed(s) "
        "compared (6 untranslatable)" in text
    )


def test_flight_report_hides_differential_line_when_unused():
    text = flight_summary(_busy_snapshot())
    assert "differential oracle" not in text


def test_summarize_trace_events_tallies_and_spans():
    tracer = Tracer()
    now = {"tsc": 0}
    tracer.bind_clock(lambda: now["tsc"])
    with tracer.span("work"):
        now["tsc"] = 500
        tracer.event("tick")
    text = summarize_trace_events(tracer.events())
    assert "3 trace events" in text
    assert "work" in text and "tick" in text
    assert "500" in text  # the span's simulated duration
