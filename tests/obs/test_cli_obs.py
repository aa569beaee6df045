"""CLI-level observability tests: the ``--trace``/``--metrics`` flags
and the ``iris trace`` inspection subcommand."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.cli import main as iris_main
from repro.fuzz.cli import main as fuzz_main
from repro.obs import MetricsSnapshot, load_trace_events


def test_record_writes_trace_and_metrics(tmp_path, capsys):
    trace_file = tmp_path / "run.jsonl"
    metrics_file = tmp_path / "run.json"
    rc = iris_main([
        "record", "-w", "idle", "-n", "50",
        "-o", str(tmp_path / "t.iris"),
        "--trace", str(trace_file), "--metrics", str(metrics_file),
    ])
    assert rc == 0
    events = load_trace_events(str(trace_file))
    assert any(e.name == "iris.record" for e in events)
    assert any(e.name == "vmexit" for e in events)
    snap = MetricsSnapshot.from_json(metrics_file.read_text())
    assert snap.counter_total("exits_recorded") == 50
    assert snap.counter("sessions", kind="record", arch="vmx") == 1


def test_evaluate_metrics_cover_both_phases(tmp_path, capsys):
    metrics_file = tmp_path / "eval.json"
    rc = iris_main([
        "evaluate", "-w", "idle", "-n", "40",
        "--metrics", str(metrics_file),
    ])
    assert rc == 0
    snap = MetricsSnapshot.from_json(metrics_file.read_text())
    assert snap.counter("sessions", kind="record", arch="vmx") == 1
    assert snap.counter("sessions", kind="replay", arch="vmx") == 1
    assert snap.counter_total("seeds_replayed") == 40


def test_iris_trace_summarizes_event_trace(tmp_path, capsys):
    trace_file = tmp_path / "run.jsonl"
    iris_main([
        "record", "-w", "idle", "-n", "30",
        "-o", str(tmp_path / "t.iris"), "--trace", str(trace_file),
    ])
    capsys.readouterr()
    assert iris_main(["trace", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "trace events" in out
    assert "iris.record" in out
    assert "span durations" in out


def test_iris_trace_renders_flight_recorder_for_metrics(
    tmp_path, capsys
):
    metrics_file = tmp_path / "run.json"
    iris_main([
        "evaluate", "-w", "idle", "-n", "30",
        "--metrics", str(metrics_file),
    ])
    capsys.readouterr()
    assert iris_main(["trace", str(metrics_file)]) == 0
    out = capsys.readouterr().out
    assert "campaign flight recorder" in out
    assert "slowest exits" in out


def test_iris_trace_rejects_non_observability_files(tmp_path, capsys):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("not json\n")
    assert iris_main(["trace", str(bogus)]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert iris_main(["trace", str(empty)]) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fuzz_cli_metrics_are_jobs_invariant(tmp_path, capsys, jobs):
    """Both worker counts produce the same counters (compared via the
    parametrized runs' stashed files)."""
    metrics_file = tmp_path / f"m{jobs}.json"
    rc = fuzz_main([
        "-w", "cpu-bound", "-n", "120", "--mutations", "12",
        "--reasons", "RDTSC", "-j", jobs,
        "--metrics", str(metrics_file),
    ])
    assert rc in (0, 3)  # EXIT_OK / EXIT_CRASHES_FOUND
    out = capsys.readouterr().out
    assert "campaign flight recorder" in out
    snap = MetricsSnapshot.from_json(metrics_file.read_text())
    # budget fully spent, independent of the worker count
    assert snap.counter_total("fuzz_mutations") == 24  # 12 x 2 areas
    stash = tmp_path.parent / "fuzz_cli_metrics_stash.json"
    if stash.exists():
        previous = json.loads(stash.read_text())
        assert previous == json.loads(metrics_file.read_text()), (
            "--jobs changed the merged metrics"
        )
    else:
        stash.write_text(metrics_file.read_text())


def test_fuzz_flight_recorder_counts_the_recording(tmp_path, capsys):
    """The printed flight recorder covers the whole run, so the
    recording's exits show up beside the shards' counters."""
    rc = fuzz_main([
        "-w", "cpu-bound", "-n", "120", "--mutations", "4",
        "--reasons", "RDTSC", "--metrics", str(tmp_path / "m.json"),
    ])
    assert rc in (0, 3)  # EXIT_OK / EXIT_CRASHES_FOUND
    out = capsys.readouterr().out
    assert "campaign flight recorder" in out
    assert re.search(r"\brecorded: (\d+)", out).group(1) == "120"
