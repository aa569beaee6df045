"""End-to-end IRIS benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fuzz_wide --seed 3 --seconds 42 --trace 0

Each run starts fresh interpreters (``rep.py``), one per repetition, so
every repetition measures its own cold set-up.  An untraced run
(``--trace 0``) runs three repetitions, each taking a third of
``--seconds`` with its set-up, and reports the end-to-end metrics as
medians of times scaled to nominal host speed (see ``rep.py``).  A traced
run (``--trace 1``) runs one untraced repetition and then one traced
sample of the same seed, and reports the per-layer metrics, the
tracing overhead and the share of measured wall no layer span covers.

The human-readable report goes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Time allowed per repetition on top of twice ``--seconds``, after
#: which a run is stopped and fails.
SETUP_ALLOWANCE_S = 20.0

REPS_UNTRACED = 3

_WIDE = "seeds_per_s on fuzz_wide"
_DEEP = "seeds_per_s on fuzz_deep"
_FUZZ = "seeds_per_s on fuzz_deep and fuzz_wide"
_REC = "record_exits_per_s on record_replay"
_REP = "seeds_per_s on record_replay"

#: The end-to-end metric and workload each per-layer metric is predicted
#: to move.  Names, units and directions are those ``BENCHMARK.json``
#: declares; its schema has no field for this mapping.
PER_LAYER = {
    "hypervisor.exits": f"{_REP}, {_REC}, {_FUZZ}",
    "hypervisor.busy_s": f"{_REP}, {_REC}, {_FUZZ}",
    "hypervisor.us_per_exit": f"{_REP}, {_REC}, {_FUZZ}",
    "record.busy_s": _REC,
    "tracestore.write_busy_s": _REC,
    "tracestore.flushes": _REC,
    "tracestore.bytes_written": _REC,
    "tracestore.records_decoded": f"{_REP}, {_WIDE}",
    "tracestore.decode_busy_s": f"{_REP}, {_WIDE}",
    "tracestore.decodes_per_mutant": _WIDE,
    "replay.submits": f"{_REP}, {_WIDE}",
    "replay.self_s": f"{_REP}, {_WIDE}",
    "replay.step_us_p50": f"{_REP}, {_WIDE}",
    "replay.step_us_p99": f"{_REP}, {_WIDE}",
    "replay.ok_ratio": f"{_REP}, {_WIDE}",
    "replay.reach_submits": f"{_WIDE} (barely {_DEEP})",
    "replay.reach_busy_s": f"{_WIDE} (barely {_DEEP})",
    "replay.reach_share": f"{_WIDE} (barely {_DEEP})",
    "snapshot.takes": _DEEP,
    "snapshot.restores": _DEEP,
    "snapshot.restore_busy_s": _DEEP,
    "manager.instances": _WIDE,
    "manager.dummy_vm_builds": _WIDE,
    "manager.busy_s": _WIDE,
    "mutation.mutants": f"{_DEEP} (barely fuzz_wide)",
    "mutation.next_busy_s": f"{_DEEP} (barely fuzz_wide)",
    "mutation.feedback_busy_s": f"{_DEEP} (barely fuzz_wide)",
    "classify.busy_s": _DEEP,
    "corpus.considered": _DEEP,
    "corpus.admitted": _DEEP,
    "corpus.admit_ratio": _DEEP,
    "corpus.busy_s": _DEEP,
    "shard.count": _WIDE,
    "shard.s_p50": _WIDE,
    "shard.s_p90": _WIDE,
    "shard.retried": _WIDE,
    "shard.failed": _WIDE,
    "merge.calls": _WIDE,
    "merge.busy_s": _WIDE,
    "plan.prefix_share": f"{_WIDE} (input property)",
    "transport.run_tasks_s": _WIDE,
    "transport.worker_busy_share": _WIDE,
    "store.checkpoints": _FUZZ,
    "store.checkpoint_busy_s": _FUZZ,
    "store.db_bytes": _FUZZ,
    "store.validate_s": "resume_s on fuzz_deep",
    "store.load_results_s": "resume_s on fuzz_deep",
    "controller.waves": _FUZZ,
    "controller.wave_s_p50": _FUZZ,
    "self_s.hypervisor": f"{_REP}, {_REC}, {_FUZZ}",
    "self_s.record": _REC,
    "self_s.tracestore": f"{_REC}, {_REP}, {_WIDE}",
    "self_s.replay": f"{_REP}, {_WIDE}",
    "self_s.snapshot": _DEEP,
    "self_s.manager": _WIDE,
    "self_s.mutation": _DEEP,
    "self_s.fuzzer": _FUZZ,
    "self_s.classify": _DEEP,
    "self_s.corpus": _DEEP,
    "self_s.parallel": _WIDE,
    "self_s.transport": _WIDE,
    "self_s.store": _FUZZ,
    "self_s.controller": _FUZZ,
    "trace.spans": "tracing overhead only",
    "trace.overhead_share": "tracing overhead only",
    "trace.unattributed_share": "attribution coverage",
}


def run_rep(args, budget: float, traced: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--budget", str(budget),
        "--trace", "1" if traced else "0",
        "--workdir", str(args.workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("repetition overran the run's deadline")
    finally:
        # Pool workers of a repetition share its session: none outlives
        # it, even when the repetition itself died.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise RuntimeError(
            f"repetition exited with code {child.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(
        sample[key] for rep in reps for sample in rep["samples"]
        if key in sample
    )


def load_pin(args) -> str | None:
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(args.size, {}).get(args.workload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end IRIS benchmark (see perfbench/README.md)",
    )
    parser.add_argument(
        "--workload", required=True,
        choices=["record_replay", "fuzz_deep", "fuzz_wide"],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full",
        help="tiny: the self-tests' smoke size",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    reps_planned = 2 if args.trace else REPS_UNTRACED
    deadline = (
        started + 2 * args.seconds + SETUP_ALLOWANCE_S * reps_planned
    )

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "perfbench: no src/repro here; run from the root of an "
            "IRIS checkout", file=sys.stderr,
        )
        return 2
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args.workdir = root / ".perfbench"
    args.workdir.mkdir(exist_ok=True)
    # Leftovers of a repetition that was killed mid-way.
    for pattern in ("*.trc", "*.db", "worker-*.jsonl"):
        for stale in args.workdir.glob(pattern):
            stale.unlink()

    try:
        if args.trace:
            reps = [run_rep(args, args.seconds / 2, False, deadline),
                    run_rep(args, 0.0, True, deadline)]
        else:
            reps = []
            for left in range(REPS_UNTRACED, 0, -1):
                remaining = args.seconds - (time.monotonic() - started)
                reps.append(run_rep(args, remaining / left, False, deadline))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [p for rep in reps for p in rep["problems"]]
    samples = [s for rep in reps for s in rep["samples"]]
    digests = {s["digest"] for s in samples}
    if len(digests) > 1:
        problems.append(
            f"same seed, different outputs across samples: {digests}"
        )
    pin = None
    if args.seed == DEFAULT_SEED:
        pin = load_pin(args)
        if pin not in digests:
            problems.append(
                f"output digest {sorted(digests)} differs from the pinned "
                f"{pin}"
            )
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    fuzz = args.workload != "record_replay"

    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace}: {len(reps)} repetition(s), "
        f"{len(samples)} sample(s), {time.monotonic() - started:.1f} s"
    )
    # Tracing slows its repetition down: end-to-end figures come from
    # the untraced repetitions only.
    untraced = reps[:1] if args.trace else reps
    e2e = {
        "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
        "record_exits_per_s": statistics.median(
            r["record_exits_per_s"]
            for rep in untraced for r in rep["records"]
        ),
        "seeds_per_s": median_of(untraced, "seeds_per_s"),
        "peak_rss_mb": statistics.median(
            rep["peak_rss_mb"] for rep in untraced
        ),
    }
    # Per-workload names for the same figures, plus the deterministic
    # outputs the pinned digest covers.
    readable = [
        ("setup_s", e2e["setup_s"], "s"),
        ("record_exits_per_s", e2e["record_exits_per_s"], "1/s"),
    ]
    if fuzz:
        readable += [
            ("fuzz_mutants_per_s", e2e["seeds_per_s"], "1/s"),
            ("new_loc", samples[0]["new_loc"], "LOC"),
            ("resume_s", median_of(untraced, "resume_s"), "s"),
            ("plan.prefix_share", samples[0]["plan.prefix_share"], "ratio"),
            ("plan.reach_share", samples[0]["plan.reach_share"], "ratio"),
        ]
    else:
        readable += [
            ("replay_seeds_per_s", e2e["seeds_per_s"], "1/s"),
            ("replay_fitting_pct", samples[0]["replay_fitting_pct"], "%"),
        ]
    readable += [
        ("fail_ratio", failed / attempted, "ratio"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
    ]
    for name, value, unit in readable:
        print(f"  {name:<22} {value:>14.4f} {unit}")
    print("  at wall speed (the figures above are at nominal host speed):")
    wall = [
        ("setup_s", statistics.median(
            rep["setup_wall_s"] for rep in untraced), "s"),
        ("record_exits_per_s", statistics.median(
            r["wall_exits_per_s"] for rep in untraced
            for r in rep["records"]), "1/s"),
        ("seeds_per_s", median_of(untraced, "wall_seeds_per_s"), "1/s"),
    ]
    for name, value, unit in wall:
        print(f"    {name:<20} {value:>14.4f} {unit}")
    print("  seeds_per_s samples:    " + ", ".join(
        f"{s['seeds_per_s']:.1f}"
        for rep in untraced for s in rep["samples"]
    ))
    print("  record_exits_per_s samples: " + ", ".join(
        f"{r['record_exits_per_s']:.1f}"
        for rep in untraced for r in rep["records"]
    ))
    print(f"  {'output digest':<22} {samples[0]['digest']:>14} "
          f"(pinned for seed {DEFAULT_SEED}: {pin or '-'})")

    if args.trace:
        layers = reps[1]["layers"]
        layers["trace.overhead_share"] = (
            reps[1]["samples"][0]["timed_s"]
            / statistics.median(s["timed_s"] for s in reps[0]["samples"])
            - 1.0
        )
        values = layers
        print(f"  {'per-layer metric':<30} {'value':>14}  predicted to move")
        for metric in declared["per_layer"]:
            name = metric["name"]
            print(f"  {name:<30} {layers[name]:>14.6g} "
                  f"{metric['unit']:<6} {PER_LAYER[name]}")
    else:
        values = e2e
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
