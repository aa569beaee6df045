"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so that ``setup_s``
always counts a cold interpreter: importing the CLI entry module the
workload stands for, building the manager and, for the fuzz workloads,
recording and planning.  After set-up the repetition runs samples of
the measured phase until its time budget is spent (exactly one sample
when traced), checks every sample's output, and prints one JSON object
on stdout for ``run.py`` to aggregate.

The host is a shared machine whose speed drifts by tens of percent
within minutes.  Every gated time is therefore also given at nominal
host speed: :func:`calibrate` times a fixed pure-Python loop right
before and right after the timed region, and the region's wall time is
scaled by ``NOMINAL_CALIBRATION_S`` over the mean of the two.  The loop
uses no program code, so a change to the program moves the scaled
figure exactly as it moves the wall time.

Only public entry points are driven: ``IrisManager``, ``open_trace``,
``plan_test_cases``, ``ParallelCampaign``, ``CampaignController``,
``CampaignStore`` and ``coverage_fitting``, all on the ``vmx`` backend.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import struct
import sys
import time
from collections import Counter
from pathlib import Path

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is the self-tests' smoke size.
SIZES = {
    "full": {
        "record_replay": {"exits": 2000},
        "fuzz_deep": {"exits": 1000, "mutations": 2000, "resumes": 3},
        "fuzz_wide": {
            "exits": 400, "draws": 2, "mutations": 20, "shards": 2,
            "resumes": 1,
        },
    },
    "tiny": {
        "record_replay": {"exits": 120},
        "fuzz_deep": {"exits": 40, "mutations": 60, "resumes": 1},
        "fuzz_wide": {
            "exits": 120, "draws": 1, "mutations": 4, "shards": 2,
            "resumes": 1,
        },
    },
}

CLI_MODULES = {
    "record_replay": "repro.core.cli",
    "fuzz_deep": "repro.fuzz.cli",
    "fuzz_wide": "repro.fuzz.cli",
}

#: Worker processes of the ``fuzz_wide`` pool: one per usable core,
#: capped so that a large host does not fork a memory-hungry fleet.
WIDE_JOBS = min(len(os.sched_getaffinity(0)), 4)


#: Seconds :func:`calibrate` takes at nominal host speed: about its
#: median on a 2-core Intel Xeon VM under CPython 3.11.
NOMINAL_CALIBRATION_S = 0.05

#: Rounds of the calibration loop: about ``NOMINAL_CALIBRATION_S``.
CALIBRATION_ROUNDS = 20_000

#: Lookup tables of the calibration loop, a few MB: like the program's
#: own state, they do not fit in a core's private caches.
_TABLE = {key: key * 7919 & 0xFFFF for key in range(1 << 15)}
_WORDS = list(range(1 << 17))


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int, link) -> None:
        self.key, self.value, self.link = key, value, link

    def weight(self) -> int:
        return (self.key ^ self.value) & 15


def _probe() -> float:
    """One timed pass of the calibration loop, collector off.

    It does the interpreter work the program does most: small objects,
    method calls, attribute and dict lookups in large tables, struct
    packing.  What it allocates dies within a few rounds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pack = struct.Struct("<IH").pack
        node, total, packed = None, 0, []
        for i in range(CALIBRATION_ROUNDS):
            key = i * 2654435761 & 0x7FFF
            node = _Node(key, _TABLE[key], node if i & 7 else None)
            total += node.weight() + (_WORDS[i * 40503 & 0x1FFFF] & 1)
            fields = {"key": key, "value": node.value}
            packed.append(pack(fields["key"], fields["value"]))
        b"".join(packed)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(processes: int = 1) -> float:
    """Seconds the calibration loop takes on the host right now.

    With ``processes`` > 1 the loop runs in that many processes at once
    (the others forked for it), as a timed region whose work a pool of
    that size does, and the mean is returned.
    """
    children = []
    for _ in range(processes - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            os.write(write, repr(_probe()).encode())
            os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = [_probe()]
    for pid, read in children:
        with os.fdopen(read) as source:
            times.append(float(source.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(times)


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Rep:
    """State shared by the set-up and the samples of one repetition."""

    jobs = 1
    #: Pool processes the campaign actually runs (``jobs`` at most).
    workers = 1
    shard_stats = ()
    db_bytes = 0

    def __init__(self, args: argparse.Namespace, log) -> None:
        self.args = args
        self.seed = args.seed
        self.size = SIZES[args.size][args.workload]
        self.log = log
        self.workdir = Path(args.workdir)
        self.tag = f"{args.workload}-{os.getpid()}"
        self.problems: list[str] = []
        self.records: list[dict] = []

    def timed(self, name: str, call, processes: int = 1):
        """Run ``call`` as one timed region (a root span when traced).

        Returns the result, the wall seconds and the same seconds at
        nominal host speed, measured with the calibration loop in as
        many ``processes`` as the region keeps busy.
        """
        before = calibrate(processes)
        with (self.log.region(name) if self.log
              else contextlib.nullcontext()):
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        host_s = (before + calibrate(processes)) / 2
        return result, elapsed, elapsed * NOMINAL_CALIBRATION_S / host_s

    def close(self) -> None:
        """Release what the set-up opened (nothing by default)."""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def path(self, suffix: str) -> Path:
        target = self.workdir / f"{self.tag}{suffix}"
        if target.exists():
            target.unlink()
        return target

    def record(self, manager, exits: int, spool_to=None):
        """The timed ``record_workload`` call every workload makes."""
        session, wall_s, seconds = self.timed("record", lambda: (
            manager.record_workload(
                "os-boot", n_exits=exits, precondition="bios",
                workload_seed=self.seed, spool_to=spool_to,
            )
        ))
        self.check(
            session.recorder_stats.exits_recorded == exits,
            f"recorded {session.recorder_stats.exits_recorded} exits, "
            f"asked for {exits}",
        )
        self.records.append({
            "record_s": seconds, "record_exits_per_s": exits / seconds,
            "wall_exits_per_s": exits / wall_s,
        })
        return session


# ---- record_replay ---------------------------------------------------


class RecordReplay(Rep):
    """Record the OS BOOT trace to IRISTRC2, reopen it, replay it."""

    def setup(self) -> None:
        from repro.core.manager import IrisManager

        self.manager = IrisManager(arch="vmx")

    def sample(self) -> dict:
        from repro.analysis import coverage_fitting
        from repro.core.manager import IrisManager
        from repro.core.tracestore import open_trace

        exits = self.size["exits"]
        path = self.path(".trc")
        recorder = self.manager or IrisManager(arch="vmx")
        self.manager = None
        session = self.record(recorder, exits, spool_to=path)
        session.trace.close()
        trace = open_trace(path)
        replayer = IrisManager(arch="vmx")
        replay, wall_s, replay_s = self.timed("replay", lambda: (
            replayer.replay_trace(trace, from_snapshot=session.snapshot)
        ))
        submitted = len(replay.results)
        self.check(len(trace) == exits,
                   f"reopened trace holds {len(trace)} of {exits} exits")
        self.check(
            replay.completed == submitted == exits,
            f"{replay.completed}/{submitted} seeds replayed OK, "
            f"{exits} recorded",
        )
        recorded = Counter(trace.reason_ints())
        handled = Counter(
            int(r.handled_reason) for r in replay.results
            if r.handled_reason is not None
        )
        self.check(recorded == handled,
                   "replayed exit reasons differ from the recording's")
        fitting = coverage_fitting(trace, replay.results)
        trace.close()
        path.unlink()
        return {
            "timed_s": self.records[-1]["record_s"] + replay_s,
            "seeds_per_s": submitted / replay_s,
            "wall_seeds_per_s": submitted / wall_s,
            "attempted": submitted,
            "failed": submitted - replay.completed,
            "replay_fitting_pct": fitting.fitting_pct,
            "digest": digest({
                "exits": submitted,
                "reasons": sorted(recorded.items()),
                "fitting": [fitting.recorded_loc, fitting.replayed_loc,
                            fitting.intersection_loc],
            }),
        }


# ---- the fuzz workloads ----------------------------------------------


def results_fingerprint(results) -> str:
    """Everything a merged campaign result holds, hashed."""
    from repro.fuzz.corpus import entry_identity
    from repro.fuzz.failures import failure_identity

    hasher = hashlib.sha256()
    for r in results:
        hasher.update(repr((
            r.exit_reason.name, r.area.value, r.mutations_run,
            r.baseline_loc, r.new_loc, sorted(r.new_lines),
            r.vm_crashes, r.hypervisor_crashes,
            [failure_identity(f) for f in r.failures],
            [entry_identity(e) for e in r.corpus.entries],
        )).encode())
    return hasher.hexdigest()


def plan_shares(tasks) -> tuple[float, float]:
    """``(prefix_share, planned reach share)`` of a public shard plan.

    A shard's prefix is already reached when an earlier shard in plan
    order targets the same or a later seed, so its replay passes
    through this shard's target state.  Each shard on a fresh manager
    submits its prefix plus the unmutated target (``seed_index + 1``
    submits) before its first mutant.
    """
    reached, shared = -1, 0
    for task in tasks:
        shared += task.seed_index <= reached
        reached = max(reached, task.seed_index)
    reach = sum(task.seed_index + 1 for task in tasks)
    mutants = sum(task.n_mutations for task in tasks)
    return shared / len(tasks), reach / (reach + mutants)


class Fuzz(Rep):
    """A store-backed campaign and its no-op resume."""

    engine = "poc"
    shards = 1
    #: Cells per wave; one checkpoint per wave.
    wave_size = 1
    samples_run = 0

    def engine_for(self):
        from repro.fuzz.parallel import ParallelCampaign

        return ParallelCampaign(
            self.trace, self.snapshot, self.cases,
            campaign_seed=self.seed, jobs=self.jobs,
            shards_per_cell=self.shards, arch="vmx",
        )

    def campaign(self, store_path: Path, resume: bool):
        from repro.campaign import CampaignController, CampaignStore

        with CampaignStore(str(store_path)) as store:
            controller = CampaignController(
                self.engine_for(), store, wave_size=self.wave_size,
                config_extra=(("benchmark", self.args.workload),),
            )
            return controller.run(resume=resume)

    def setup(self) -> None:
        self.trace, self.snapshot, self.cases = self.inputs()
        self.plan = self.engine_for().plan()
        # The pool is sized by its first wave and kept for the campaign.
        self.workers = min(self.jobs, sum(
            task.cell_index < self.wave_size for task in self.plan
        ))

    def sample(self) -> dict:
        if self.log is None and self.samples_run:
            # The same seed records the same trace again: one more
            # sample of record_exits_per_s per further campaign, beside
            # the recording inside set-up.  Left out of the traced
            # sample, whose layer figures are the campaign's.
            self.record_again()
        self.samples_run += 1
        store_path = self.path(".db")
        outcome, wall_s, campaign_s = self.timed(
            "campaign", lambda: self.campaign(store_path, resume=False),
            processes=self.workers,
        )
        reference = results_fingerprint(outcome.results)
        resume_s = []
        for _ in range(self.size["resumes"]):
            resumed, _, seconds = self.timed(
                "resume", lambda: self.campaign(store_path, resume=True)
            )
            resume_s.append(seconds)
            self.check(
                resumed.waves_resumed == resumed.waves_total
                == outcome.waves_total,
                f"resume reloaded {resumed.waves_resumed} of "
                f"{outcome.waves_total} waves",
            )
            self.check(
                results_fingerprint(resumed.results) == reference,
                "resumed result differs from the uninterrupted one",
            )
        self.db_bytes = os.path.getsize(store_path)
        store_path.unlink()
        mutants = sum(r.mutations_run for r in outcome.results)
        self.shard_stats = outcome.stats.shards
        prefix_share, reach_share = plan_shares(self.plan)
        tallies = outcome.crash_tallies()
        return {
            "timed_s": campaign_s,
            "seeds_per_s": mutants / campaign_s,
            "wall_seeds_per_s": mutants / wall_s,
            "resume_s": statistics.median(resume_s),
            "attempted": sum(s.attempts for s in outcome.stats.shards),
            "failed": len(outcome.stats.faults),
            "new_loc": outcome.merged_coverage().loc,
            "plan.prefix_share": prefix_share,
            "plan.reach_share": reach_share,
            "digest": digest({
                "mutants": mutants,
                "new_loc": outcome.merged_coverage().loc,
                "crashes": tallies,
                "corpus": len(outcome.merged_corpus()),
            }),
        }


class FuzzDeep(Fuzz):
    """Two CPUID cells (both areas) with thousands of smart mutants."""

    engine = "smart"

    def record_input(self):
        from repro.core.manager import IrisManager

        return self.record(IrisManager(arch="vmx"), self.size["exits"])

    def record_again(self) -> None:
        self.record_input()

    def inputs(self):
        from repro.fuzz.mutations import MutationArea
        from repro.fuzz.testcase import plan_test_cases
        from repro.vmx.exit_reasons import ExitReason

        session = self.record_input()
        cases = plan_test_cases(
            session.trace, [ExitReason.CPUID],
            areas=(MutationArea.VMCS, MutationArea.GPR),
            n_mutations=self.size["mutations"],
            rng=random.Random(self.seed), engine=self.engine,
        )
        return session.trace, session.snapshot, cases


class FuzzWide(Fuzz):
    """Every exit reason of a spooled trace, many small shards."""

    jobs = WIDE_JOBS

    def record_input(self, suffix: str = ".trc"):
        from repro.core.manager import IrisManager

        path = self.path(suffix)
        session = self.record(
            IrisManager(arch="vmx"), self.size["exits"], spool_to=path
        )
        session.trace.close()
        return session, path

    def record_again(self) -> None:
        _, path = self.record_input("-again.trc")
        path.unlink()

    def inputs(self):
        from repro.core.tracestore import open_trace
        from repro.fuzz.testcase import plan_test_cases

        self.shards = self.size["shards"]
        # Each wave holds at least one shard per worker.
        self.wave_size = -(-self.jobs // self.shards)
        session, self.trace_path = self.record_input()
        trace = open_trace(self.trace_path)
        reasons = sorted(set(trace.reasons()), key=int)
        rng = random.Random(self.seed)
        # Several target draws per reason: the reach cost depends on
        # where each drawn seed sits, and more draws per campaign keep
        # that cost from swinging from one seed to the next.
        cases = [
            case
            for _ in range(self.size["draws"])
            for case in plan_test_cases(
                trace, reasons, n_mutations=self.size["mutations"],
                rng=rng, engine=self.engine,
            )
        ]
        return trace, session.snapshot, cases

    def close(self) -> None:
        self.trace.close()
        self.trace_path.unlink()


WORKLOADS = {
    "record_replay": RecordReplay,
    "fuzz_deep": FuzzDeep,
    "fuzz_wide": FuzzWide,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def traced_metrics(rep: Rep, log, sample: dict) -> dict[str, float]:
    from spans import layer_metrics, percentile

    log.load_workers()
    metrics = layer_metrics(log)
    log.write(rep.workdir / f"spans-{rep.args.workload}.jsonl")
    shards = rep.shard_stats
    durations = [s.duration_seconds for s in shards]
    metrics.update({
        "shard.count": len(shards),
        "shard.s_p50": percentile(durations, 50),
        "shard.s_p90": percentile(durations, 90),
        "shard.retried": sum(s.status == "retried" for s in shards),
        "shard.failed": sum(s.status == "failed" for s in shards),
        "transport.worker_busy_share": (
            sum(durations)
            / (rep.workers * metrics["transport.run_tasks_s"])
            if shards and metrics["transport.run_tasks_s"] else 0.0
        ),
        "store.db_bytes": rep.db_bytes,
        "plan.prefix_share": sample.get("plan.prefix_share", 0.0),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of set-up and measured phase "
                        "together (at least one sample)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py spawned us")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    with contextlib.redirect_stdout(sys.stderr):
        calibrated_first = calibrate()
        importlib.import_module(CLI_MODULES[args.workload])
        log = None
        if args.trace:
            from spans import SpanLog, install

            log = SpanLog(Path(args.workdir))
            install(log)
        rep = WORKLOADS[args.workload](args, log)
        rep.setup()
        measured_start = time.monotonic()
        setup_wall_s = measured_start - args.spawned_at - calibrated_first
        setup_host_s = (calibrated_first + calibrate()) / 2
        stop_at = args.spawned_at + args.budget
        samples = []
        try:
            # Start another sample only while it is expected to end
            # within the budget: a repetition then lasts about its
            # budget, never a whole extra sample beyond it.
            while not samples or not args.trace and (
                time.monotonic() + (time.monotonic() - measured_start)
                / len(samples) <= stop_at
            ):
                samples.append(rep.sample())
        finally:
            rep.close()
        report = {
            "setup_s": setup_wall_s * NOMINAL_CALIBRATION_S / setup_host_s,
            "setup_wall_s": setup_wall_s,
            "samples": samples,
            "records": rep.records,
            "problems": rep.problems,
            "peak_rss_mb": peak_rss_mb(),
            "layers": traced_metrics(rep, log, samples[0]) if log else None,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
