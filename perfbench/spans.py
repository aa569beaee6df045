"""In-memory span recorder and the layer wrappers of the traced pass.

Every span is one call into a layer's public function, recorded from
outside: :func:`install` replaces each function on the name its caller
actually looks up (a class attribute for methods, the importing
module's global for functions imported by name) with a wrapper that
records ``(name, start, end, parent)``.  Only calls inside a timed
region (:meth:`SpanLog.region`) are recorded, so work the benchmark
does around its measurements — building inputs, checking outputs —
stays out of the layer figures.  A layer is the span name's prefix
before the first dot; its self time is the span's duration minus the
time its direct child spans cover.

Pool workers are forked with the wrappers already installed.  The pool
is ``terminate()``d when a campaign closes, so a worker never gets to
flush anything at exit: each shard's spans are appended to a per-worker
file in the spool directory as soon as the shard returns, and the
parent reads them back with :meth:`SpanLog.load_workers`.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

#: Layers of the self-time table, in pipeline order.
LAYERS = (
    "hypervisor", "record", "tracestore", "replay", "snapshot",
    "manager", "mutation", "fuzzer", "classify", "corpus",
    "parallel", "transport", "store", "controller",
)

_TRACESTORE_WRITES = (
    "tracestore.append", "tracestore.flush", "tracestore.close",
)
_TRACESTORE_READS = ("tracestore.getitem", "tracestore.next")


class SpanLog:
    """Spans and counts of one process, held in memory."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.reach = False
        #: Open timed regions.  Pool workers fork inside one and so
        #: inherit a nonzero count: everything a shard does is timed.
        self.regions = 0
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker starts empty: the parent's open spans belong
        # to the parent's timeline, not to the worker's shards.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.batches: list[dict] = []

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    @property
    def active(self) -> bool:
        return self.regions > 0

    @contextlib.contextmanager
    def region(self, name: str):
        """One timed region of the benchmark: a root span ``e2e.name``."""
        index = self.begin(f"e2e.{name}")
        self.regions += 1
        try:
            yield
        finally:
            self.regions -= 1
            self.end(index)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self.stack.pop()

    def batch(self) -> dict:
        return {
            "names": self.names, "starts": self.starts,
            "ends": self.ends, "parents": self.parents,
            "counts": dict(self.counts),
        }

    def ship_shard(self) -> None:
        """Worker side: append this shard's spans to the spool, then
        start the next shard empty."""
        path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(self.batch()) + "\n")
        self._reset()

    def load_workers(self) -> None:
        """Parent side: collect (and remove) every shipped shard batch."""
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as source:
                self.batches.extend(json.loads(line) for line in source)
            path.unlink()

    def all_batches(self) -> list[dict]:
        return [self.batch()] + self.batches

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for batch in self.all_batches():
                sink.write(json.dumps(batch) + "\n")


def _wrap(log: SpanLog, owner, attr: str, name: str, after=None,
          before=None) -> None:
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if not log.active:
            return original(*args, **kwargs)
        if before is not None:
            before(args)
        index = log.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            log.end(index)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def install(log: SpanLog) -> None:
    """Install every layer wrapper (call before any repro work)."""
    from repro.campaign.controller import CampaignController
    from repro.campaign.store import CampaignStore
    from repro.campaign.transport import LocalPoolTransport
    from repro.core import manager as manager_mod
    from repro.core.manager import IrisManager
    from repro.core.replay import ReplayOutcome, Replayer
    from repro.core.tracestore import TraceReader, TraceWriter
    from repro.fuzz import fuzzer as fuzzer_mod
    from repro.fuzz import parallel as parallel_mod
    from repro.fuzz.corpus import Corpus
    from repro.fuzz.fuzzer import FuzzResult, IrisFuzzer
    from repro.fuzz.mutation_engine import MutationEngine
    from repro.fuzz.parallel import ParallelCampaign
    from repro.hypervisor.hypervisor import Hypervisor

    w = _wrap

    w(log, Hypervisor, "handle_vmexit", "hypervisor.handle_vmexit")

    w(log, IrisManager, "record_workload", "record.record_workload")
    w(log, IrisManager, "__init__", "manager.init")
    w(log, IrisManager, "create_dummy_vm", "manager.create_dummy_vm")
    w(log, IrisManager, "replay_trace", "manager.replay_trace")

    w(log, TraceWriter, "append", "tracestore.append")
    w(log, TraceWriter, "flush", "tracestore.flush")

    def count_bytes(args, _result):
        log.counts["tracestore.bytes_written"] += os.path.getsize(args[0].path)

    w(log, TraceWriter, "close", "tracestore.close", after=count_bytes)

    def count_getitem(args, result):
        log.counts["tracestore.records_decoded"] += (
            len(result) if isinstance(args[1], slice) else 1
        )

    w(log, TraceReader, "__getitem__", "tracestore.getitem",
      after=count_getitem)
    original_iter = TraceReader.__iter__

    def traced_iter(reader):
        records = original_iter(reader)
        while True:
            index = log.begin("tracestore.next") if log.active else None
            try:
                record = next(records)
            except StopIteration:
                return
            finally:
                if index is not None:
                    log.end(index)
            if index is not None:
                log.counts["tracestore.records_decoded"] += 1
            yield record

    TraceReader.__iter__ = traced_iter

    original_submit = Replayer.submit

    def traced_submit(replayer, seed):
        if not log.active:
            return original_submit(replayer, seed)
        reach = log.reach
        index = log.begin("replay.submit.reach" if reach
                          else "replay.submit")
        try:
            result = original_submit(replayer, seed)
        finally:
            log.end(index)
        if result.outcome is ReplayOutcome.OK:
            log.counts["replay.ok"] += 1
        return result

    Replayer.submit = traced_submit
    w(log, Replayer, "replay_trace", "replay.replay_trace")

    for module in (fuzzer_mod, manager_mod):
        w(log, module, "take_snapshot", "snapshot.take")
        w(log, module, "restore_snapshot", "snapshot.restore")

    # Submits between entering a test case and its first mutant reach
    # the target state (prefix plus unmutated baseline).
    def reach_on(*_):
        log.reach = True

    def reach_off(*_):
        log.reach = False

    w(log, IrisFuzzer, "run_test_case", "fuzzer.run_test_case",
      before=reach_on, after=reach_off)
    engines = [MutationEngine, *MutationEngine.__subclasses__()]
    for engine in engines:
        if "next_mutant" in vars(engine) and engine is not MutationEngine:
            w(log, engine, "next_mutant", "mutation.next_mutant",
              before=reach_off)
        if "feedback" in vars(engine):
            w(log, engine, "feedback", "mutation.feedback")
    w(log, fuzzer_mod, "classify_result", "classify.classify_result")

    def count_admit(_args, kept):
        log.counts["corpus.admitted"] += bool(kept)

    w(log, Corpus, "consider", "corpus.consider", after=count_admit)

    original_run_shard = parallel_mod.run_shard

    def traced_run_shard(*args, **kwargs):
        # Always inside the campaign's timed region: inline (jobs=1)
        # or in a worker forked from inside it.
        index = log.begin("parallel.run_shard")
        try:
            return original_run_shard(*args, **kwargs)
        finally:
            log.end(index)
            if log.in_worker:
                log.ship_shard()

    parallel_mod.run_shard = traced_run_shard
    w(log, FuzzResult, "merge", "parallel.merge")
    w(log, ParallelCampaign, "run_wave", "parallel.run_wave")
    w(log, LocalPoolTransport, "run_tasks", "transport.run_tasks")
    w(log, CampaignStore, "checkpoint_wave", "store.checkpoint_wave")
    w(log, CampaignStore, "validate", "store.validate")
    w(log, CampaignStore, "load_results", "store.load_results")
    w(log, CampaignController, "run", "controller.run")


# ---- the per-layer metrics -------------------------------------------


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """Per-layer metrics of the traced sample's timed regions.

    Called once per traced sample, after :meth:`SpanLog.load_workers`.
    Durations are summed over every process (parent and pool workers),
    so on a pooled campaign a layer's busy time can exceed wall time.
    """
    dur: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    self_by_name: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    e2e_wall = e2e_self = 0.0
    record_writes = 0.0
    for batch in log.all_batches():
        counts.update(batch["counts"])
        names, parents = batch["names"], batch["parents"]
        spans = [
            (end - start) / 1e9
            for start, end in zip(batch["starts"], batch["ends"])
        ]
        child = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += spans[index]
        for index, name in enumerate(names):
            dur.setdefault(name, []).append(spans[index])
            own = spans[index] - child[index]
            self_by_name[name] += own
            layer = name.split(".", 1)[0]
            if layer == "e2e":
                e2e_wall += spans[index]
                e2e_self += own
            elif layer in self_s:
                self_s[layer] += own
            # Outermost trace-store writes only: ``append`` flushes
            # through the (also wrapped) ``flush`` when a batch fills.
            if name in _TRACESTORE_WRITES and (
                parents[index] < 0
                or names[parents[index]] not in _TRACESTORE_WRITES
            ):
                record_writes += spans[index]

    def n(name: str) -> int:
        return len(dur.get(name, ()))

    def busy(*names: str) -> float:
        return sum(sum(dur.get(name, ())) for name in names)

    exits = n("hypervisor.handle_vmexit")
    hv_busy = busy("hypervisor.handle_vmexit")
    submits = n("replay.submit") + n("replay.submit.reach")
    reach = n("replay.submit.reach")
    steps = dur.get("replay.submit", []) + dur.get("replay.submit.reach", [])
    mutants = n("mutation.next_mutant")
    decoded = counts["tracestore.records_decoded"]
    considered = n("corpus.consider")
    metrics = {
        "hypervisor.exits": exits,
        "hypervisor.busy_s": hv_busy,
        "hypervisor.us_per_exit": _ratio(hv_busy, exits) * 1e6,
        "record.busy_s": busy("record.record_workload") - record_writes,
        "tracestore.write_busy_s": record_writes,
        "tracestore.flushes": n("tracestore.flush"),
        "tracestore.bytes_written": counts["tracestore.bytes_written"],
        "tracestore.records_decoded": decoded,
        "tracestore.decode_busy_s": busy(*_TRACESTORE_READS),
        "tracestore.decodes_per_mutant": _ratio(decoded, mutants),
        "replay.submits": submits,
        "replay.self_s": (
            self_by_name["replay.submit"]
            + self_by_name["replay.submit.reach"]
        ),
        "replay.step_us_p50": percentile(steps, 50) * 1e6,
        "replay.step_us_p99": percentile(steps, 99) * 1e6,
        "replay.ok_ratio": _ratio(counts["replay.ok"], submits),
        "replay.reach_submits": reach,
        "replay.reach_busy_s": busy("replay.submit.reach"),
        "replay.reach_share": _ratio(reach, submits),
        "snapshot.takes": n("snapshot.take"),
        "snapshot.restores": n("snapshot.restore"),
        "snapshot.restore_busy_s": busy("snapshot.restore"),
        "manager.instances": n("manager.init"),
        "manager.dummy_vm_builds": n("manager.create_dummy_vm"),
        "manager.busy_s": busy("manager.init", "manager.create_dummy_vm"),
        "mutation.mutants": mutants,
        "mutation.next_busy_s": busy("mutation.next_mutant"),
        "mutation.feedback_busy_s": busy("mutation.feedback"),
        "classify.busy_s": busy("classify.classify_result"),
        "corpus.considered": considered,
        "corpus.admitted": counts["corpus.admitted"],
        "corpus.admit_ratio": _ratio(counts["corpus.admitted"], considered),
        "corpus.busy_s": busy("corpus.consider"),
        "merge.calls": n("parallel.merge"),
        "merge.busy_s": busy("parallel.merge"),
        "transport.run_tasks_s": busy("transport.run_tasks"),
        "store.checkpoints": n("store.checkpoint_wave"),
        "store.checkpoint_busy_s": busy("store.checkpoint_wave"),
        "store.validate_s": busy("store.validate"),
        "store.load_results_s": busy("store.load_results"),
        "controller.waves": n("parallel.run_wave"),
        "controller.wave_s_p50": (
            statistics.median(dur["parallel.run_wave"])
            if "parallel.run_wave" in dur else 0.0
        ),
        "trace.unattributed_share": _ratio(e2e_self, e2e_wall),
        "trace.spans": sum(len(v) for v in dur.values()),
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_s[layer]
    return metrics
