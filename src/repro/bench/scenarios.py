"""The benchmarked scenarios.

Each scenario builds its whole world from scratch (fresh simulated
hypervisor, fixed RNG seeds) so its deterministic outputs are pure
functions of the parameter dict, then measures the wall time of the
hot region only (setup like recording the input trace is excluded).

The ``fuzz_exec`` scenarios are the headline: they run the same serial
fuzzing loop twice — fast-reset on, then off — and report both
throughputs plus the speedup.  Their ``checks`` pin crash/mutation
parity between the modes and the (deterministic) cycle delta of the
fast path's batched replay charges; byte-identical coverage parity is
the campaign-level differential tests' job, where every shard reaches
its target state exactly once.
"""

from __future__ import annotations

import hashlib
import io
import random
import struct
import time
from dataclasses import dataclass
from typing import Iterable

from repro.arch.fields import ALL_FIELDS, field_by_index
from repro.bench.runner import IterationOutcome, ScenarioFn
from repro.core.manager import IrisManager, RecordingSession
from repro.core.seed import (
    SEED_ENTRY_SIZE,
    SeedEntry,
    SeedFlag,
    VMSeed,
)
from repro.core.snapshot import restore_snapshot, take_snapshot
from repro.errors import SeedFormatError
from repro.fuzz.fuzzer import FuzzResult, IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import plan_test_cases
from repro.hypervisor.coverage import (
    BlockAllocator,
    CoverageMap,
    INSTRUMENTED_FILES,
    IRIS_FILE,
    SourceBlock,
)
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR

#: Exit reasons targeted by the fuzzing scenarios (reasons absent from
#: the recorded trace are skipped by the planner, as in Table I).
_REASONS = (
    ExitReason.CPUID,
    ExitReason.RDTSC,
    ExitReason.HLT,
    ExitReason.VMCALL,
)


def _record(
    manager: IrisManager, exits: int
) -> RecordingSession:
    """Record the standard input trace (setup, never measured)."""
    return manager.record_workload(
        "cpu-bound", n_exits=exits, precondition="boot",
        store_metrics=False,
    )


# ---- snapshot take/restore -------------------------------------------

def snapshot_roundtrip(params: dict[str, int]) -> IterationOutcome:
    """take_snapshot + one tracked drift + restore, fast and full.

    Cycles come from the drift (one seed submission per roundtrip);
    take/restore themselves are timeline-invariant.  The full loop
    runs after the fast loop on the same clock, so its submissions
    charge at different TSC phases — ``cycles_full_minus_fast`` is a
    nonzero but deterministic number, pinned like every other check.
    """
    iters = params["iters"]
    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    replayer = manager.create_dummy_vm(from_snapshot=session.snapshot)
    dummy = manager.dummy_vm
    assert dummy is not None
    hv = manager.hv
    seed = session.trace.records[0].seed

    walls: dict[str, float] = {}
    cycle_counts: dict[str, int] = {}
    for mode, fast in (("fast", True), ("full", False)):
        cycles_before = hv.clock.now
        start = time.perf_counter()
        for _ in range(iters):
            snap = take_snapshot(hv, dummy)
            replayer.submit(seed)
            restore_snapshot(hv, dummy, snap, fast=fast)
        walls[mode] = time.perf_counter() - start
        cycle_counts[mode] = hv.clock.now - cycles_before

    cycles = cycle_counts["fast"]
    checks: dict[str, object] = {
        "cycles_per_iter": cycles // iters,
        "cycles_full_minus_fast": cycle_counts["full"] - cycles,
        "final_rip": dummy.vcpus[0].regs.rip,
    }
    info = {
        "roundtrips_per_second_fast": iters / walls["fast"],
        "roundtrips_per_second_full": iters / walls["full"],
        "restore_speedup": walls["full"] / walls["fast"],
    }
    return IterationOutcome(
        cycles=cycles, checks=checks, info=info, wall=walls["fast"],
    )


# ---- single-seed replay ----------------------------------------------

def seed_replay(params: dict[str, int]) -> IterationOutcome:
    """Replay a recorded trace through a fresh dummy VM."""
    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    hv = manager.hv
    cycles_before = hv.clock.now
    start = time.perf_counter()
    replay = manager.replay_trace(
        session.trace, from_snapshot=session.snapshot,
        record_metrics=False,
    )
    wall = time.perf_counter() - start
    cycles = hv.clock.now - cycles_before
    checks: dict[str, object] = {
        "seeds": len(replay.results),
        "completed": replay.completed,
        "replay_cycles": replay.wall_cycles,
    }
    info = {"seeds_per_second": replay.completed / wall}
    return IterationOutcome(
        cycles=cycles, checks=checks, info=info, wall=wall,
    )


# ---- fuzzing throughput ----------------------------------------------

def _fuzz_round(
    arch: str, fast: bool, params: dict[str, int]
) -> tuple[float, int, list[FuzzResult], int]:
    """One serial fuzzing run; returns (wall, cycles, results, execs)."""
    manager = IrisManager(arch=arch, fast_reset=fast)
    session = _record(manager, params["exits"])
    cases = plan_test_cases(
        session.trace, list(_REASONS), areas=(MutationArea.VMCS,),
        n_mutations=params["mutations"], rng=random.Random(0),
    )
    fuzzer = IrisFuzzer(
        manager, rng=random.Random(1), fast_reset=fast
    )
    hv = manager.hv
    results: list[FuzzResult] = []
    execs = 0
    cycles_before = hv.clock.now
    start = time.perf_counter()
    for case in cases:
        # Rounds of the same case run back-to-back, the way a fuzzer
        # keeps drawing mutation batches from one target state — the
        # access pattern the fast-reset target-state cache serves.
        for _ in range(params["rounds"]):
            results.append(fuzzer.run_test_case(
                case, from_snapshot=session.snapshot
            ))
            # Submissions per case: the replayed prefix, the unmutated
            # baseline, and every mutation (paper Fig. 11).
            execs += case.seed_index + 1 + case.n_mutations
    wall = time.perf_counter() - start
    return wall, hv.clock.now - cycles_before, results, execs


def _fuzz_exec(arch: str, params: dict[str, int]) -> IterationOutcome:
    wall_fast, cycles_fast, results_fast, execs = _fuzz_round(
        arch, True, params
    )
    wall_full, cycles_full, results_full, _ = _fuzz_round(
        arch, False, params
    )

    def fingerprint(results: list[FuzzResult]) -> tuple[int, ...]:
        return (
            sum(r.mutations_run for r in results),
            sum(r.new_loc for r in results),
            sum(r.vm_crashes for r in results),
            sum(r.hypervisor_crashes for r in results),
        )

    fast_print = fingerprint(results_fast)
    full_print = fingerprint(results_full)
    # Crash tallies and mutation counts must agree between the modes
    # even across repeated cases; coverage accounting may differ there
    # (the cached baseline vs. a phase-drifted re-measured one — see
    # the fuzzer's fast-reset notes), so new_loc is pinned per mode.
    checks: dict[str, object] = {
        "mutations": fast_print[0],
        "new_loc": fast_print[1],
        "new_loc_full": full_print[1],
        "vm_crashes": fast_print[2],
        "hypervisor_crashes": fast_print[3],
        "crashes_match_full": fast_print[2:] == full_print[2:]
        and fast_print[0] == full_print[0],
        "cycles_full_minus_fast": cycles_full - cycles_fast,
    }
    info = {
        "execs_per_second_fast": execs / wall_fast,
        "execs_per_second_full": execs / wall_full,
        "speedup": wall_full / wall_fast,
    }
    return IterationOutcome(
        cycles=cycles_fast, checks=checks, info=info, wall=wall_fast,
    )


def fuzz_exec(params: dict[str, int]) -> IterationOutcome:
    """Serial fuzz-loop throughput on VT-x, fast reset vs. rebuild."""
    return _fuzz_exec("vmx", params)


def fuzz_exec_svm(params: dict[str, int]) -> IterationOutcome:
    """Serial fuzz-loop throughput on SVM, fast reset vs. rebuild."""
    return _fuzz_exec("svm", params)


# ---- campaign merge --------------------------------------------------

def campaign_merge(params: dict[str, int]) -> IterationOutcome:
    """Sharded campaign through the inline (jobs=1) hermetic path."""
    from repro.fuzz.parallel import ParallelCampaign

    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    cases = plan_test_cases(
        session.trace, list(_REASONS), areas=(MutationArea.VMCS,),
        n_mutations=params["mutations"], rng=random.Random(0),
    )
    campaign = ParallelCampaign(
        session.trace, session.snapshot, cases,
        campaign_seed=0, jobs=1,
        shards_per_cell=params["shards"],
    )
    start = time.perf_counter()
    outcome = campaign.run()
    wall = time.perf_counter() - start
    tallies = outcome.crash_tallies()
    checks: dict[str, object] = {
        "cells": len(outcome.results),
        "abandoned": len(outcome.abandoned_cells),
        "new_loc": outcome.merged_coverage().loc,
        "vm_crashes": tallies["vm-crash"],
        "hypervisor_crashes": tallies["hypervisor-crash"],
        "corpus": len(outcome.merged_corpus()),
    }
    info = {
        "mutations_per_second": outcome.stats.total_mutations / wall,
    }
    # The shards run on hermetic per-shard hypervisors whose clocks are
    # not observable here; zero is the (deterministic) outer-clock cost.
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=wall,
    )


# ---- campaign checkpointing ------------------------------------------

def campaign_checkpoint(params: dict[str, int]) -> IterationOutcome:
    """Store-backed campaign control plane vs the bare engine.

    Three arms over the same campaign: the plain engine (no store),
    the controller checkpointing every wave to SQLite (the measured
    arm — its wall is gated, so checkpoint overhead regressions fail
    CI), and an interrupted-then-resumed run.  The checks pin both
    equivalences — store-backed output matches the bare engine, and
    the resumed campaign matches the uninterrupted one — so the gate
    catches correctness drift as well as cost drift.
    """
    import os
    import tempfile

    from repro.campaign import (
        CampaignController,
        CampaignInterrupted,
        CampaignStore,
    )
    from repro.fuzz.parallel import ParallelCampaign

    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    cases = plan_test_cases(
        session.trace, list(_REASONS), areas=(MutationArea.VMCS,),
        n_mutations=params["mutations"], rng=random.Random(0),
    )

    def engine() -> ParallelCampaign:
        return ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=0, jobs=1,
        )

    start = time.perf_counter()
    plain = engine().run()
    plain_wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "bench.db")
        start = time.perf_counter()
        with CampaignStore(db) as store:
            full = CampaignController(
                engine(), store, wave_size=1
            ).run()
        store_wall = time.perf_counter() - start

        db2 = os.path.join(tmp, "interrupted.db")
        with CampaignStore(db2) as store:
            try:
                CampaignController(
                    engine(), store, wave_size=1, crash_after_wave=0,
                ).run()
            except CampaignInterrupted:
                pass
        start = time.perf_counter()
        with CampaignStore(db2) as store:
            resumed = CampaignController(
                engine(), store, wave_size=1
            ).run(resume=True)
        resume_wall = time.perf_counter() - start

    def same(a, b) -> bool:
        return (
            a.results == b.results
            and a.merged_corpus() == b.merged_corpus()
            and a.merged_coverage().lines()
            == b.merged_coverage().lines()
        )

    tallies = full.crash_tallies()
    checks: dict[str, object] = {
        "cells": len(full.results),
        "waves": full.waves_total,
        "new_loc": full.merged_coverage().loc,
        "vm_crashes": tallies["vm-crash"],
        "hypervisor_crashes": tallies["hypervisor-crash"],
        "corpus": len(full.merged_corpus()),
        "store_matches_plain": same(full, plain),
        "resume_identical": same(resumed, full),
        "waves_resumed": resumed.waves_resumed,
    }
    info = {
        "checkpoint_overhead": store_wall / plain_wall,
        "resume_wall_seconds": resume_wall,
    }
    # Hermetic per-shard hypervisor clocks are not observable here;
    # zero is the (deterministic) outer-clock cost, as campaign_merge.
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=store_wall,
    )


# ---- differential fuzzing (cross-arch oracle) ------------------------

def differential_fuzz(params: dict[str, int]) -> IterationOutcome:
    """Cross-arch differential campaign: oracle cost + jobs invariance.

    Two arms over the same differential campaign (every mutant
    replayed on vmx natively and on svm via seed translation): serial
    (jobs=1, the measured arm) and pooled (jobs=2).  The checks pin
    the oracle's headline contract — the divergence set, the rendered
    report bytes, and the comparison tallies are jobs-invariant — plus
    the exact divergence and crash counts, so both correctness drift
    and silent oracle decay (zero seeds compared) fail CI.  The info
    records the oracle's wall overhead against a non-differential run
    of the identical campaign.
    """
    from repro.fuzz.differential import (
        iter_divergences,
        render_divergence_report,
    )
    from repro.fuzz.parallel import ParallelCampaign

    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    cases = plan_test_cases(
        session.trace, list(_REASONS), areas=(MutationArea.VMCS,),
        n_mutations=params["mutations"], rng=random.Random(0),
    )

    def engine(jobs: int, differential: bool) -> ParallelCampaign:
        return ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=0, jobs=jobs, arch="vmx",
            differential=differential,
        )

    start = time.perf_counter()
    plain = engine(1, False).run()
    plain_wall = time.perf_counter() - start

    start = time.perf_counter()
    serial = engine(1, True).run()
    serial_wall = time.perf_counter() - start
    pooled = engine(2, True).run()

    def report(outcome) -> str:
        return render_divergence_report(
            list(iter_divergences(outcome.results)),
            seeds_compared=sum(
                r.seeds_compared for r in outcome.results
            ),
            untranslatable_seeds=sum(
                r.untranslatable_seeds for r in outcome.results
            ),
        )

    seeds_compared = sum(r.seeds_compared for r in serial.results)
    divergences = sum(len(r.divergences) for r in serial.results)
    tallies = serial.crash_tallies()
    checks: dict[str, object] = {
        "cells": len(serial.results),
        "divergences": divergences,
        "seeds_compared": seeds_compared,
        "untranslatable_seeds": sum(
            r.untranslatable_seeds for r in serial.results
        ),
        "vm_crashes": tallies["vm-crash"],
        "hypervisor_crashes": tallies["hypervisor-crash"],
        "reports_jobs_invariant": (
            serial.results == pooled.results
            and [r.divergences for r in serial.results]
            == [r.divergences for r in pooled.results]
            and report(serial) == report(pooled)
        ),
        # The oracle must have actually compared something: a silent
        # translation regression would zero this out while every other
        # check still passes.
        "oracle_engaged": seeds_compared > 0 and divergences > 0,
    }
    info = {
        "mutations_per_second": serial.stats.total_mutations
        / serial_wall,
        "oracle_overhead": serial_wall / plain_wall,
    }
    # Hermetic per-shard hypervisor clocks are not observable here;
    # zero is the (deterministic) outer-clock cost, as campaign_merge.
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=serial_wall,
    )


# ---- remote wave (socket transport) ----------------------------------

def remote_wave(params: dict[str, int]) -> IterationOutcome:
    """Campaign over the socket worker transport vs the local path.

    Two arms over the same campaign: the inline (jobs=1) local
    transport, then the identical engine shipping every shard to an
    in-process socket worker through the full wire protocol —
    HELLO/ACK handshake, task/result codecs, heartbeats.  The checks
    pin transport byte-identity (the tentpole differential, gated on
    every CI run) plus zero liveness machinery on a healthy link; the
    info records the wire volume and the transport's wall overhead.
    """
    from repro.campaign import (
        SocketTransport,
        WorkerServer,
        WorkerTransport,
    )
    from repro.fuzz.parallel import ParallelCampaign

    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    cases = plan_test_cases(
        session.trace, list(_REASONS), areas=(MutationArea.VMCS,),
        n_mutations=params["mutations"], rng=random.Random(0),
    )

    def engine(
        transport: WorkerTransport | None = None,
    ) -> ParallelCampaign:
        return ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=0, jobs=1,
            shards_per_cell=params["shards"], transport=transport,
        )

    start = time.perf_counter()
    local = engine().run()
    local_wall = time.perf_counter() - start

    with WorkerServer(heartbeat_interval=0.2) as server:
        transport = SocketTransport(
            [server.address], backoff_base=0.01,
        )
        start = time.perf_counter()
        remote = engine(transport).run()
        remote_wall = time.perf_counter() - start

    tallies = remote.crash_tallies()
    checks: dict[str, object] = {
        "cells": len(remote.results),
        "new_loc": remote.merged_coverage().loc,
        "vm_crashes": tallies["vm-crash"],
        "hypervisor_crashes": tallies["hypervisor-crash"],
        "corpus": len(remote.merged_corpus()),
        "matches_local": (
            remote.results == local.results
            and remote.merged_corpus() == local.merged_corpus()
            and remote.merged_coverage().lines()
            == local.merged_coverage().lines()
        ),
        # A healthy link needs none of the liveness machinery.
        "reassignments": transport.stats.reassignments,
        "retries": transport.stats.retries,
    }
    info = {
        "mutations_per_second": remote.stats.total_mutations
        / remote_wall,
        "transport_overhead": remote_wall / local_wall,
        # Frame/byte counts include heartbeats, whose number depends
        # on wall time — informational, never gated.
        "wire_frames": float(transport.stats.frames),
        "wire_bytes": float(transport.stats.bytes),
    }
    # Shards run on hermetic per-shard hypervisors; zero is the
    # (deterministic) outer-clock cost, as in campaign_merge.
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=remote_wall,
    )


# ---- smart mutation engine -------------------------------------------

def smart_mutation(params: dict[str, int]) -> IterationOutcome:
    """Smart engine vs PoC stack at equal budget + determinism matrix.

    The acceptance gate for the structure-aware mutation engine.  One
    campaign plan, run twice at the identical execution budget — the
    PoC flat stack and the smart staged pipeline — with the check
    pinning that smart covers *strictly more* lines.  The remaining
    arms walk the smart engine through the determinism matrix the PoC
    stack already honors: jobs 1 vs 2, vmx vs svm, local vs socket
    transport, and interrupted-then-resumed via the campaign store —
    every pairing gated byte-identical.
    """
    import os
    import tempfile

    from repro.campaign import (
        CampaignController,
        CampaignInterrupted,
        CampaignStore,
        SocketTransport,
        WorkerServer,
    )
    from repro.campaign.transport import WorkerTransport
    from repro.fuzz.parallel import ParallelCampaign
    from repro.fuzz.testcase import FuzzTestCase

    manager = IrisManager(arch="vmx")
    session = _record(manager, params["exits"])
    svm_manager = IrisManager(arch="svm")
    svm_session = _record(svm_manager, params["exits"])

    def plan(sess: RecordingSession,
             engine_name: str) -> list[FuzzTestCase]:
        return plan_test_cases(
            sess.trace, list(_REASONS), areas=(MutationArea.VMCS,),
            n_mutations=params["mutations"], rng=random.Random(0),
            engine=engine_name,
        )

    def campaign(
        sess: RecordingSession,
        cases: list[FuzzTestCase],
        *,
        jobs: int = 1,
        arch: str = "vmx",
        transport: WorkerTransport | None = None,
    ) -> ParallelCampaign:
        return ParallelCampaign(
            sess.trace, sess.snapshot, cases,
            campaign_seed=0, jobs=jobs, arch=arch,
            transport=transport,
        )

    poc = campaign(session, plan(session, "poc")).run()
    smart_cases = plan(session, "smart")
    start = time.perf_counter()
    smart = campaign(session, smart_cases).run()
    smart_wall = time.perf_counter() - start
    smart_jobs2 = campaign(session, smart_cases, jobs=2).run()

    svm_cases = plan(svm_session, "smart")
    svm_serial = campaign(svm_session, svm_cases, arch="svm").run()
    svm_pooled = campaign(
        svm_session, svm_cases, jobs=2, arch="svm"
    ).run()

    with WorkerServer(heartbeat_interval=0.2) as server:
        transport = SocketTransport(
            [server.address], backoff_base=0.01,
        )
        remote = campaign(
            session, smart_cases, transport=transport
        ).run()

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "smart.db")
        with CampaignStore(db) as store:
            try:
                CampaignController(
                    campaign(session, smart_cases), store,
                    wave_size=1, crash_after_wave=0,
                ).run()
            except CampaignInterrupted:
                pass
        with CampaignStore(db) as store:
            resumed = CampaignController(
                campaign(session, smart_cases), store, wave_size=1,
            ).run(resume=True)

    def same(a, b) -> bool:
        return (
            a.results == b.results
            and a.merged_corpus() == b.merged_corpus()
            and a.merged_coverage().lines()
            == b.merged_coverage().lines()
        )

    poc_loc = poc.merged_coverage().loc
    smart_loc = smart.merged_coverage().loc
    tallies = smart.crash_tallies()
    checks: dict[str, object] = {
        "cells": len(smart.results),
        "poc_new_loc": poc_loc,
        "smart_new_loc": smart_loc,
        # The headline gate: strictly more coverage from the same
        # number of executions.
        "smart_strictly_beats_poc": smart_loc > poc_loc,
        "equal_budget": (
            poc.stats.total_mutations == smart.stats.total_mutations
        ),
        "vm_crashes": tallies["vm-crash"],
        "hypervisor_crashes": tallies["hypervisor-crash"],
        "corpus": len(smart.merged_corpus()),
        # The smart determinism matrix, all byte-identical.
        "jobs_invariant": same(smart, smart_jobs2),
        "svm_jobs_invariant": same(svm_serial, svm_pooled),
        "socket_identical": same(remote, smart),
        "resume_identical": same(resumed, smart),
        "waves_resumed": resumed.waves_resumed,
    }
    info = {
        "mutations_per_second": smart.stats.total_mutations
        / smart_wall,
        "coverage_gain_loc": float(smart_loc - poc_loc),
    }
    # Hermetic per-shard hypervisor clocks are not observable here;
    # zero is the (deterministic) outer-clock cost, as campaign_merge.
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=smart_wall,
    )


# ---- data-plane microbenchmarks --------------------------------------
#
# Both scenarios race the current data-plane implementation against a
# faithful in-file replica of what it replaced (the set-of-tuples
# CoverageMap; the per-entry frozen-dataclass seed codec).  The replica
# is the baseline arm, so the recorded speedup keeps measuring the real
# before/after — not a strawman — and the checks pin exact behavioral
# parity between the arms on every run.


class _LegacySetCoverage:
    """The pre-bitmap ``CoverageMap``: a set of (file, line) tuples."""

    __slots__ = ("_lines",)

    def __init__(self) -> None:
        self._lines: set[tuple[str, int]] = set()

    def hit(self, block: SourceBlock) -> None:
        self._lines.update(block.lines())

    @property
    def loc(self) -> int:
        return sum(1 for f, _ in self._lines if f != IRIS_FILE)

    @classmethod
    def union_all(
        cls, maps: Iterable["_LegacySetCoverage"]
    ) -> "_LegacySetCoverage":
        merged = cls()
        for cov in maps:
            merged._lines |= cov._lines
        return merged


def coverage_union(params: dict[str, int]) -> IterationOutcome:
    """Bitmap coverage hit/union/loc vs the legacy set-of-tuples map.

    Simulates the campaign access pattern: many shard maps each hit a
    deterministic sequence of blocks (with heavy overlap), then the
    shards are unioned and counted — exactly what every parallel merge
    does per cell.
    """
    rng = random.Random(2)
    blocks: list[SourceBlock] = []
    for file in INSTRUMENTED_FILES:
        allocator = BlockAllocator(file)
        for _ in range(params["blocks_per_file"]):
            blocks.append(allocator.block(rng.randrange(1, 9)))
    hit_plan = [
        [rng.randrange(len(blocks)) for _ in range(params["hits"])]
        for _ in range(params["maps"])
    ]

    # Interleaved best-of-rounds, as in :func:`seed_codec`: per-arm
    # minima of a deterministic workload measure the code, not the
    # scheduler.
    rounds = 3
    wall_new = wall_old = float("inf")
    merged_new = CoverageMap()
    merged_old = _LegacySetCoverage()
    loc_new = loc_old = 0
    for _ in range(rounds):
        shards_new = []
        merged_new = CoverageMap()
        start = time.perf_counter()
        shards_new = []
        for plan in hit_plan:
            cov = CoverageMap()
            hit = cov.hit
            for index in plan:
                hit(blocks[index])
            shards_new.append(cov)
        merged_new = CoverageMap.union_all(shards_new)
        loc_new = merged_new.loc
        wall_new = min(wall_new, time.perf_counter() - start)

        shards_old = []
        merged_old = _LegacySetCoverage()
        start = time.perf_counter()
        shards_old = []
        for plan in hit_plan:
            legacy = _LegacySetCoverage()
            hit_old = legacy.hit
            for index in plan:
                hit_old(blocks[index])
            shards_old.append(legacy)
        merged_old = _LegacySetCoverage.union_all(shards_old)
        loc_old = merged_old.loc
        wall_old = min(wall_old, time.perf_counter() - start)

    hits = params["maps"] * params["hits"]
    checks: dict[str, object] = {
        "maps": params["maps"],
        "merged_loc": loc_new,
        "loc_matches_legacy": loc_new == loc_old,
        "lines_match_legacy": (
            merged_new.lines() == frozenset(merged_old._lines)
        ),
    }
    info = {
        "hits_per_second_new": hits / wall_new,
        "hits_per_second_legacy": hits / wall_old,
        "speedup": wall_old / wall_new,
    }
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=wall_new,
    )


_LEGACY_ENTRY_STRUCT = struct.Struct("<BBQ")


@dataclass(frozen=True)
class _LegacyEntry:
    """The pre-batching seed entry: frozen dataclass, per-entry codec."""

    flag: SeedFlag
    encoding: int
    value: int

    def pack(self) -> bytes:
        return _LEGACY_ENTRY_STRUCT.pack(
            int(self.flag), self.encoding, self.value & (1 << 64) - 1
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "_LegacyEntry":
        try:
            flag, encoding, value = _LEGACY_ENTRY_STRUCT.unpack(raw)
            kind = SeedFlag(flag)
        except (struct.error, ValueError) as exc:
            raise SeedFormatError(f"bad seed entry: {exc}") from exc
        try:
            if kind is SeedFlag.GPR:
                GPR(encoding)
            else:
                field_by_index(encoding)
        except ValueError:
            raise SeedFormatError(
                f"bad seed entry: encoding {encoding}"
            ) from None
        return cls(kind, encoding, value)


def _legacy_pack_seed(
    exit_reason: int, entries: list[_LegacyEntry]
) -> bytes:
    header = struct.pack("<HH", exit_reason & 0xFFFF, len(entries))
    return header + b"".join(e.pack() for e in entries)


def _legacy_unpack_seed(
    blob: bytes,
) -> tuple[int, list[_LegacyEntry]]:
    buf = io.BytesIO(blob)
    header = buf.read(4)
    if len(header) != 4:
        raise SeedFormatError("truncated seed header")
    exit_reason, count = struct.unpack("<HH", header)
    entries = []
    for _ in range(count):
        raw = buf.read(SEED_ENTRY_SIZE)
        if len(raw) != SEED_ENTRY_SIZE:
            raise SeedFormatError("truncated seed entry")
        entries.append(_LegacyEntry.unpack(raw))
    if buf.read(1):
        raise SeedFormatError("trailing bytes")
    return exit_reason, entries


def seed_codec(params: dict[str, int]) -> IterationOutcome:
    """Batched seed pack/unpack vs the legacy per-entry codec.

    Seeds follow the paper's worst-case shape (15 GPR entries plus the
    VMCS-op budget, §VI-D).  The checks pin byte-identical wire output
    and triple-identical decode between the arms.
    """
    rng = random.Random(3)
    gprs = list(GPR)
    seeds: list[VMSeed] = []
    for _ in range(params["seeds"]):
        entries = [
            SeedEntry.for_gpr(g, rng.getrandbits(64)) for g in gprs
        ]
        entries.extend(
            SeedEntry(
                SeedFlag.VMCS_READ,
                rng.randrange(len(ALL_FIELDS)),
                rng.getrandbits(64),
            )
            for _ in range(params["vmcs_ops"])
        )
        seeds.append(VMSeed(
            exit_reason=rng.randrange(1 << 16), entries=entries,
        ))
    legacy_seeds = [
        (s.exit_reason, [_LegacyEntry(*e) for e in s.entries])
        for s in seeds
    ]

    # Each arm's wall is the best of several interleaved rounds: the
    # codecs are deterministic, so per-arm minima measure the code and
    # not the scheduler, and the speedup of minima stays a property of
    # the code rather than of the machine's mood.  The previous round's
    # objects are dropped *before* starting a timer so deallocation
    # never lands inside a timed window.
    rounds = 7
    wall_new_pack = wall_new_unpack = float("inf")
    wall_old_pack = wall_old_unpack = float("inf")
    blobs_new: list[bytes] = []
    blobs_old: list[bytes] = []
    decoded_new: list[VMSeed] = []
    decoded_old: list[tuple[int, list[_LegacyEntry]]] = []
    for _ in range(rounds):
        blobs_new = []
        start = time.perf_counter()
        blobs_new = [s.pack() for s in seeds]
        wall_new_pack = min(wall_new_pack, time.perf_counter() - start)
        decoded_new = []
        start = time.perf_counter()
        decoded_new = [VMSeed.from_bytes(b) for b in blobs_new]
        wall_new_unpack = min(
            wall_new_unpack, time.perf_counter() - start
        )

        blobs_old = []
        start = time.perf_counter()
        blobs_old = [
            _legacy_pack_seed(reason, entries)
            for reason, entries in legacy_seeds
        ]
        wall_old_pack = min(wall_old_pack, time.perf_counter() - start)
        decoded_old = []
        start = time.perf_counter()
        decoded_old = [_legacy_unpack_seed(b) for b in blobs_old]
        wall_old_unpack = min(
            wall_old_unpack, time.perf_counter() - start
        )
    pack_speedup = wall_old_pack / wall_new_pack
    unpack_speedup = wall_old_unpack / wall_new_unpack
    total_speedup = (wall_old_pack + wall_old_unpack) / (
        wall_new_pack + wall_new_unpack
    )

    total_bytes = sum(len(b) for b in blobs_new)
    digest = hashlib.sha256()
    for blob in blobs_new:
        digest.update(blob)
    wall_new = wall_new_pack + wall_new_unpack
    wall_old = wall_old_pack + wall_old_unpack
    checks: dict[str, object] = {
        "seeds": len(seeds),
        "entries_total": sum(len(s.entries) for s in seeds),
        "blob_bytes": total_bytes,
        "blob_digest": digest.hexdigest()[:16],
        "bytes_match_legacy": blobs_new == blobs_old,
        "roundtrip_identical": decoded_new == seeds,
        "roundtrip_matches_legacy": all(
            reason == s.exit_reason
            and len(entries) == len(s.entries)
            and all(
                (e.flag, e.encoding, e.value) == tuple(n)
                for e, n in zip(entries, s.entries)
            )
            for (reason, entries), s in zip(decoded_old, seeds)
        ),
    }
    info = {
        "mb_per_second_new": total_bytes / wall_new / 1e6,
        "mb_per_second_legacy": total_bytes / wall_old / 1e6,
        "pack_speedup": pack_speedup,
        "unpack_speedup": unpack_speedup,
        "speedup": total_speedup,
    }
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=wall_new,
    )


def trace_io(params: dict[str, int]) -> IterationOutcome:
    """Streamed IRISTRC2 trace I/O vs the per-record IRISTRC1 path.

    Three hot regions, each the best of several interleaved rounds:
    the full-file write (streamed batches vs four small writes plus a
    JSON metrics encode per record), the cold index-only
    ``reason_histogram()`` scan (footer index vs eager full decode),
    and random-access seeks into the file.  Checks pin the v2 file's
    byte digest, decode-for-decode record identity with the legacy
    loader, and — via the reader's decode counter — that the
    histogram touched zero payload bytes.  The speedups themselves are
    wall-derived and live in ``info`` (the committed baseline records
    the streamed write beating the legacy path >=2x); putting them in
    ``checks`` would make the deterministic fingerprint flap with
    machine noise.
    """
    import os
    import tempfile

    from repro.core.seed import ExitMetrics, Trace, VMExitRecord
    from repro.core.tracestore import TraceReader, write_trace

    rng = random.Random(11)
    gprs = list(GPR)
    # Realistic hypervisor source paths: the legacy JSON codec
    # re-encodes every name per line per record, the v2 name table
    # interns each once.
    cover_files = [
        f"hypervisor/arch/x86/vmx/handlers/exit_{i:02d}_dispatch.c"
        for i in range(24)
    ]
    records: list[VMExitRecord] = []
    for i in range(params["records"]):
        entries = [
            SeedEntry.for_gpr(g, rng.getrandbits(64)) for g in gprs
        ]
        entries.extend(
            SeedEntry(
                SeedFlag.VMCS_READ,
                rng.randrange(len(ALL_FIELDS)),
                rng.getrandbits(64),
            )
            for _ in range(params["vmcs_ops"])
        )
        seed = VMSeed(
            exit_reason=rng.randrange(60), entries=entries,
        )
        metrics = ExitMetrics(
            vmwrites=[
                (field_by_index(rng.randrange(len(ALL_FIELDS))),
                 rng.getrandbits(64))
                for _ in range(6)
            ],
            coverage=CoverageMap(
                (rng.choice(cover_files), rng.randrange(4000))
                for _ in range(params["coverage_lines"])
            ),
            handler_cycles=rng.getrandbits(32),
            guest_cycles=rng.getrandbits(40),
        )
        records.append(VMExitRecord(seed=seed, metrics=metrics))
    trace = Trace(workload="bench", records=records)
    seeks = [
        rng.randrange(len(records)) for _ in range(params["seeks"])
    ]

    rounds = 5
    wall_v1_write = wall_v2_write = float("inf")
    wall_v1_hist = wall_v2_hist = float("inf")
    wall_v1_seek = wall_v2_seek = float("inf")
    hist_v1: dict[str, int] = {}
    hist_v2: dict[str, int] = {}
    hist_decoded = -1
    seeks_v1: list[VMExitRecord] = []
    seeks_v2: list[VMExitRecord] = []
    v2_bytes = b""
    reloaded = Trace(workload="")
    with tempfile.TemporaryDirectory(prefix="iris-bench-") as tmp:
        v1 = os.path.join(tmp, "t.iris")
        v2 = os.path.join(tmp, "t.iris2")
        for _ in range(rounds):
            start = time.perf_counter()
            trace.save(v1)
            wall_v1_write = min(
                wall_v1_write, time.perf_counter() - start
            )
            start = time.perf_counter()
            write_trace(trace, v2)
            wall_v2_write = min(
                wall_v2_write, time.perf_counter() - start
            )

            # Cold exit-reason histogram: the corpus-triage question
            # ("what's in this file?") that should not pay full decode.
            start = time.perf_counter()
            hist_v1 = Trace.load(v1).reason_histogram()
            wall_v1_hist = min(
                wall_v1_hist, time.perf_counter() - start
            )
            start = time.perf_counter()
            with TraceReader(v2) as reader:
                hist_v2 = reader.reason_histogram()
                hist_decoded = reader.stats.records_decoded
            wall_v2_hist = min(
                wall_v2_hist, time.perf_counter() - start
            )

            # Random-access seeks into the stored trace.
            start = time.perf_counter()
            eager = Trace.load(v1)
            seeks_v1 = [eager.records[i] for i in seeks]
            wall_v1_seek = min(
                wall_v1_seek, time.perf_counter() - start
            )
            start = time.perf_counter()
            with TraceReader(v2) as reader:
                seeks_v2 = [reader[i] for i in seeks]
            wall_v2_seek = min(
                wall_v2_seek, time.perf_counter() - start
            )
        v2_bytes = open(v2, "rb").read()
        v1_size = os.path.getsize(v1)
        with TraceReader(v2) as reader:
            reloaded = reader.materialize()

    write_speedup = wall_v1_write / wall_v2_write
    checks: dict[str, object] = {
        "records": len(records),
        "v2_file_bytes": len(v2_bytes),
        "v2_digest": hashlib.sha256(v2_bytes).hexdigest()[:16],
        "histogram_matches_legacy": hist_v2 == hist_v1,
        "histogram_decoded_records": hist_decoded,
        "seeks_match_legacy": seeks_v2 == seeks_v1,
        "roundtrip_identical": reloaded.records == records,
    }
    info = {
        "write_speedup": write_speedup,
        "histogram_speedup": wall_v1_hist / wall_v2_hist,
        "seek_speedup": wall_v1_seek / wall_v2_seek,
        "write_mb_per_second": len(v2_bytes) / wall_v2_write / 1e6,
        "v1_file_bytes": float(v1_size),
    }
    wall = wall_v2_write + wall_v2_hist + wall_v2_seek
    return IterationOutcome(
        cycles=0, checks=checks, info=info, wall=wall,
    )


# ---- registry --------------------------------------------------------

class Scenario:
    """A named scenario with its default parameters."""

    def __init__(
        self,
        name: str,
        fn: ScenarioFn,
        params: dict[str, int],
        description: str,
    ) -> None:
        self.name = name
        self.fn = fn
        self.params = dict(params)
        self.description = description


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "snapshot_roundtrip", snapshot_roundtrip,
            {"exits": 120, "iters": 60},
            "take_snapshot + drift + restore_snapshot, fast vs full",
        ),
        Scenario(
            "seed_replay", seed_replay,
            {"exits": 400},
            "replay a recorded trace through a fresh dummy VM",
        ),
        Scenario(
            "fuzz_exec", fuzz_exec,
            {"exits": 160, "mutations": 6, "rounds": 4},
            "serial fuzz-loop exec/s on VT-x, fast reset vs rebuild",
        ),
        Scenario(
            "fuzz_exec_svm", fuzz_exec_svm,
            {"exits": 160, "mutations": 6, "rounds": 4},
            "serial fuzz-loop exec/s on SVM, fast reset vs rebuild",
        ),
        Scenario(
            "campaign_merge", campaign_merge,
            {"exits": 160, "mutations": 12, "shards": 4},
            "sharded campaign + deterministic merge (jobs=1 inline)",
        ),
        Scenario(
            "campaign_checkpoint", campaign_checkpoint,
            {"exits": 160, "mutations": 12},
            "store-backed checkpoint/resume control plane vs bare "
            "engine",
        ),
        Scenario(
            "differential_fuzz", differential_fuzz,
            {"exits": 160, "mutations": 12},
            "cross-arch differential campaign: oracle overhead + "
            "jobs-invariant divergence reports",
        ),
        Scenario(
            "remote_wave", remote_wave,
            {"exits": 160, "mutations": 12, "shards": 2},
            "campaign wave over the socket worker transport vs "
            "local (byte-identity + overhead)",
        ),
        Scenario(
            "smart_mutation", smart_mutation,
            {"exits": 160, "mutations": 24},
            "structure-aware engine vs PoC stack at equal budget + "
            "the smart determinism matrix (jobs/arch/transport/"
            "resume)",
        ),
        Scenario(
            "coverage_union", coverage_union,
            {"blocks_per_file": 24, "maps": 128, "hits": 2000},
            "bitmap CoverageMap hit/union/loc vs legacy set-of-tuples",
        ),
        Scenario(
            "seed_codec", seed_codec,
            {"seeds": 1500, "vmcs_ops": 32},
            "batched zero-copy seed codec vs legacy per-entry codec",
        ),
        Scenario(
            "trace_io", trace_io,
            {
                "records": 1200, "vmcs_ops": 16,
                "coverage_lines": 32, "seeks": 64,
            },
            "streamed IRISTRC2 write + lazy index-only reads vs the "
            "per-record IRISTRC1 save/load path",
        ),
    )
}
