"""Warm shard workers: prefix checkpoints never change a shard's outcome.

A worker context keeps :class:`PrefixCheckpoints` so a shard reaches its
target from the nearest stored prefix instead of replaying the trace
from seed 0.  The invariant under test: every ``ShardOutcome`` — result
*and* hermetic metrics — equals what a fresh-manager ``run_shard``
produces, whatever order tasks reach the warm context in, whichever
arch, engine and metrics mode they carry, however often a task
repeats, and whether its checkpoint was frozen by this worker or
relayed from another one.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import IrisManager
from repro.fuzz import checkpoints as checkpoints_mod
from repro.core.snapshot import take_snapshot
from repro.campaign.transport import LocalPoolTransport, TransportContext
from repro.fuzz.checkpoints import (
    MAX_PREFIX_CHECKPOINTS,
    PrefixCheckpoints,
    replay_prefix,
)
from repro.fuzz.parallel import (
    ParallelCampaign,
    ShardTask,
    WorkerContext,
    _execute_task,
    run_shard,
)
from repro.fuzz.testcase import plan_test_cases
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    observability,
)

ARCHES = ("vmx", "svm")
ENGINES = ("poc", "smart")


@pytest.fixture(scope="module")
def recordings():
    """One small recording per arch, planned over every recorded reason."""
    planned = {}
    for arch in ARCHES:
        session = IrisManager(arch=arch).record_workload(
            "cpu-bound", n_exits=120
        )
        reasons = sorted(
            {record.seed.reason for record in session.trace.records},
            key=int,
        )
        planned[arch] = (session, reasons)
    return planned


def plan(recordings, arch, engine, **kwargs) -> list[ShardTask]:
    session, reasons = recordings[arch]
    cases = plan_test_cases(
        session.trace, reasons, n_mutations=4,
        rng=random.Random(7), engine=engine,
    )
    return ParallelCampaign(
        session.trace, session.snapshot, cases, campaign_seed=3,
        shards_per_cell=2, arch=arch, **kwargs,
    ).plan()


def fresh(task: ShardTask, session) -> tuple[object, MetricsSnapshot]:
    """The reference: a fresh-manager shard with hermetic metrics."""
    registry = MetricsRegistry(record_wall=False)
    with observability(tracer=NULL_TRACER, metrics=registry):
        result = run_shard(task, session.trace, session.snapshot)
    return result, registry.snapshot()


@pytest.fixture(scope="module")
def references(recordings):
    """Fresh-manager outcomes per (arch, engine), keyed by shard."""
    refs = {}
    for arch in ARCHES:
        for engine in ENGINES:
            session, _ = recordings[arch]
            refs[(arch, engine)] = {
                (task.cell_index, task.shard_index): fresh(task, session)
                for task in plan(recordings, arch, engine)
            }
    return refs


def assert_matches_fresh(outcome, task, refs) -> None:
    assert outcome.ok, outcome.error_traceback
    result, metrics = refs[(task.cell_index, task.shard_index)]
    assert outcome.result == result
    if task.collect_metrics:
        assert outcome.metrics == metrics
    else:
        assert outcome.metrics is None


def reached_state(manager: IrisManager) -> tuple:
    """What a reached manager exposes: clock, guest state, log, exits."""
    hv = manager.hv
    assert manager.dummy_vm is not None
    return (
        hv.clock.now,
        manager.dummy_vm.domid,
        take_snapshot(hv, manager.dummy_vm),
        hv.log.tail(64),
        hv.stats.total_exits,
        hv.exit_coverage.lines(),
    )


class TestWarmWorkerInvariance:
    @settings(max_examples=10, deadline=None)
    @given(
        arch=st.sampled_from(ARCHES),
        targets=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    )
    def test_reach_lands_on_the_cold_state_invariant(
        self, recordings, arch, targets
    ):
        session, _ = recordings[arch]
        store = PrefixCheckpoints(
            session.trace, session.snapshot, arch, metrics=False
        )
        for target in targets:
            cold = IrisManager.cold_start(
                arch, fast_reset=True, snapshot=session.snapshot
            )
            cold.create_dummy_vm(from_snapshot=session.snapshot)
            replay_prefix(cold, session.trace.records[:target])
            assert reached_state(store.reach(target)) == \
                reached_state(cold)

    @settings(max_examples=12, deadline=None)
    @given(
        arch=st.sampled_from(ARCHES),
        engine=st.sampled_from(ENGINES),
        data=st.data(),
    )
    def test_any_task_order_matches_fresh_shards(
        self, recordings, references, arch, engine, data
    ):
        session, _ = recordings[arch]
        base = plan(recordings, arch, engine)
        order = data.draw(st.permutations(base), label="order")
        # A campaign fixes collect_metrics for all of its shards.
        collect = data.draw(st.booleans(), label="collect_metrics")
        context = WorkerContext(session.trace, session.snapshot)
        refs = references[(arch, engine)]
        for task in order:
            task = replace(task, collect_metrics=collect)
            assert_matches_fresh(_execute_task(task, context), task, refs)
        store = context.checkpoints(arch, collect)
        assert 0 < len(store) <= MAX_PREFIX_CHECKPOINTS

    @pytest.mark.parametrize("arch", ARCHES)
    def test_repeated_task_is_invariant(
        self, recordings, references, arch
    ):
        """Running a task again reuses its own checkpoint, which the
        first run must not have mutated."""
        session, _ = recordings[arch]
        context = WorkerContext(session.trace, session.snapshot)
        refs = references[(arch, "poc")]
        for task in plan(recordings, arch, "poc", collect_metrics=True):
            for _ in range(2):
                assert_matches_fresh(
                    _execute_task(task, context), task, refs
                )

    def test_store_cap_is_invariant(
        self, recordings, references, monkeypatch
    ):
        """A tiny cap evicts constantly; outcomes never notice."""
        monkeypatch.setattr(checkpoints_mod, "MAX_PREFIX_CHECKPOINTS", 2)
        session, _ = recordings["vmx"]
        context = WorkerContext(session.trace, session.snapshot)
        store = context.checkpoints("vmx", True)
        refs = references[("vmx", "smart")]
        tasks = plan(recordings, "vmx", "smart", collect_metrics=True)
        assert len({task.seed_index for task in tasks}) > 2
        for task in reversed(tasks):
            assert_matches_fresh(_execute_task(task, context), task, refs)
            assert len(store) <= 2

    def test_full_reset_shards_stay_cold_invariant(
        self, recordings, references
    ):
        """``fast_reset=False`` shards are the fresh-manager reference:
        they never read or fill the store."""
        session, _ = recordings["vmx"]
        context = WorkerContext(session.trace, session.snapshot)
        refs = references[("vmx", "poc")]
        for task in plan(recordings, "vmx", "poc", fast_reset=False):
            assert_matches_fresh(_execute_task(task, context), task, refs)
        assert len(context.checkpoints("vmx", False)) == 0

    def test_differential_shards_are_invariant(self, recordings):
        session, _ = recordings["vmx"]
        tasks = plan(recordings, "vmx", "poc", differential=True,
                     collect_metrics=True)
        refs = {
            (task.cell_index, task.shard_index): fresh(task, session)
            for task in tasks
        }
        context = WorkerContext(session.trace, session.snapshot)
        for task in reversed(tasks):
            assert_matches_fresh(_execute_task(task, context), task, refs)

    def test_mismatched_store_is_refused(self, recordings):
        vmx, _ = recordings["vmx"]
        svm, _ = recordings["svm"]
        task = plan(recordings, "vmx", "poc")[0]
        wrong_arch = WorkerContext(vmx.trace, vmx.snapshot)
        with pytest.raises(ValueError, match="checkpoint store"):
            run_shard(task, vmx.trace, vmx.snapshot,
                      wrong_arch.checkpoints("svm", False))
        wrong_trace = WorkerContext(svm.trace, vmx.snapshot)
        with pytest.raises(ValueError, match="checkpoint store"):
            run_shard(task, vmx.trace, vmx.snapshot,
                      wrong_trace.checkpoints("vmx", False))
        collecting = WorkerContext(vmx.trace, vmx.snapshot)
        with pytest.raises(ValueError, match="metrics=True"):
            run_shard(task, vmx.trace, vmx.snapshot,
                      collecting.checkpoints("vmx", True))

    @settings(max_examples=8, deadline=None)
    @given(
        arch=st.sampled_from(ARCHES),
        collect=st.booleans(),
        data=st.data(),
    )
    def test_relayed_checkpoints_are_invariant(
        self, recordings, references, arch, collect, data
    ):
        """Checkpoints one worker freezes on its way to a deep target
        (its waypoints) serve another worker's shards exactly."""
        session, _ = recordings[arch]
        tasks = [
            replace(task, collect_metrics=collect)
            for task in plan(recordings, arch, "poc")
        ]
        targets = sorted({task.seed_index for task in tasks})
        relayed: dict[int, object] = {}
        walker = WorkerContext(
            session.trace, session.snapshot,
            publish=lambda key, index, checkpoint: relayed.setdefault(
                index, checkpoint
            ),
        )
        deepest = max(tasks, key=lambda task: task.seed_index)
        walker.checkpoints(arch, collect).waypoints = frozenset(targets)
        refs = references[(arch, "poc")]
        assert_matches_fresh(_execute_task(deepest, walker), deepest, refs)
        assert set(relayed) == set(targets)

        other = WorkerContext(session.trace, session.snapshot)
        store = other.checkpoints(arch, collect)
        for task in data.draw(st.permutations(tasks), label="order"):
            store.adopt(task.seed_index, relayed[task.seed_index])
            assert_matches_fresh(_execute_task(task, other), task, refs)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_pool_relay_matches_fresh_shards_invariant(
        self, recordings, references, jobs
    ):
        """Two pool waves end with the parent holding one relayed
        checkpoint per target, and fresh-shard outcomes — also with
        more workers than cores publishing at once.  The second wave's
        deeper shards start from checkpoints the first wave relayed.
        The deadline turns a relay deadlock into a failure instead of
        a hang."""
        session, _ = recordings["vmx"]
        tasks = plan(recordings, "vmx", "poc")
        middle = sorted(task.seed_index for task in tasks)[len(tasks) // 2]
        waves = (
            [task for task in tasks if task.seed_index < middle],
            [task for task in tasks if task.seed_index >= middle],
        )
        assert all(waves)
        transport = LocalPoolTransport(jobs=jobs, shard_timeout=120)
        transport.prime(TransportContext(session.trace, session.snapshot))
        try:
            outcomes = [
                outcome for wave in waves
                for outcome in transport.run_tasks(wave)
            ]
        finally:
            transport.close()
        tasks = [task for wave in waves for task in wave]
        refs = references[("vmx", "poc")]
        for task, outcome in zip(tasks, outcomes):
            assert_matches_fresh(outcome, task, refs)
        relayed = transport._relayed[("vmx", False)]
        assert set(relayed) == {task.seed_index for task in tasks}
