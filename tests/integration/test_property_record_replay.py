"""Property-based integration: record/replay over random op streams.

Hypothesis generates arbitrary (but architecturally sensible) guest op
streams; the invariants under test are the paper's core claims:

* recording never perturbs the guest's execution outcome;
* every recorded seed replays cleanly from the recording snapshot;
* the handled exit-reason sequence is reproduced exactly;
* seeds respect the 470-byte worst case;
* the trace's binary round trip is lossless.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.manager import IrisManager
from repro.core.replay import ReplayOutcome
from repro.core.seed import Trace, WORST_CASE_SEED_BYTES
from repro.guest.ops import GuestOp, OpKind
from repro.x86.msr import Msr

# Op generators: sensible operands only (the guest is well-behaved;
# hostile inputs are the fuzzer's department).
_cycles = st.integers(min_value=1_000, max_value=200_000)

op_strategies = st.one_of(
    st.builds(GuestOp, kind=st.just(OpKind.RDTSC), cycles=_cycles),
    st.builds(
        GuestOp, kind=st.just(OpKind.CPUID), cycles=_cycles,
        leaf=st.sampled_from([0x0, 0x1, 0x7, 0x80000000, 0x9999]),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.IO_OUT), cycles=_cycles,
        port=st.sampled_from([0x20, 0x40, 0x70, 0x80, 0x3F8, 0xCF8,
                              0x1F2]),
        value=st.integers(min_value=0, max_value=0xFF),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.IO_IN), cycles=_cycles,
        port=st.sampled_from([0x21, 0x71, 0x3FD, 0xCFC, 0x1F7]),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.RDMSR), cycles=_cycles,
        msr=st.sampled_from([
            int(Msr.IA32_APIC_BASE), int(Msr.IA32_PAT),
            int(Msr.IA32_EFER), int(Msr.IA32_MISC_ENABLE),
        ]),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.WRMSR), cycles=_cycles,
        msr=st.just(int(Msr.IA32_PAT)),
        value=st.just(0x0007040600070406),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.MMIO_WRITE), cycles=_cycles,
        gpa=st.sampled_from([0xFEE000B0, 0xFEE00080, 0x30000000]),
        opcode=st.sampled_from([0x89, 0x8B, 0xC7]),
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.PAUSE), cycles=_cycles,
    ),
    st.builds(
        GuestOp, kind=st.just(OpKind.EXEC),
        cycles=st.integers(min_value=1_000, max_value=5_000_000),
    ),
)


class _OpListWorkload:
    """Adapter: a fixed op list as a recordable workload."""

    def __init__(self, ops):
        self._ops = ops
        self.name = "property"

    def run(self, machine, max_exits):
        return machine.run(iter(self._ops), max_exits=max_exits)

    def configure(self, machine):
        return None


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(op_strategies, min_size=5, max_size=40))
def test_random_streams_record_and_replay(ops):
    manager = IrisManager()
    machine = manager.create_test_vm(machine_seed=1)
    session = manager.record_workload(
        _OpListWorkload(ops), n_exits=100, precondition=None,
    )
    trace = session.trace
    exiting = [op for op in ops if op.exits]
    # Recording observed at least the sensitive ops (plus possibly
    # host-timer interrupts).
    assert len(trace) >= min(len(exiting), 100)

    # The 470-byte worst case holds for arbitrary streams.
    assert all(
        seed.size_bytes() <= WORST_CASE_SEED_BYTES
        for seed in trace.seeds()
    )

    # Replay from the snapshot: every seed is accepted and handled as
    # the recorded reason, in order.
    replay = manager.replay_trace(
        trace, from_snapshot=session.snapshot
    )
    assert replay.completed == len(trace)
    for record, result in zip(trace.records, replay.results):
        assert result.outcome is ReplayOutcome.OK
        assert result.handled_reason is record.seed.reason


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategies, min_size=3, max_size=20),
       data=st.randoms(use_true_random=False))
def test_trace_binary_roundtrip_arbitrary(tmp_path_factory, ops,
                                          data):
    manager = IrisManager()
    manager.create_test_vm(machine_seed=2)
    session = manager.record_workload(
        _OpListWorkload(ops), n_exits=50, precondition=None,
    )
    path = tmp_path_factory.mktemp("traces") / "t.iris"
    session.trace.save(path)
    loaded = Trace.load(path)
    assert len(loaded) == len(session.trace)
    for original, reloaded in zip(session.trace.records,
                                  loaded.records):
        assert reloaded.seed.entries == original.seed.entries
        assert reloaded.seed.exit_reason == original.seed.exit_reason
        assert reloaded.metrics.vmwrites == original.metrics.vmwrites
        assert reloaded.metrics.coverage == original.metrics.coverage
