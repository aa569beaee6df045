"""Unit tests for the replaying component."""

import pytest

from repro.core.record import Recorder
from repro.core.replay import ReplayOutcome, Replayer
from repro.core.seed import SeedEntry, SeedFlag, VMSeed
from repro.hypervisor.domain import DomainType
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.preemption_timer import PIN_BASED_PREEMPTION_TIMER
from repro.vmx.vmcs_fields import VmcsField
from repro.x86.registers import GPR

from tests.hypervisor.util import deliver


@pytest.fixture
def dummy(hv):
    domain = hv.create_domain(DomainType.HVM, name="dummy",
                              is_dummy=True)
    return domain


@pytest.fixture
def replayer(hv, dummy):
    replayer = Replayer(hv, dummy.vcpus[0])
    yield replayer
    replayer.detach()


def rdtsc_seed(rip=0x8000):
    """A hand-crafted RDTSC seed (the paper's 'crafted seed' case)."""
    return VMSeed(
        exit_reason=int(ExitReason.RDTSC),
        entries=[
            SeedEntry.for_gpr(GPR.RAX, 0),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.VM_EXIT_REASON,
                int(ExitReason.RDTSC),
            ),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.GUEST_CR4, 0
            ),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.TSC_OFFSET, 0
            ),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.GUEST_RIP, rip
            ),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ,
                VmcsField.VM_EXIT_INSTRUCTION_LEN, 2,
            ),
        ],
    )


class TestDummyVmSetup:
    def test_preemption_timer_armed_at_zero(self, replayer):
        assert replayer.timer.active
        assert replayer.timer.value == 0
        controls = replayer.vcpu.vmcs.read(
            VmcsField.PIN_BASED_VM_EXEC_CONTROL
        )
        assert controls & PIN_BASED_PREEMPTION_TIMER

    def test_dummy_memory_has_background_pattern(self, dummy):
        assert dummy.memory.background_pattern is not None


class TestSeedSubmission:
    def test_seed_redirects_preemption_exit(self, hv, replayer):
        result = replayer.submit(rdtsc_seed())
        assert result.outcome is ReplayOutcome.OK
        assert result.handled_reason is ExitReason.RDTSC
        # The physical exit was the preemption timer.
        assert hv.stats.by_reason.get(ExitReason.PREEMPTION_TIMER) \
            is None

    def test_gprs_loaded_into_hypervisor_structures(self, hv,
                                                    replayer):
        seed = rdtsc_seed()
        seed.entries[0] = SeedEntry.for_gpr(GPR.RAX, 0xCAFE)
        replayer.submit(seed)
        # RDTSC overwrote RAX afterwards, but injection happened: use a
        # CPUID seed instead to observe the input leaf.
        cpuid = VMSeed(
            exit_reason=int(ExitReason.CPUID),
            entries=[
                SeedEntry.for_gpr(GPR.RAX, 0x80000000),
                SeedEntry.for_vmcs(
                    SeedFlag.VMCS_READ, VmcsField.VM_EXIT_REASON,
                    int(ExitReason.CPUID),
                ),
                SeedEntry.for_vmcs(
                    SeedFlag.VMCS_READ, VmcsField.GUEST_RIP, 0x8000
                ),
                SeedEntry.for_vmcs(
                    SeedFlag.VMCS_READ,
                    VmcsField.VM_EXIT_INSTRUCTION_LEN, 2,
                ),
            ],
        )
        result = replayer.submit(cpuid)
        assert result.outcome is ReplayOutcome.OK
        # CPUID leaf 0x80000000 -> EAX = max extended leaf.
        assert replayer.vcpu.regs.read_gpr(GPR.RAX) == 0x80000008

    def test_writable_fields_echo_written_into_vmcs(self, replayer):
        replayer.submit(rdtsc_seed(rip=0x9000))
        # GUEST_RIP was rewritten with the seed value and then advanced
        # by the handler (update_guest_eip).
        assert replayer.vcpu.vmcs.read(VmcsField.GUEST_RIP) == 0x9002

    def test_read_only_fields_only_override_reads(self, replayer):
        replayer.submit(rdtsc_seed())
        # The VMCS's physical exit-reason field still says preemption
        # timer; only the vmread return value was replaced.
        assert replayer.vcpu.vmcs.read(VmcsField.VM_EXIT_REASON) == \
            int(ExitReason.PREEMPTION_TIMER)

    def test_override_queue_is_ordered_per_field(self, hv, replayer):
        # Two reads of GUEST_RIP with different recorded values: the
        # handler's advance-RIP read gets the first, the mode-check
        # read gets the second.
        seed = rdtsc_seed(rip=0x8000)
        seed.entries.append(SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, VmcsField.GUEST_RIP, 0x8002
        ))
        result = replayer.submit(seed)
        assert result.outcome is ReplayOutcome.OK

    def test_vmwrites_captured_per_seed(self, replayer):
        result = replayer.submit(rdtsc_seed())
        written = [f for f, _ in result.vmwrites]
        assert VmcsField.GUEST_RIP in written

    def test_coverage_captured_per_seed(self, replayer):
        result = replayer.submit(rdtsc_seed())
        assert result.coverage

    def test_submission_counts(self, replayer):
        replayer.submit(rdtsc_seed())
        replayer.submit(rdtsc_seed())
        assert replayer.seeds_submitted == 2


class TestCrashHandling:
    def test_protected_rip_on_fresh_dummy_is_vm_crash(self, replayer):
        # The paper's "bad RIP for mode 0" experiment.
        result = replayer.submit(rdtsc_seed(rip=0x1000000))
        assert result.outcome is ReplayOutcome.VM_CRASH
        assert "bad RIP" in result.crash_reason

    def test_dead_dummy_reports_crash_without_dispatch(self,
                                                       replayer):
        replayer.submit(rdtsc_seed(rip=0x1000000))
        result = replayer.submit(rdtsc_seed())
        assert result.outcome is ReplayOutcome.VM_CRASH
        assert "already crashed" in result.crash_reason

    def test_hypervisor_crash_reported(self, replayer):
        seed = rdtsc_seed()
        # Corrupt the instruction length: update_guest_eip BUG_ONs.
        seed.entries[-1] = SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, VmcsField.VM_EXIT_INSTRUCTION_LEN, 99
        )
        result = replayer.submit(seed)
        assert result.outcome is ReplayOutcome.HYPERVISOR_CRASH


class TestTraceReplay:
    def test_replay_recorded_trace(self, hv, hvm_domain, vcpu,
                                   replayer):
        recorder = Recorder(hv, vcpu, workload="unit")
        recorder.start()
        for _ in range(5):
            deliver(hv, vcpu, ExitReason.CPUID, guest_cycles=50_000)
        recorder.stop()
        recorder.detach()

        results = replayer.replay_trace(recorder.trace)
        assert len(results) == 5
        assert all(
            r.outcome is ReplayOutcome.OK for r in results
        )
        assert all(
            r.handled_reason is ExitReason.CPUID for r in results
        )

    def test_stop_on_crash(self, replayer):
        from repro.core.seed import Trace, VMExitRecord, ExitMetrics

        bad = rdtsc_seed(rip=0x1000000)
        trace = Trace(workload="unit", records=[
            VMExitRecord(seed=bad, metrics=ExitMetrics()),
            VMExitRecord(seed=rdtsc_seed(), metrics=ExitMetrics()),
        ])
        results = replayer.replay_trace(trace, stop_on_crash=True)
        assert len(results) == 1


class TestEmptyExits:
    def test_ideal_throughput_band(self, hv, replayer):
        # 0.1 s / 5000 exits on the paper's testbed: ~70K cycles/exit.
        cycles = replayer.run_empty_exits(100)
        per_exit = cycles / 100
        assert 60_000 <= per_exit <= 90_000

    def test_empty_exits_do_not_touch_guest_state(self, replayer):
        rip = replayer.vcpu.vmcs.read(VmcsField.GUEST_RIP)
        replayer.run_empty_exits(10)
        assert replayer.vcpu.vmcs.read(VmcsField.GUEST_RIP) == rip
