"""Unit tests for the recording component."""

import pytest

from repro.core.record import Recorder
from repro.core.seed import MAX_VMCS_OPS_PER_EXIT, SeedFlag
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs_fields import VmcsField
from repro.x86.registers import GPR

from tests.hypervisor.util import deliver


@pytest.fixture
def recorder(hv, hvm_domain, vcpu):
    recorder = Recorder(hv, vcpu, workload="unit")
    recorder.start()
    yield recorder
    recorder.stop()
    recorder.detach()


class TestSeedCapture:
    def test_captures_all_fifteen_gprs(self, hv, hvm_domain, vcpu,
                                       recorder):
        vcpu.regs.write_gpr(GPR.R12, 0x1234)
        deliver(hv, vcpu, ExitReason.CPUID)
        seed = recorder.trace.records[0].seed
        assert len(seed.gprs()) == 15
        assert seed.gprs()[GPR.R12] == 0x1234

    def test_seed_reason_is_the_recorded_exit(self, hv, hvm_domain,
                                              vcpu, recorder):
        deliver(hv, vcpu, ExitReason.RDTSC)
        assert recorder.trace.records[0].seed.reason is \
            ExitReason.RDTSC

    def test_vmreads_captured_in_order(self, hv, hvm_domain, vcpu,
                                       recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        reads = recorder.trace.records[0].seed.vmcs_reads()
        assert reads[0][0] is VmcsField.VM_EXIT_REASON
        assert reads[0][1] == int(ExitReason.CPUID)

    def test_vmwrites_go_to_metrics_not_seed(self, hv, hvm_domain,
                                             vcpu, recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        record = recorder.trace.records[0]
        written_fields = [f for f, _ in record.metrics.vmwrites]
        assert VmcsField.GUEST_RIP in written_fields
        assert all(
            e.flag is not SeedFlag.VMCS_WRITE
            for e in record.seed.entries
        )

    def test_vmcs_ops_capped_at_32(self, hv, hvm_domain, vcpu,
                                   recorder):
        # Force a long read storm through a hook... the CR-access
        # PE-transition path is the heaviest organic one; use many
        # exits instead and assert the invariant on each.
        for _ in range(5):
            deliver(hv, vcpu, ExitReason.CPUID)
        for record in recorder.trace.records:
            assert record.seed.vmcs_op_count() + len(
                record.metrics.vmwrites
            ) <= MAX_VMCS_OPS_PER_EXIT + len(record.metrics.vmwrites)
            assert record.seed.size_bytes() <= 470

    def test_per_exit_coverage_latched(self, hv, hvm_domain, vcpu,
                                       recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        record = recorder.trace.records[0]
        assert record.metrics.coverage
        assert record.metrics.coverage == hv.exit_coverage

    def test_handler_cycles_positive(self, hv, hvm_domain, vcpu,
                                     recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        assert recorder.trace.records[0].metrics.handler_cycles > 0

    def test_guest_cycles_from_event(self, hv, hvm_domain, vcpu,
                                     recorder):
        deliver(hv, vcpu, ExitReason.CPUID, guest_cycles=123_456)
        assert recorder.trace.records[0].metrics.guest_cycles == \
            123_456


class TestLifecycle:
    def test_disabled_recorder_records_nothing(self, hv, hvm_domain,
                                               vcpu):
        recorder = Recorder(hv, vcpu)
        recorder.attach()
        deliver(hv, vcpu, ExitReason.CPUID)
        assert len(recorder.trace) == 0
        recorder.detach()

    def test_stop_mid_session(self, hv, hvm_domain, vcpu, recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        recorder.stop()
        deliver(hv, vcpu, ExitReason.CPUID)
        assert len(recorder.trace) == 1

    def test_max_records_stops_recording(self, hv, hvm_domain, vcpu):
        recorder = Recorder(hv, vcpu, max_records=2)
        recorder.start()
        for _ in range(5):
            deliver(hv, vcpu, ExitReason.CPUID)
        assert len(recorder.trace) == 2
        assert recorder.done
        recorder.detach()

    def test_other_vcpus_ignored(self, hv, hvm_domain, vcpu):
        from repro.hypervisor.domain import DomainType

        other_domain = hv.create_domain(DomainType.HVM, name="other")
        other_domain.populate_identity_map(16)
        other = other_domain.vcpus[0]
        recorder = Recorder(hv, vcpu)
        recorder.start()
        deliver(hv, other, ExitReason.CPUID)
        assert len(recorder.trace) == 0
        recorder.detach()

    def test_store_flags(self, hv, hvm_domain, vcpu):
        recorder = Recorder(
            hv, vcpu, store_seeds=False, store_metrics=True
        )
        recorder.start()
        deliver(hv, vcpu, ExitReason.CPUID)
        record = recorder.trace.records[0]
        assert record.seed.entries == []
        assert record.metrics.vmwrites
        recorder.detach()


class TestOverheadAccounting:
    def test_recording_charges_the_clock(self, hv, hvm_domain, vcpu):
        # Same exit with and without recording: the recorded one costs
        # slightly more (Fig. 10's overhead).
        deliver(hv, vcpu, ExitReason.CPUID)
        bare_cycles = hv.stats.last_cycles
        recorder = Recorder(hv, vcpu)
        recorder.start()
        deliver(hv, vcpu, ExitReason.CPUID)
        recorded_cycles = hv.stats.last_cycles
        recorder.detach()
        assert recorded_cycles > bare_cycles
        overhead = recorded_cycles / bare_cycles - 1
        assert overhead < 0.10  # small, per the paper's 1%-ish band

    def test_preallocation_tracked(self, hv, hvm_domain, vcpu,
                                   recorder):
        deliver(hv, vcpu, ExitReason.CPUID)
        assert recorder.stats.preallocated_bytes == 470
