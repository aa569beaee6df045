"""Unit tests for test-case planning, failure triage, and the corpus."""

import random

import pytest

from repro.core.replay import ReplayOutcome, SeedReplayResult
from repro.core.seed import (
    ExitMetrics,
    SeedEntry,
    SeedFlag,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.fuzz.corpus import Corpus, coverage_fingerprint
from repro.fuzz.failures import (
    FailureKind,
    classify_result,
    diagnose_cause,
)
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.hypervisor.xenlog import XenLog
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR


def trace_with(reasons):
    records = [
        VMExitRecord(
            seed=VMSeed(exit_reason=int(reason), entries=[
                SeedEntry.for_gpr(GPR.RAX, i)
            ]),
            metrics=ExitMetrics(),
        )
        for i, reason in enumerate(reasons)
    ]
    return Trace(workload="unit", records=records)


class TestTestCase:
    def test_valid_construction(self):
        trace = trace_with([ExitReason.RDTSC])
        case = FuzzTestCase(trace=trace, seed_index=0,
                            area=MutationArea.VMCS, n_mutations=10)
        assert case.exit_reason is ExitReason.RDTSC
        assert "RDTSC" in case.describe()

    def test_out_of_range_index_rejected(self):
        trace = trace_with([ExitReason.RDTSC])
        with pytest.raises(ValueError):
            FuzzTestCase(trace=trace, seed_index=5,
                         area=MutationArea.GPR)

    def test_zero_mutations_rejected(self):
        trace = trace_with([ExitReason.RDTSC])
        with pytest.raises(ValueError):
            FuzzTestCase(trace=trace, seed_index=0,
                         area=MutationArea.GPR, n_mutations=0)


class TestPlanning:
    def test_grid_covers_present_reasons_times_areas(self):
        trace = trace_with(
            [ExitReason.RDTSC, ExitReason.CPUID, ExitReason.RDTSC]
        )
        cases = plan_test_cases(
            trace, [ExitReason.RDTSC, ExitReason.CPUID],
            n_mutations=5, rng=random.Random(0),
        )
        assert len(cases) == 4  # 2 reasons x 2 areas

    def test_absent_reasons_skipped(self):
        # Table I leaves cells empty ("-") for absent reasons.
        trace = trace_with([ExitReason.RDTSC])
        cases = plan_test_cases(
            trace, [ExitReason.HLT], rng=random.Random(0)
        )
        assert cases == []

    def test_target_seed_has_requested_reason(self):
        trace = trace_with(
            [ExitReason.CPUID, ExitReason.RDTSC, ExitReason.CPUID]
        )
        cases = plan_test_cases(
            trace, [ExitReason.CPUID], rng=random.Random(1)
        )
        assert all(
            c.exit_reason is ExitReason.CPUID for c in cases
        )


class TestFailureClassification:
    def test_ok_result_is_healthy(self):
        result = SeedReplayResult(outcome=ReplayOutcome.OK)
        seed = VMSeed(exit_reason=0)
        assert classify_result(result, seed, 0, XenLog()) is None

    def test_vm_crash_classified(self):
        result = SeedReplayResult(
            outcome=ReplayOutcome.VM_CRASH,
            crash_reason="bad RIP 0x100 for mode 0",
        )
        record = classify_result(
            result, VMSeed(exit_reason=0), 3, XenLog()
        )
        assert record is not None
        assert record.kind is FailureKind.VM_CRASH
        assert record.mutation_index == 3
        assert "invalid guest RIP" in record.cause

    def test_hypervisor_crash_classified(self):
        result = SeedReplayResult(
            outcome=ReplayOutcome.HYPERVISOR_CRASH,
            crash_reason="update_guest_eip: bad instruction length 99",
        )
        log = XenLog()
        log.printk("PANIC: update_guest_eip")
        record = classify_result(
            result, VMSeed(exit_reason=0), 0, log
        )
        assert record.kind is FailureKind.HYPERVISOR_CRASH

    def test_pdpte_page_past_guest_memory_is_a_vm_crash(self):
        """A mutated CR3 pointing past guest memory at PAE paging
        activation crashes the domain (Xen's ``vmx_load_pdptrs``)
        instead of escaping replay as a raw ``ValueError``."""
        from repro.arch.fields import ArchField
        from repro.core.manager import IrisManager

        manager = IrisManager()
        session = manager.record_workload("os-boot", n_exits=400)
        records = session.trace.records
        index, entry_index = next(
            (i, j)
            for i, record in enumerate(records)
            if record.seed.reason is ExitReason.CR_ACCESS
            for j, entry in enumerate(record.seed.entries)
            if entry.flag is SeedFlag.VMCS_READ
            and entry.vmcs_field is ArchField.GUEST_CR3
        )
        seed = records[index].seed
        mutant = seed.replace_entry(entry_index, SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, ArchField.GUEST_CR3, 1 << 40,
        ))
        prefix = Trace(workload="os-boot", records=records[:index])
        replayed = manager.replay_trace(
            prefix, from_snapshot=session.snapshot, record_metrics=False,
        )
        assert not replayed.crashed
        assert manager.submit_seed(seed).outcome is ReplayOutcome.OK

        manager.replay_trace(
            prefix, from_snapshot=session.snapshot, record_metrics=False,
        )
        result = manager.submit_seed(mutant)
        assert result.outcome is ReplayOutcome.VM_CRASH
        assert "PDPTE" in (result.crash_reason or "")
        record = classify_result(result, mutant, 0, XenLog())
        assert record is not None
        assert record.kind is FailureKind.VM_CRASH

    def test_diagnose_entry_failure(self):
        assert "consistency" in diagnose_cause(
            "VM entry failure: rflags.reserved", XenLog()
        )

    def test_unmatched_cause_is_unclassified(self):
        assert diagnose_cause("weird", XenLog()) == \
            "unclassified failure"


class TestCorpus:
    def lines(self, *nums):
        return frozenset(("f.c", n) for n in nums)

    def test_new_coverage_retained(self):
        corpus = Corpus()
        seed = VMSeed(exit_reason=0)
        assert corpus.consider(seed, self.lines(1, 2), new_loc=2)
        assert len(corpus) == 1

    def test_no_new_coverage_discarded(self):
        corpus = Corpus()
        assert not corpus.consider(
            VMSeed(exit_reason=0), self.lines(1), new_loc=0
        )

    def test_duplicate_fingerprint_discarded(self):
        corpus = Corpus()
        corpus.consider(VMSeed(exit_reason=0), self.lines(1),
                        new_loc=1)
        assert not corpus.consider(
            VMSeed(exit_reason=1), self.lines(1), new_loc=1
        )

    def test_crashes_always_retained(self):
        corpus = Corpus()
        for _ in range(3):
            corpus.consider(
                VMSeed(exit_reason=0), self.lines(1), new_loc=0,
                failure=FailureKind.VM_CRASH,
            )
        assert len(corpus.crashes()) == 3

    def test_fingerprint_is_order_insensitive(self):
        a = coverage_fingerprint(self.lines(1, 2, 3))
        b = coverage_fingerprint(frozenset(
            [("f.c", 3), ("f.c", 1), ("f.c", 2)]
        ))
        assert a == b
