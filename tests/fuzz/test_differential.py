"""Unit tests for the cross-arch differential oracle.

Covers the record algebra (signature normalization, total identity
order, the capped order-insensitive merge), the report rendering
(byte-determinism under shuffling), and the oracle itself against a
real recorded cell: arming, identical-replay null results, the
untranslatable-target path, and the fast-reset independence the test
matrix relies on by construction.
"""

from __future__ import annotations

import random

import pytest

from repro.core.manager import IrisManager
from repro.core.replay import ReplayOutcome, SeedReplayResult
from repro.core.seed import (
    ExitMetrics,
    SeedEntry,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.fuzz.differential import (
    MAX_DIVERGENCES_KEPT,
    DifferentialOracle,
    DivergenceKind,
    DivergenceRecord,
    divergence_identity,
    divergence_signature,
    merge_divergences,
    normalize_seed,
    render_divergence_report,
    triage_divergences,
)
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR


def _seed(reason: ExitReason = ExitReason.RDTSC,
          value: int = 0x42) -> VMSeed:
    return VMSeed(
        exit_reason=int(reason),
        entries=[SeedEntry.for_gpr(GPR.RAX, value)],
    )


def _record(kind: DivergenceKind = DivergenceKind.ECHO_WRITE,
            index: int = 0, detail: str = "echo-writes disagree",
            value: int = 0x42) -> DivergenceRecord:
    return DivergenceRecord(
        kind=kind, mutation_index=index, seed=_seed(value=value),
        vmx_outcome="ok", svm_outcome="ok", detail=detail,
    )


# ---- signatures and identity -----------------------------------------

class TestSignature:
    def test_signature_is_stable(self):
        record = _record()
        assert divergence_signature(record) == \
            divergence_signature(record)

    def test_volatile_detail_parts_are_normalized_away(self):
        """Two instances of the same disagreement found through
        different mutants (different addresses in the detail) must
        share a signature — the crash_signature normalization style."""
        a = _record(detail="echo-writes disagree: only-vmx "
                           "[GUEST_RIP=0x7c00]")
        b = _record(index=9, value=0x43,
                    detail="echo-writes disagree: only-vmx "
                           "[GUEST_RIP=0xdeadbeef]")
        assert divergence_signature(a) == divergence_signature(b)

    def test_kind_and_outcomes_partition_signatures(self):
        base = _record()
        other_kind = _record(kind=DivergenceKind.COVERAGE)
        other_outcome = DivergenceRecord(
            kind=base.kind, mutation_index=0, seed=base.seed,
            vmx_outcome="ok", svm_outcome="vm-crash",
            detail=base.detail,
        )
        signatures = {
            divergence_signature(r)
            for r in (base, other_kind, other_outcome)
        }
        assert len(signatures) == 3

    def test_identity_is_total_and_distinguishes_records(self):
        records = [
            _record(index=0), _record(index=1),
            _record(index=0, detail="different detail"),
            _record(index=0, value=0x43),
            _record(kind=DivergenceKind.COVERAGE),
        ]
        keys = [divergence_identity(r) for r in records]
        assert len(set(keys)) == len(records)
        assert sorted(keys) == sorted(keys, key=lambda k: k)

    def test_identity_orders_by_mutation_index_first(self):
        early = _record(index=1, detail="zzz")
        late = _record(index=10, detail="aaa")
        assert divergence_identity(early) < divergence_identity(late)


# ---- the merge --------------------------------------------------------

class TestMergeDivergences:
    def test_merge_dedupes_and_sorts(self):
        a = _record(index=3)
        b = _record(index=1)
        merged = merge_divergences([a, b], [b, a])
        assert merged == (b, a)

    def test_merge_caps_at_earliest_mutations(self):
        records = [
            _record(index=i) for i in range(MAX_DIVERGENCES_KEPT + 10)
        ]
        merged = merge_divergences(reversed(records))
        assert len(merged) == MAX_DIVERGENCES_KEPT
        assert [r.mutation_index for r in merged] == \
            list(range(MAX_DIVERGENCES_KEPT))

    def test_chained_merges_land_on_the_same_retained_set(self):
        shards = [
            [_record(index=i, value=tag) for i in range(40)]
            for tag in range(4)
        ]
        left = merge_divergences(
            merge_divergences(
                merge_divergences(shards[0], shards[1]), shards[2],
            ),
            shards[3],
        )
        right = merge_divergences(
            shards[0],
            merge_divergences(
                shards[1], merge_divergences(shards[2], shards[3]),
            ),
        )
        reordered = merge_divergences(*reversed(shards))
        assert left == right == reordered
        assert len(left) == MAX_DIVERGENCES_KEPT


# ---- triage and rendering --------------------------------------------

class TestReport:
    def test_triage_buckets_by_signature(self):
        records = [
            _record(index=0, detail="echo [GUEST_RIP=0x1]"),
            _record(index=7, value=0x43,
                    detail="echo [GUEST_RIP=0x2]"),
            _record(kind=DivergenceKind.COVERAGE, index=3),
        ]
        report = triage_divergences(records, seeds_compared=30)
        assert report.total_divergences == 3
        assert report.unique_divergences == 2
        assert report.seeds_compared == 30
        by_kind = {b.kind: b for b in report.buckets}
        assert by_kind[DivergenceKind.ECHO_WRITE].count == 2
        assert by_kind[DivergenceKind.COVERAGE].count == 1

    def test_rendering_is_order_insensitive(self):
        records = [
            _record(index=i,
                    kind=(DivergenceKind.COVERAGE if i % 3 == 0
                          else DivergenceKind.ECHO_WRITE),
                    detail=f"site 0x{i:x}")
            for i in range(12)
        ]
        reference = render_divergence_report(
            records, seeds_compared=12,
        )
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(records)
            rng.shuffle(shuffled)
            assert render_divergence_report(
                shuffled, seeds_compared=12,
            ) == reference

    def test_rendered_report_headline_counts(self):
        text = render_divergence_report(
            [_record()], seeds_compared=5, untranslatable_seeds=2,
        )
        assert "1 distinct divergence(s)" in text
        assert "5 seeds compared (2 untranslatable)" in text


# ---- seed normalization ----------------------------------------------

class TestNormalizeSeed:
    def test_gpr_entries_round_trip_exactly(self):
        """GPR values survive the translation bit-for-bit (§IX: the 15
        GPRs are architecture-neutral); the reverse direction appends
        only the re-synthesized exit-reason read."""
        seed = _seed(value=0xDEADBEEF)
        normalized = normalize_seed(seed)
        assert normalized is not None
        assert normalized.exit_reason == seed.exit_reason
        gpr_entries = [
            e for e in normalized.entries if e.flag == seed.entries[0].flag
        ]
        assert gpr_entries == seed.entries

    def test_vtx_only_exit_is_untranslatable(self):
        seed = _seed(reason=ExitReason.PREEMPTION_TIMER)
        assert normalize_seed(seed) is None


# ---- the oracle against a real cell ----------------------------------

@pytest.fixture(scope="module")
def recorded():
    manager = IrisManager()
    return manager.record_workload(
        "cpu-bound", n_exits=150, precondition="boot"
    )


@pytest.fixture(scope="module")
def case(recorded):
    [planned] = plan_test_cases(
        recorded.trace, [ExitReason.RDTSC],
        areas=(MutationArea.GPR,), n_mutations=4,
        rng=random.Random(3),
    )
    return planned


def _vmx_baseline(recorded, case) -> SeedReplayResult:
    """Reach the cell's target state on the primary and replay the
    unmutated baseline — what the fuzzer hands the oracle."""
    manager = IrisManager(arch="vmx")
    if recorded.snapshot.clock_tsc > manager.hv.clock.now:
        manager.hv.clock.advance(
            recorded.snapshot.clock_tsc - manager.hv.clock.now
        )
    replayer = manager.create_dummy_vm(from_snapshot=recorded.snapshot)
    for record in case.trace.records[:case.seed_index]:
        replayer.submit(record.seed)
    return replayer.submit(case.target_seed)


class TestOracle:
    def test_arms_on_a_translatable_cell(self, recorded, case):
        oracle = DifferentialOracle()
        baseline = _vmx_baseline(recorded, case)
        assert baseline.outcome is ReplayOutcome.OK
        assert oracle.begin_case(
            case, recorded.snapshot, baseline.coverage,
        ) is None
        assert oracle.seeds_compared == 0

    def test_identical_replay_yields_no_divergence(self, recorded, case):
        """The unmutated baseline replays identically on both backends
        — the oracle's null hypothesis must hold there."""
        oracle = DifferentialOracle()
        baseline = _vmx_baseline(recorded, case)
        oracle.begin_case(
            case, recorded.snapshot, baseline.coverage,
        )
        assert oracle.observe(0, case.target_seed, baseline) is None
        assert oracle.seeds_compared == 1
        assert oracle.untranslatable_seeds == 0

    def test_observe_is_deterministic(self, recorded, case):
        baseline = _vmx_baseline(recorded, case)

        def run() -> list[DivergenceRecord | None]:
            oracle = DifferentialOracle()
            oracle.begin_case(
                case, recorded.snapshot, baseline.coverage,
            )
            out = []
            for index in range(3):
                mutated = VMSeed(
                    exit_reason=case.target_seed.exit_reason,
                    entries=[SeedEntry.for_gpr(GPR.RAX, index)],
                )
                out.append(oracle.observe(index, mutated, baseline))
            return out

        assert run() == run()

    def test_untranslatable_target_disables_comparison(self):
        """A cell whose target exit has no SVM counterpart yields no
        records; its mutants are tallied as untranslatable so the
        report says how much of the cell went uncompared."""
        seed = _seed(reason=ExitReason.PREEMPTION_TIMER)
        trace = Trace(workload="synthetic", records=[
            VMExitRecord(seed=seed, metrics=ExitMetrics()),
        ])
        case = FuzzTestCase(
            trace=trace, seed_index=0, area=MutationArea.GPR,
            n_mutations=2,
        )
        oracle = DifferentialOracle()
        vmx_result = SeedReplayResult(outcome=ReplayOutcome.OK)
        assert oracle.begin_case(case, None, frozenset()) is None
        assert oracle.observe(0, seed, vmx_result) is None
        assert oracle.observe(1, seed, vmx_result) is None
        assert oracle.untranslatable_seeds == 2
        assert oracle.seeds_compared == 0
