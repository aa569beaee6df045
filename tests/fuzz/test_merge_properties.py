"""Property-based tests for the shard-merge algebra.

The parallel campaign engine merges per-shard artifacts in whatever
order workers finish, and a retried shard may be merged after its
siblings.  That is only sound if the merge operations form the right
algebra: coverage-map union and ``Corpus.merge`` must be commutative,
associative, and idempotent; ``FuzzResult.merge`` must be commutative
and associative (its counts are sums, so idempotence is not claimed).
Hypothesis generates arbitrary shard artifacts and checks the laws
structurally.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.seed import SeedEntry, VMSeed
from repro.fuzz.corpus import Corpus, entry_identity
from repro.fuzz.differential import (
    MAX_DIVERGENCES_KEPT,
    DivergenceKind,
    DivergenceRecord,
    divergence_identity,
    merge_divergences,
)
from repro.fuzz.failures import FailureKind, FailureRecord
from repro.fuzz.fuzzer import MAX_FAILURES_KEPT, FuzzResult
from repro.fuzz.mutations import MutationArea
from repro.hypervisor.coverage import CoverageMap
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR

# ---- strategies ------------------------------------------------------

_files = st.sampled_from([
    "arch/x86/hvm/vmx/vmx.c",
    "arch/x86/hvm/hvm.c",
    "arch/x86/hvm/emulate.c",
    "arch/x86/mm/p2m-ept.c",
])
_lines = st.tuples(_files, st.integers(min_value=100, max_value=160))
_line_sets = st.frozensets(_lines, max_size=25)
coverage_maps = _line_sets.map(CoverageMap)

_seeds = st.builds(
    VMSeed,
    exit_reason=st.sampled_from(
        [int(ExitReason.RDTSC), int(ExitReason.CPUID)]
    ),
    entries=st.lists(
        st.builds(
            SeedEntry.for_gpr,
            st.sampled_from([GPR.RAX, GPR.RBX, GPR.RCX]),
            st.integers(min_value=0, max_value=0xFFFF),
        ),
        min_size=1, max_size=3,
    ),
)

_observations = st.tuples(
    _seeds,
    coverage_maps,
    st.integers(min_value=0, max_value=5),  # new_loc
    st.sampled_from([
        FailureKind.NONE,
        FailureKind.VM_CRASH,
        FailureKind.HYPERVISOR_CRASH,
    ]),
)


def _build_corpus(observations) -> Corpus:
    """A shard corpus, grown the way the fuzzer grows one."""
    corpus = Corpus()
    for seed, lines, new_loc, failure in observations:
        corpus.consider(seed, lines, new_loc, failure)
    return corpus


corpora = st.lists(_observations, max_size=12).map(_build_corpus)
#: Canonical corpora — what shard merging actually operates on.
canonical_corpora = corpora.map(Corpus.canonical)

_failures = st.builds(
    FailureRecord,
    kind=st.sampled_from(
        [FailureKind.VM_CRASH, FailureKind.HYPERVISOR_CRASH]
    ),
    cause=st.sampled_from(
        ["corrupt exit-reason field", "guest triple fault"]
    ),
    crash_reason=st.sampled_from(["reason-a", "reason-b"]),
    mutation_index=st.integers(min_value=0, max_value=200),
    seed=_seeds,
)


_divergences = st.builds(
    DivergenceRecord,
    kind=st.sampled_from(list(DivergenceKind)),
    mutation_index=st.integers(min_value=-1, max_value=120),
    seed=_seeds,
    vmx_outcome=st.sampled_from(["ok", "vm-crash"]),
    svm_outcome=st.sampled_from(["ok", "hypervisor-crash"]),
    detail=st.sampled_from([
        "echo-writes disagree: only-vmx [GUEST_RIP=0x7c00]",
        "coverage deltas disagree: only-svm [vmx.c:120]",
        "vmx ok (healthy) vs svm vm-crash (triple fault)",
    ]),
)
divergence_collections = st.lists(_divergences, max_size=40)
#: Canonical (merged) collections — what shard merging operates on.
merged_collections = divergence_collections.map(
    lambda records: merge_divergences(records)
)


@st.composite
def shard_results(draw):
    """One cell shard's FuzzResult (fixed cell key and baseline)."""
    failures = draw(st.lists(_failures, max_size=MAX_FAILURES_KEPT))
    return FuzzResult(
        workload="cpu-bound",
        exit_reason=ExitReason.RDTSC,
        area=MutationArea.VMCS,
        mutations_run=draw(st.integers(min_value=1, max_value=500)),
        baseline_loc=40,
        new_loc=0,
        vm_crashes=sum(
            1 for f in failures if f.kind is FailureKind.VM_CRASH
        ),
        hypervisor_crashes=sum(
            1 for f in failures
            if f.kind is FailureKind.HYPERVISOR_CRASH
        ),
        failures=failures,
        corpus=draw(canonical_corpora),
        new_lines=draw(_line_sets),
        divergences=draw(merged_collections),
        seeds_compared=draw(st.integers(min_value=0, max_value=500)),
        untranslatable_seeds=draw(
            st.integers(min_value=0, max_value=50)
        ),
    )


# ---- coverage-map algebra --------------------------------------------

class TestCoverageMapAlgebra:
    @settings(max_examples=60)
    @given(a=coverage_maps, b=coverage_maps)
    def test_union_commutative(self, a, b):
        assert (a | b) == (b | a)
        assert (a | b).lines() == a.lines() | b.lines()

    @settings(max_examples=60)
    @given(a=coverage_maps, b=coverage_maps, c=coverage_maps)
    def test_union_associative(self, a, b, c):
        assert ((a | b) | c) == (a | (b | c))

    @settings(max_examples=60)
    @given(a=coverage_maps)
    def test_union_idempotent(self, a):
        assert (a | a) == a
        assert CoverageMap.union_all([a, a, a]) == a

    @settings(max_examples=40)
    @given(a=coverage_maps, b=coverage_maps)
    def test_inplace_merge_agrees_with_pure_union(self, a, b):
        merged = a.copy()
        merged.merge(b)
        assert merged == (a | b)

    @settings(max_examples=40)
    @given(maps=st.lists(coverage_maps, max_size=6))
    def test_union_all_is_order_insensitive(self, maps):
        assert CoverageMap.union_all(maps) == \
            CoverageMap.union_all(list(reversed(maps)))


# ---- corpus algebra --------------------------------------------------

class TestCorpusAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=canonical_corpora, b=canonical_corpora)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=60, deadline=None)
    @given(a=canonical_corpora, b=canonical_corpora,
           c=canonical_corpora)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=60, deadline=None)
    @given(a=canonical_corpora)
    def test_merge_idempotent(self, a):
        assert a.merge(a) == a
        assert a.merge(Corpus()) == a

    @settings(max_examples=60, deadline=None)
    @given(a=canonical_corpora, b=canonical_corpora)
    def test_merge_loses_no_distinct_entry(self, a, b):
        merged = a.merge(b)
        merged_keys = {entry_identity(e) for e in merged.entries}
        for source in (a, b):
            for entry in source.entries:
                assert entry_identity(entry) in merged_keys

    @settings(max_examples=40, deadline=None)
    @given(a=corpora)
    def test_canonical_preserves_distinct_entries(self, a):
        canon = a.canonical()
        assert {entry_identity(e) for e in canon.entries} == \
            {entry_identity(e) for e in a.entries}
        # Canonical form is stable (a fixed point).
        assert canon.canonical() == canon

    @settings(max_examples=40, deadline=None)
    @given(cs=st.lists(canonical_corpora, max_size=5))
    def test_merge_all_is_the_pairwise_fold(self, cs):
        folded = Corpus()
        for corpus in cs:
            folded = folded.merge(corpus)
        assert Corpus.merge_all(cs) == folded
        assert Corpus.merge_all([]) == Corpus()

    @settings(max_examples=40, deadline=None)
    @given(a=canonical_corpora, b=canonical_corpora)
    def test_merge_does_not_mutate_operands(self, a, b):
        a_entries = list(a.entries)
        b_entries = list(b.entries)
        a.merge(b)
        assert a.entries == a_entries
        assert b.entries == b_entries


# ---- FuzzResult shard algebra ----------------------------------------

class TestFuzzResultShardAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(a=shard_results(), b=shard_results())
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=40, deadline=None)
    @given(a=shard_results(), b=shard_results(), c=shard_results())
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=40, deadline=None)
    @given(a=shard_results(), b=shard_results())
    def test_merge_conserves_counts_and_lines(self, a, b):
        merged = a.merge(b)
        assert merged.mutations_run == \
            a.mutations_run + b.mutations_run
        assert merged.vm_crashes == a.vm_crashes + b.vm_crashes
        assert merged.hypervisor_crashes == \
            a.hypervisor_crashes + b.hypervisor_crashes
        assert merged.new_lines == a.new_lines | b.new_lines
        assert merged.new_loc == len(merged.new_lines)

    @settings(max_examples=40, deadline=None)
    @given(a=shard_results(), b=shard_results())
    def test_merge_respects_failure_cap(self, a, b):
        merged = a.merge(b)
        assert len(merged.failures) <= MAX_FAILURES_KEPT

    @settings(max_examples=40, deadline=None)
    @given(a=shard_results(), b=shard_results())
    def test_merge_conserves_differential_tallies(self, a, b):
        merged = a.merge(b)
        assert merged.seeds_compared == \
            a.seeds_compared + b.seeds_compared
        assert merged.untranslatable_seeds == \
            a.untranslatable_seeds + b.untranslatable_seeds
        assert merged.divergences == \
            merge_divergences(a.divergences, b.divergences)


# ---- divergence-record merge algebra ---------------------------------

class TestDivergenceMergeAlgebra:
    """``merge_divergences`` is the union the differential report's
    byte-identity stands on: keyed by the total identity order, it
    must be commutative, associative (even through the retention
    cap — K-smallest-of-union composes), and idempotent."""

    @settings(max_examples=60, deadline=None)
    @given(a=divergence_collections, b=divergence_collections)
    def test_merge_commutative(self, a, b):
        assert merge_divergences(a, b) == merge_divergences(b, a)

    @settings(max_examples=60, deadline=None)
    @given(a=divergence_collections, b=divergence_collections,
           c=divergence_collections)
    def test_merge_associative_through_the_cap(self, a, b, c):
        left = merge_divergences(merge_divergences(a, b), c)
        right = merge_divergences(a, merge_divergences(b, c))
        assert left == right
        assert left == merge_divergences(a, b, c)

    @settings(max_examples=60, deadline=None)
    @given(a=merged_collections)
    def test_merge_idempotent_on_canonical_collections(self, a):
        assert merge_divergences(a, a) == a
        assert merge_divergences(a, ()) == a
        assert merge_divergences(a) == a

    @settings(max_examples=60, deadline=None)
    @given(a=divergence_collections)
    def test_merge_is_order_insensitive(self, a):
        assert merge_divergences(a) == \
            merge_divergences(list(reversed(a)))

    @settings(max_examples=60, deadline=None)
    @given(a=divergence_collections, b=divergence_collections)
    def test_merge_output_is_sorted_capped_and_deduped(self, a, b):
        merged = merge_divergences(a, b)
        keys = [divergence_identity(r) for r in merged]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert len(merged) <= MAX_DIVERGENCES_KEPT

    @settings(max_examples=60, deadline=None)
    @given(a=divergence_collections, b=divergence_collections)
    def test_merge_keeps_the_smallest_identities(self, a, b):
        """The retained set is exactly the K smallest distinct keys of
        the union — the property that makes capping associative."""
        merged = merge_divergences(a, b)
        union_keys = sorted({
            divergence_identity(r) for r in list(a) + list(b)
        })
        assert [divergence_identity(r) for r in merged] == \
            union_keys[:MAX_DIVERGENCES_KEPT]
