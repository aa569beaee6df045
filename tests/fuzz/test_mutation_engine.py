"""Tests for the structure-aware mutation engine.

Three layers:

* unit tests for the structural crafters (value shapes, arch
  dispatch) and the :class:`PowerSchedule` formula;
* Hypothesis property tests for the :class:`SeedDictionary` —
  JSON round-trip identity and the merge algebra (commutative,
  associative, idempotent, jobs-invariant harvest);
* golden determinism tests pinning the smart engine's exact mutant
  sequence for a fixed seed, and the PoC engine's byte-identity with
  the pre-engine inline loop.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.fields import ArchField, field_index
from repro.core.seed import (
    ExitMetrics,
    SeedEntry,
    SeedFlag,
    Trace,
    VMExitRecord,
    VMSeed,
)
from repro.fuzz.mutation_engine import (
    CPUID_LEAVES,
    CR0_MODE_VALUES,
    CR4_MODE_VALUES,
    ENGINE_NAMES,
    INTERESTING_GPR,
    PocEngine,
    PowerSchedule,
    SeedDictionary,
    SmartEngine,
    build_engine,
    craft_cr0,
    craft_cr4,
    craft_segment_base,
    craft_segment_limit,
    pack_segment_ar,
    pack_segment_selector,
    qualification_value,
    svm_exit_info,
    vmx_qualification,
)
from repro.fuzz.mutations import MUTATION_RULES, MutationArea
from repro.fuzz.testcase import FuzzTestCase
from repro.vmx.exit_reasons import ExitReason
from repro.x86.registers import GPR


# ---- synthetic trace helpers -----------------------------------------

def entry(flag: SeedFlag, encoding: int, value: int) -> SeedEntry:
    return SeedEntry(flag=flag, encoding=encoding, value=value)


def vmcs_entry(fld: ArchField, value: int) -> SeedEntry:
    return entry(SeedFlag.VMCS_READ, field_index(fld), value)


def make_seed(
    reason: ExitReason = ExitReason.CPUID,
    entries: list[SeedEntry] | None = None,
) -> VMSeed:
    if entries is None:
        entries = [
            entry(SeedFlag.GPR, int(GPR.RAX), 1),
            entry(SeedFlag.GPR, int(GPR.RBX), 2),
            vmcs_entry(ArchField.GUEST_CR0, 0x31),
            vmcs_entry(ArchField.GUEST_CR4, 0x2000),
            vmcs_entry(ArchField.GUEST_CS_AR_BYTES, 0x9B),
            vmcs_entry(ArchField.GUEST_CS_SELECTOR, 0x8),
            vmcs_entry(ArchField.GUEST_CS_LIMIT, 0xFFFF),
            vmcs_entry(ArchField.GUEST_CS_BASE, 0),
            vmcs_entry(ArchField.EXIT_QUALIFICATION, 0),
            vmcs_entry(ArchField.GUEST_RIP, 0x1000),
        ]
    return VMSeed(exit_reason=int(reason), entries=entries)


def make_trace(*seeds: VMSeed, cycles: int = 900) -> Trace:
    return Trace(workload="synthetic", records=[
        VMExitRecord(
            seed=seed,
            metrics=ExitMetrics(handler_cycles=cycles + 40 * i),
        )
        for i, seed in enumerate(seeds)
    ])


def make_case(
    area: MutationArea = MutationArea.VMCS,
    engine: str = "smart",
    reason: ExitReason = ExitReason.CPUID,
) -> FuzzTestCase:
    base = make_seed(reason)
    variant = make_seed(reason).replace_entry(
        2, vmcs_entry(ArchField.GUEST_CR0, 0x8003_0031)
    )
    return FuzzTestCase(
        trace=make_trace(base, variant), seed_index=0, area=area,
        n_mutations=10, engine=engine,
    )


# ---- structural crafters ---------------------------------------------

class TestStructuralCrafters:
    def test_cr0_values_come_from_mode_table(self):
        rng = random.Random(0)
        assert {craft_cr0(rng) for _ in range(200)} <= \
            set(CR0_MODE_VALUES)

    def test_cr4_values_come_from_mode_table(self):
        rng = random.Random(0)
        assert {craft_cr4(rng) for _ in range(200)} <= \
            set(CR4_MODE_VALUES)

    def test_cr0_table_covers_mode_lattice(self):
        # real mode, protected-no-paging, paged protected, and at
        # least one architecturally illegal combination (PG w/o PE).
        assert 0 in CR0_MODE_VALUES
        assert any(v & 1 and not v >> 31 & 1 for v in CR0_MODE_VALUES)
        assert any(v & 1 and v >> 31 & 1 for v in CR0_MODE_VALUES)
        assert any(v >> 31 & 1 and not v & 1 for v in CR0_MODE_VALUES)

    def test_segment_ar_packs_within_vmx_layout(self):
        rng = random.Random(1)
        for _ in range(200):
            ar = pack_segment_ar(rng)
            assert 0 <= ar < 1 << 17
            # bits 11:8 (reserved between type and AVL) stay clear
            assert ar & 0xF00 == 0

    def test_selector_packs_index_ti_rpl(self):
        rng = random.Random(2)
        for _ in range(200):
            sel = pack_segment_selector(rng)
            assert 0 <= sel < 1 << 16
            assert sel >> 3 in (0, 1, 2, 3, 8, 0x100, 0x1FFF)

    def test_limit_and_base_are_boundary_values(self):
        rng = random.Random(3)
        assert all(
            craft_segment_limit(rng) < 1 << 32 for _ in range(50)
        )
        assert all(
            craft_segment_base(rng) < 1 << 64 for _ in range(50)
        )

    def test_vmx_cr_access_qualification_layout(self):
        rng = random.Random(4)
        for _ in range(100):
            q = vmx_qualification(ExitReason.CR_ACCESS, rng)
            assert q & 0xF in (0, 3, 4, 8)       # CR number
            assert q >> 4 & 0x3 < 4              # access type
            assert q >> 8 & 0xF < 16             # source register
            assert q < 1 << 12

    def test_vmx_io_qualification_carries_real_port(self):
        rng = random.Random(5)
        ports = {
            vmx_qualification(ExitReason.IO_INSTRUCTION, rng) >> 16
            for _ in range(100)
        }
        assert ports <= {
            0x20, 0x21, 0x40, 0x60, 0x64, 0x70, 0x71,
            0x3F8, 0xCF8, 0xCFC,
        }

    def test_svm_ioio_layout_differs_from_vmx(self):
        # SVM EXITINFO1 size bits live at [6:4] as a one-hot SZ field,
        # not the VT-x width-minus-one at [2:0].
        rng = random.Random(6)
        for _ in range(100):
            info = svm_exit_info(ExitReason.IO_INSTRUCTION, rng)
            assert info >> 4 & 0x7 in (1, 2, 4)  # SZ8/SZ16/SZ32
            assert info >> 16 & 0xFFFF in (
                0x20, 0x21, 0x40, 0x60, 0x64, 0x70, 0x71,
                0x3F8, 0xCF8, 0xCFC,
            )

    def test_svm_cr_access_uses_bit63_decode_flag(self):
        rng = random.Random(7)
        values = [
            svm_exit_info(ExitReason.CR_ACCESS, rng)
            for _ in range(100)
        ]
        assert all(v & ~(0xF | 1 << 63) == 0 for v in values)
        assert any(v >> 63 for v in values)

    def test_qualification_dispatches_on_arch(self):
        # Same rng seed, different namespaces: the two encodings for
        # IO exits are structurally different (SVM sets a SZ bit).
        vmx = qualification_value(
            ExitReason.IO_INSTRUCTION, "vmx", random.Random(8)
        )
        svm = qualification_value(
            ExitReason.IO_INSTRUCTION, "svm", random.Random(8)
        )
        assert vmx != svm
        assert svm & 0x70  # one-hot SZ field present


# ---- power schedule ---------------------------------------------------

class TestPowerSchedule:
    def test_formula_is_pure_and_pinned(self):
        s = PowerSchedule()
        # base 8, no novelty, cheap handler: floor-side baseline
        assert s.energy(0, 0) == 8
        # novelty buys energy linearly until the cap
        assert s.energy(1, 0) == 16
        assert s.energy(3, 0) == 32
        assert s.energy(100, 0) == 64          # clamped to max
        # cost taxes logarithmically: 2^12 cycles is 1 penalty bit
        # (bit_length 13 vs the 12-bit floor), 2^13 is 2
        assert s.energy(1, 1 << 12) == 8
        assert s.energy(1, 1 << 13) == 5
        assert s.energy(0, 1 << 20) == 2       # clamped to min

    def test_negative_inputs_clamp(self):
        s = PowerSchedule()
        assert s.energy(-5, -100) == s.energy(0, 0)

    def test_monotonic_in_novelty_and_cost(self):
        s = PowerSchedule()
        for loc in range(6):
            assert s.energy(loc + 1, 4000) >= s.energy(loc, 4000)
        for bits in range(12, 24):
            assert s.energy(2, 1 << bits) >= s.energy(2, 1 << (bits + 1))


# ---- the dictionary: unit + property layer ---------------------------

_dict_entries = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2]),                 # flag
        st.integers(min_value=0, max_value=64),     # encoding
        st.integers(min_value=0, max_value=1 << 64),
    ),
    max_size=40,
)


def build_dictionary(triples) -> SeedDictionary:
    d = SeedDictionary()
    for flag, encoding, value in triples:
        d.add(flag, encoding, value)
    return d


_seed_lists = st.lists(
    st.builds(
        VMSeed,
        exit_reason=st.sampled_from(
            [int(ExitReason.CPUID), int(ExitReason.RDTSC)]
        ),
        entries=st.lists(
            st.builds(
                SeedEntry,
                st.sampled_from([SeedFlag.GPR]),
                st.integers(min_value=0, max_value=14),
                st.integers(min_value=0, max_value=0xFFFF),
            ),
            max_size=6,
        ),
    ),
    max_size=8,
)


class TestSeedDictionary:
    def test_harvest_dedups_and_sorts(self):
        d = SeedDictionary()
        for v in (9, 3, 9, 1, 3):
            d.add(0, 0, v)
        assert d.values_for(0, 0) == (1, 3, 9)
        assert len(d) == 3

    def test_missing_slot_is_empty(self):
        assert SeedDictionary().values_for(1, 42) == ()

    def test_feed_harvests_every_entry(self):
        seed = make_seed()
        d = SeedDictionary()
        d.feed(seed)
        assert len(d) == len(seed.entries)
        assert d.values_for(int(SeedFlag.GPR), int(GPR.RAX)) == (1,)

    def test_add_invalidates_sorted_cache(self):
        d = SeedDictionary()
        d.add(0, 0, 5)
        assert d.values_for(0, 0) == (5,)
        d.add(0, 0, 2)
        assert d.values_for(0, 0) == (2, 5)

    @settings(max_examples=60)
    @given(triples=_dict_entries)
    def test_json_round_trip_is_identity(self, triples):
        d = build_dictionary(triples)
        assert SeedDictionary.from_json(d.to_json()) == d

    @settings(max_examples=60)
    @given(triples=_dict_entries)
    def test_canonical_json_is_order_insensitive(self, triples):
        forward = build_dictionary(triples)
        backward = build_dictionary(list(reversed(triples)))
        assert forward.to_json() == backward.to_json()

    @settings(max_examples=60)
    @given(a=_dict_entries, b=_dict_entries)
    def test_merge_commutes(self, a, b):
        da, db = build_dictionary(a), build_dictionary(b)
        assert da.merge(db) == db.merge(da)

    @settings(max_examples=60)
    @given(a=_dict_entries, b=_dict_entries, c=_dict_entries)
    def test_merge_associates(self, a, b, c):
        da, db, dc = (build_dictionary(x) for x in (a, b, c))
        assert da.merge(db).merge(dc) == da.merge(db.merge(dc))

    @settings(max_examples=60)
    @given(a=_dict_entries)
    def test_merge_is_idempotent(self, a):
        d = build_dictionary(a)
        assert d.merge(d) == d

    @settings(max_examples=60)
    @given(a=_dict_entries, b=_dict_entries)
    def test_merge_leaves_operands_untouched(self, a, b):
        da, db = build_dictionary(a), build_dictionary(b)
        before_a, before_b = da.to_json(), db.to_json()
        da.merge(db)
        assert (da.to_json(), db.to_json()) == (before_a, before_b)

    @settings(max_examples=60)
    @given(a=_seed_lists, b=_seed_lists)
    def test_harvest_is_jobs_invariant(self, a, b):
        """The shard-split law: harvesting a concatenated corpus
        equals merging per-shard harvests — what keeps the smart
        engine identical across jobs counts."""
        whole = SeedDictionary.harvest(a + b)
        split = SeedDictionary.harvest(a).merge(
            SeedDictionary.harvest(b)
        )
        assert whole == split
        assert whole.keys() == split.keys()


# ---- engines ----------------------------------------------------------

class TestPocEngine:
    @pytest.mark.parametrize("rule", sorted(MUTATION_RULES))
    def test_byte_identity_with_inline_loop(self, rule):
        """PocEngine consumes the exact RNG stream the pre-engine
        fuzzer loop did: same seed, same rule, same mutants."""
        case = FuzzTestCase(
            trace=make_trace(make_seed()), seed_index=0,
            area=MutationArea.VMCS, n_mutations=5,
            mutation_rule=rule, engine="poc",
        )
        engine = build_engine(case)
        assert isinstance(engine, PocEngine)
        a = random.Random(99)
        b = random.Random(99)
        for _ in range(40):
            expected = MUTATION_RULES[rule](
                case.target_seed, case.area, b
            )
            assert engine.next_mutant(a) == expected
        assert a.getstate() == b.getstate()

    def test_feedback_is_a_no_op(self):
        engine = build_engine(make_case(engine="poc"))
        engine.feedback(make_seed(), new_loc=5, cost_cycles=100)
        assert engine.queue_size == 1
        assert engine.max_depth == 0


class TestSmartEngine:
    def run_sequence(
        self,
        n: int = 64,
        arch: str = "vmx",
        reason: ExitReason = ExitReason.CPUID,
    ) -> bytes:
        engine = SmartEngine(make_case(reason=reason), arch=arch)
        rng = random.Random(1234)
        blob = hashlib.sha256()
        for i in range(n):
            mutant = engine.next_mutant(rng)
            blob.update(mutant.pack())
            # a deterministic synthetic feedback pattern so the queue
            # and dictionary evolve (and splice activates)
            engine.feedback(
                mutant, new_loc=(3 if i % 7 == 0 else 0),
                cost_cycles=500 + 100 * (i % 5),
            )
        return blob.digest()

    def test_sequence_is_deterministic(self):
        assert self.run_sequence() == self.run_sequence()

    def test_golden_sequence_pinned(self):
        """The exact mutant stream for a fixed (case, rng, feedback)
        triple.  A digest change means the smart engine's determinism
        contract moved: every stored smart campaign and the
        smart_mutation bench baseline move with it, so bump them
        together and deliberately."""
        digest = self.run_sequence().hex()
        assert digest == (
            "4683af599852add128fb9a0fa529b59e"
            "313d5a59cf9a6e48e499e7e7958c2a99"
        )

    def test_arch_changes_the_stream(self):
        # IO exits have per-arch qualification layouts (VT-x exit
        # qualification vs SVM EXITINFO1), so the mutant streams
        # diverge; CPUID shares the generic fallback in both
        # namespaces, so there arch must NOT perturb the stream.
        io = ExitReason.IO_INSTRUCTION
        assert self.run_sequence(arch="vmx", reason=io) != \
            self.run_sequence(arch="svm", reason=io)
        assert self.run_sequence(arch="vmx") == \
            self.run_sequence(arch="svm")

    def test_feedback_grows_queue_and_dictionary(self):
        engine = SmartEngine(make_case())
        rng = random.Random(5)
        before = len(engine.dictionary)
        mutant = engine.next_mutant(rng)
        engine.feedback(mutant, new_loc=4, cost_cycles=800)
        assert engine.queue_size == 2
        assert engine.max_depth == 1
        assert len(engine.dictionary) >= before

    def test_no_coverage_no_queue_growth(self):
        engine = SmartEngine(make_case())
        rng = random.Random(6)
        for _ in range(10):
            mutant = engine.next_mutant(rng)
            engine.feedback(
                mutant, new_loc=0, cost_cycles=800, crashed=True
            )
        assert engine.queue_size == 1

    def test_queue_respects_cap(self):
        engine = SmartEngine(make_case())
        rng = random.Random(7)
        for _ in range(SmartEngine.MAX_QUEUE + 40):
            engine.feedback(
                engine.next_mutant(rng), new_loc=1, cost_cycles=100
            )
        assert engine.queue_size == SmartEngine.MAX_QUEUE

    def test_splice_needs_a_partner(self):
        engine = SmartEngine(make_case())
        rng = random.Random(8)
        for _ in range(50):
            engine.next_mutant(rng)
        assert engine.stage_counts["splice"] == 0

    def test_stages_all_fire_once_queue_grows(self):
        engine = SmartEngine(make_case())
        rng = random.Random(9)
        for i in range(300):
            mutant = engine.next_mutant(rng)
            engine.feedback(
                mutant, new_loc=1 if i % 3 == 0 else 0,
                cost_cycles=600,
            )
        assert all(engine.stage_counts[s] > 0
                   for s in SmartEngine.STAGES)

    def test_mutants_stay_inside_the_area(self):
        case = make_case(area=MutationArea.GPR)
        engine = SmartEngine(case)
        rng = random.Random(10)
        base = case.target_seed
        for _ in range(120):
            mutant = engine.next_mutant(rng)
            for i, e in enumerate(mutant.entries):
                if e.flag is not SeedFlag.GPR:
                    assert e == base.entries[i]

    def test_structural_values_land_in_tables(self):
        """CR0 slots only ever take mode-table values from the
        structural stage; seen values prove the stage targets the
        right slot."""
        case = make_case(area=MutationArea.VMCS)
        engine = SmartEngine(case)
        rng = random.Random(11)
        cr0_index = 2  # make_seed layout
        seen = set()
        for _ in range(400):
            mutant = engine.next_mutant(rng)
            seen.add(mutant.entries[cr0_index].value)
        mask = (1 << 64) - 1
        assert seen & {v & mask for v in CR0_MODE_VALUES}

    def test_cpuid_reason_steers_gprs_toward_leaves(self):
        case = make_case(
            area=MutationArea.GPR, reason=ExitReason.CPUID
        )
        engine = SmartEngine(case)
        rng = random.Random(12)
        seen = set()
        for _ in range(400):
            mutant = engine.next_mutant(rng)
            seen.update(e.value for e in mutant.entries
                        if e.flag is SeedFlag.GPR)
        assert seen & set(CPUID_LEAVES)
        assert seen & set(INTERESTING_GPR)


class TestBuildEngine:
    def test_dispatch(self):
        assert build_engine(make_case(engine="poc")).name == "poc"
        assert build_engine(make_case(engine="smart")).name == "smart"

    def test_unknown_engine_rejected_at_case_construction(self):
        with pytest.raises(ValueError, match="unknown mutation engine"):
            make_case(engine="teleport")

    def test_engine_names_pinned(self):
        # CLI choices, wire payloads, and store configs all key on
        # this vocabulary.
        assert ENGINE_NAMES == ("poc", "smart")
