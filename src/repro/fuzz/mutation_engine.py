"""Structure-aware mutation engine (ROADMAP: "coverage-guided
intelligent mutation engine").

The paper's PoC mutates blindly — ``iris-fuzz --engine poc`` keeps
that stack byte-for-byte.  ``--engine smart`` replaces it with a
staged pipeline in the NecoFuzz/VIA mould: mutators that understand
what a virtualization-interface field *means*.

Stages (one is chosen per mutant, weighted, from the case RNG):

* **dictionary** — substitute a value harvested from the recorded
  trace and the evolving corpus for the same ``(flag, encoding)``
  slot (:class:`SeedDictionary`), optionally nudged by ±1;
* **structural** — craft a semantically loaded value for the slot:
  CR0/CR4 mode-transition bit sets, packed segment descriptors
  (access rights, selectors, limits, bases), and exit-reason-specific
  qualification encodings in *both* field namespaces — VT-x exit
  qualifications and SVM EXITINFO1 layouts;
* **havoc** — a stack of 1..N of the PoC primitives (bit/byte flip,
  arithmetic);
* **splice** — cross over entry values from another queue entry,
  then continue from the spliced seed.

Energy is assigned per queue entry by a deterministic cost-aware
:class:`PowerSchedule` (formula in DESIGN.md §13): entries that found
more new coverage get more energy, entries whose handler burned more
cycles get less.

Determinism contract: every choice flows from the caller's seeded
``random.Random`` and from deterministically ordered state (sorted
dictionary values, queue append order), so a shard's mutant sequence
is a pure function of ``(case, arch, rng seed)`` — the same contract
the PoC stack honors, which is what lets ``--engine smart`` campaigns
stay byte-identical across jobs counts, transports, and resume.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.arch.fields import (
    ArchField,
    SEGMENT_AR_FIELDS,
    SEGMENT_BASE_FIELDS,
    SEGMENT_LIMIT_FIELDS,
    SEGMENT_SELECTOR_FIELDS,
)
from repro.core.seed import SeedEntry, SeedFlag, VMSeed
from repro.fuzz.mutations import (
    MUTATION_RULES,
    MutationArea,
    area_indices,
    arithmetic_mutation,
    bit_flip,
    byte_flip,
    value_width,
)
from repro.vmx.exit_reasons import ExitReason

if TYPE_CHECKING:  # circular at runtime: testcase imports ENGINE_NAMES
    from repro.fuzz.testcase import FuzzTestCase

#: Engine vocabulary, in CLI order (``iris-fuzz --engine``).
ENGINE_NAMES: tuple[str, ...] = ("poc", "smart")


# ---- structure tables -------------------------------------------------

# CR0 mode bits (Intel SDM vol. 3 §2.5 / AMD APM vol. 2 §3.1).
_CR0_PE = 1 << 0
_CR0_MP = 1 << 1
_CR0_EM = 1 << 2
_CR0_TS = 1 << 3
_CR0_ET = 1 << 4
_CR0_NE = 1 << 5
_CR0_WP = 1 << 16
_CR0_AM = 1 << 18
_CR0_NW = 1 << 29
_CR0_CD = 1 << 30
_CR0_PG = 1 << 31

#: Mode-transition CR0 values: the legal mode lattice (real →
#: protected → paged) plus the canonical *illegal* combinations
#: hypervisor CR0 handlers must reject (PG without PE, NW without CD).
CR0_MODE_VALUES: tuple[int, ...] = (
    0,                                       # real mode, all clear
    _CR0_PE | _CR0_ET,                       # protected, no paging
    _CR0_PE | _CR0_PG | _CR0_ET | _CR0_NE,   # paged protected mode
    _CR0_PE | _CR0_PG | _CR0_WP | _CR0_NE | _CR0_MP | _CR0_ET,
    _CR0_PG,                                 # PG without PE: invalid
    _CR0_NW,                                 # NW without CD: invalid
    _CR0_CD | _CR0_NW,                       # cache fully disabled
    _CR0_PE | _CR0_EM | _CR0_TS,             # FPU trap configuration
    _CR0_PE | _CR0_AM,                       # alignment-check arming
    0xFFFF_FFFF,                             # every legacy bit
    1 << 32,                                 # reserved upper bit
)

# CR4 feature bits.
_CR4_TSD = 1 << 2
_CR4_PSE = 1 << 4
_CR4_PAE = 1 << 5
_CR4_MCE = 1 << 6
_CR4_PGE = 1 << 7
_CR4_OSFXSR = 1 << 9
_CR4_UMIP = 1 << 11
_CR4_VMXE = 1 << 13
_CR4_SMXE = 1 << 14
_CR4_PCIDE = 1 << 17
_CR4_OSXSAVE = 1 << 18
_CR4_SMEP = 1 << 20
_CR4_SMAP = 1 << 21

#: Mode-transition CR4 values (paging flavors, virtualization enables,
#: supervisor hardening) plus combinations that are reserved or only
#: legal with specific CR0/EFER states.
CR4_MODE_VALUES: tuple[int, ...] = (
    0,
    _CR4_PAE,                                # long-mode prerequisite
    _CR4_PAE | _CR4_PGE | _CR4_PSE,
    _CR4_PCIDE,                              # PCIDE without PAE: invalid
    _CR4_VMXE,
    _CR4_VMXE | _CR4_SMXE,
    _CR4_SMEP | _CR4_SMAP | _CR4_UMIP,
    _CR4_OSFXSR | _CR4_OSXSAVE,
    _CR4_TSD | _CR4_MCE,
    0xFFFF_FFFF,
    1 << 32,
)

#: Interesting 64-bit constants for GPR slots: signedness boundaries
#: and the canonical-address frontier.
INTERESTING_GPR: tuple[int, ...] = (
    0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
    0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF,
    0x0000_7FFF_FFFF_FFFF,                   # last canonical low half
    0x0000_8000_0000_0000,                   # first non-canonical
    0xFFFF_7FFF_FFFF_FFFF,                   # last non-canonical
    0xFFFF_8000_0000_0000,                   # first canonical high half
    0x7FFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0000,
    0xFFFF_FFFF_FFFF_FFFF,
)

#: CPUID leaves worth steering RAX toward (basic, extended, and the
#: hypervisor leaf range).
CPUID_LEAVES: tuple[int, ...] = (
    0, 1, 2, 4, 7, 0xB, 0xD,
    0x4000_0000, 0x4000_0001,
    0x8000_0000, 0x8000_0002, 0x8000_0008,
)

#: Legacy I/O ports with real platform devices behind them.
_IO_PORTS: tuple[int, ...] = (
    0x20, 0x21, 0x40, 0x60, 0x64, 0x70, 0x71, 0x3F8, 0xCF8, 0xCFC,
)

#: Fallback qualification values for exit reasons without a dedicated
#: encoder (small indices, width boundaries).
_GENERIC_QUALIFICATIONS: tuple[int, ...] = (
    0, 1, 2, 3, 4, 8, 0xFF, 0x1000, 0xFFFF,
    1 << 31, 1 << 32, (1 << 64) - 1,
)

_CR0_FIELDS = frozenset((ArchField.GUEST_CR0, ArchField.CR0_READ_SHADOW))
_CR4_FIELDS = frozenset((ArchField.GUEST_CR4, ArchField.CR4_READ_SHADOW))
_SEG_AR = frozenset(SEGMENT_AR_FIELDS)
_SEG_SELECTOR = frozenset(SEGMENT_SELECTOR_FIELDS)
_SEG_LIMIT = frozenset(SEGMENT_LIMIT_FIELDS)
_SEG_BASE = frozenset(SEGMENT_BASE_FIELDS)


# ---- structural crafters ---------------------------------------------

def craft_cr0(rng: random.Random) -> int:
    """A mode-transition CR0 value (legal lattice + illegal combos)."""
    return rng.choice(CR0_MODE_VALUES)


def craft_cr4(rng: random.Random) -> int:
    """A mode-transition CR4 value."""
    return rng.choice(CR4_MODE_VALUES)


def pack_segment_ar(rng: random.Random) -> int:
    """Pack a VMX-format segment access-rights dword from components.

    Field layout (Intel SDM vol. 3 §25.4.1): type[3:0], S[4],
    DPL[6:5], P[7], AVL[12], L[13], D/B[14], G[15], unusable[16].
    """
    seg_type = rng.choice((0x0, 0x2, 0x3, 0x9, 0xB, 0xC, 0xF))
    descriptor = rng.randrange(2)
    dpl = rng.randrange(4)
    present = rng.randrange(2)
    avl = rng.randrange(2)
    long_mode = rng.randrange(2)
    default_big = rng.randrange(2)
    granularity = rng.randrange(2)
    unusable = rng.choice((0, 0, 0, 1))
    return (
        seg_type
        | descriptor << 4
        | dpl << 5
        | present << 7
        | avl << 12
        | long_mode << 13
        | default_big << 14
        | granularity << 15
        | unusable << 16
    )


def pack_segment_selector(rng: random.Random) -> int:
    """Pack a selector: index[15:3], table-indicator[2], RPL[1:0]."""
    index = rng.choice((0, 1, 2, 3, 8, 0x100, 0x1FFF))
    table = rng.randrange(2)
    rpl = rng.randrange(4)
    return index << 3 | table << 2 | rpl


def craft_segment_limit(rng: random.Random) -> int:
    """Limits at granularity boundaries (byte vs 4K-page units)."""
    return rng.choice((
        0, 1, 0xFFF, 0x1000, 0xFFFF, 0x10000, 0xF_FFFF,
        0xFFFF_F000, 0xFFFF_FFFF,
    ))


def craft_segment_base(rng: random.Random) -> int:
    """Bases at canonical-address and alignment boundaries."""
    return rng.choice((
        0, 0x1000, 0xFFFF_0000, 0xFFFF_FFFF,
        0x0000_7FFF_FFFF_F000, 0x0000_8000_0000_0000,
        0xFFFF_8000_0000_0000, 0xFFFF_FFFF_FFFF_F000,
    ))


def vmx_qualification(reason: ExitReason, rng: random.Random) -> int:
    """An exit-qualification value shaped for the VT-x encoding of
    ``reason`` (Intel SDM vol. 3 §28.2.1)."""
    if reason is ExitReason.CR_ACCESS:
        # cr[3:0], access-type[5:4], LMSW-operand[6], reg[11:8].
        cr = rng.choice((0, 3, 4, 8))
        access = rng.randrange(4)
        reg = rng.randrange(16)
        return cr | access << 4 | reg << 8
    if reason is ExitReason.IO_INSTRUCTION:
        # size[2:0], direction[3], string[4], REP[5], imm-operand[6],
        # port[31:16].
        size = rng.choice((0, 1, 3))
        direction = rng.randrange(2)
        string_op = rng.randrange(2)
        rep = rng.randrange(2)
        operand = rng.randrange(2)
        port = rng.choice(_IO_PORTS)
        return (
            size | direction << 3 | string_op << 4 | rep << 5
            | operand << 6 | port << 16
        )
    if reason is ExitReason.EPT_VIOLATION:
        # access r/w/x[2:0], permissions[5:3], valid-linear[7].
        access = 1 << rng.randrange(3)
        permitted = rng.randrange(8)
        valid_linear = rng.randrange(2)
        return access | permitted << 3 | valid_linear << 7
    return rng.choice(_GENERIC_QUALIFICATIONS)


def svm_exit_info(reason: ExitReason, rng: random.Random) -> int:
    """An EXITINFO1-shaped value for the SVM twin of ``reason``
    (AMD APM vol. 2, appendix C).  Seeds carry the neutral (VT-x)
    reason namespace on both backends, so the *reason* key is shared
    and only the value layout is per-arch."""
    if reason is ExitReason.CR_ACCESS:
        # MOV-CRx intercepts: GPR number[3:0]; bit 63 flags the
        # decode-assisted MOV-CR form.
        return rng.randrange(16) | rng.randrange(2) << 63
    if reason is ExitReason.IO_INSTRUCTION:
        # type(IN)[0], string[2], REP[3], size SZ8/16/32[6:4],
        # port[31:16].
        direction_in = rng.randrange(2)
        string_op = rng.randrange(2)
        rep = rng.randrange(2)
        size = 1 << rng.choice((4, 5, 6))
        port = rng.choice(_IO_PORTS)
        return (
            direction_in | string_op << 2 | rep << 3 | size
            | port << 16
        )
    if reason is ExitReason.EPT_VIOLATION:
        # Nested-page-fault error code: P/W/U/RSV/ID plus the
        # final-walk (bit 32) / guest-page-table (bit 33) qualifiers.
        code = rng.choice((0x0, 0x1, 0x2, 0x4, 0x9, 0x10))
        walk = rng.choice((0, 1 << 32, 1 << 33))
        return code | walk
    return rng.choice(_GENERIC_QUALIFICATIONS)


def qualification_value(
    reason: ExitReason, arch: str, rng: random.Random
) -> int:
    """Exit-reason-specific qualification in the backend's namespace."""
    if arch == "svm":
        return svm_exit_info(reason, rng)
    return vmx_qualification(reason, rng)


# ---- the harvested value dictionary ----------------------------------

class SeedDictionary:
    """Interesting constants per seed slot, harvested automatically.

    Keys are ``(flag, encoding)`` pairs — a GPR number or a compact
    VMCS field index — and values are the constants recorded seeds
    (and, during a campaign, corpus finds) actually carried there.
    Lookups return sorted tuples and the merge is a pure per-key set
    union, so harvesting is order-insensitive and jobs-invariant:
    ``harvest(a + b) == harvest(a).merge(harvest(b))`` (the property
    tests pin the full algebra).
    """

    def __init__(
        self,
        values: Mapping[tuple[int, int], Iterable[int]] | None = None,
    ) -> None:
        self._values: dict[tuple[int, int], set[int]] = {}
        self._sorted: dict[tuple[int, int], tuple[int, ...]] = {}
        if values:
            for (flag, encoding), vals in values.items():
                for value in vals:
                    self.add(flag, encoding, value)

    def add(self, flag: int, encoding: int, value: int) -> None:
        """Record one observed value for one slot (dedup'd)."""
        key = (int(flag), int(encoding))
        bucket = self._values.setdefault(key, set())
        if value not in bucket:
            bucket.add(value)
            self._sorted.pop(key, None)

    def feed(self, seed: VMSeed) -> None:
        """Harvest every entry of ``seed``."""
        for entry in seed.entries:
            self.add(int(entry.flag), entry.encoding, entry.value)

    @classmethod
    def harvest(cls, seeds: Iterable[VMSeed]) -> "SeedDictionary":
        """Build a dictionary from recorded seeds / corpus seeds."""
        dictionary = cls()
        for seed in seeds:
            dictionary.feed(seed)
        return dictionary

    def values_for(self, flag: int, encoding: int) -> tuple[int, ...]:
        """The slot's constants, sorted (deterministic pick order)."""
        key = (int(flag), int(encoding))
        cached = self._sorted.get(key)
        if cached is None:
            bucket = self._values.get(key)
            if bucket is None:
                return ()
            cached = tuple(sorted(bucket))
            self._sorted[key] = cached
        return cached

    def merge(self, other: "SeedDictionary") -> "SeedDictionary":
        """Order-insensitive union (new dictionary, inputs untouched)."""
        merged = SeedDictionary()
        for source in (self, other):
            for (flag, encoding), bucket in source._values.items():
                for value in bucket:
                    merged.add(flag, encoding, value)
        return merged

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._values.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedDictionary):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return (
            f"SeedDictionary({len(self._values)} slots, "
            f"{len(self)} values)"
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys and values; exact round-trip)."""
        return json.dumps(
            {
                f"{flag}:{encoding}": list(self.values_for(flag, encoding))
                for flag, encoding in self.keys()
            },
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SeedDictionary":
        payload = json.loads(text)
        dictionary = cls()
        for key, values in payload.items():
            flag_text, _, encoding_text = key.partition(":")
            for value in values:
                dictionary.add(
                    int(flag_text), int(encoding_text), int(value)
                )
        return dictionary


# ---- power schedule ---------------------------------------------------

@dataclass(frozen=True)
class PowerSchedule:
    """Deterministic cost-aware energy assignment (DESIGN.md §13).

    ``energy = clamp(base * (1 + new_loc) // (1 + cost_penalty),
    min, max)`` with ``cost_penalty = max(0, bit_length(cost_cycles)
    - cost_floor_bits)``: novelty buys energy linearly, handler cost
    taxes it logarithmically.  Pure integer arithmetic, so the value
    is identical on every platform and Python version.
    """

    base_energy: int = 8
    min_energy: int = 2
    max_energy: int = 64
    cost_floor_bits: int = 12

    def energy(self, new_loc: int, cost_cycles: int) -> int:
        penalty = max(
            max(cost_cycles, 0).bit_length() - self.cost_floor_bits, 0
        )
        raw = self.base_energy * (1 + max(new_loc, 0)) // (1 + penalty)
        return max(self.min_energy, min(self.max_energy, raw))


@dataclass(frozen=True)
class PowerQueueEntry:
    """One seed in the smart engine's queue."""

    seed: VMSeed
    new_loc: int
    cost_cycles: int
    depth: int


# ---- engines ----------------------------------------------------------

class MutationEngine:
    """What the fuzzers drive: a mutant source with a feedback edge."""

    name = "base"

    def next_mutant(self, rng: random.Random) -> VMSeed:
        raise NotImplementedError

    def feedback(
        self,
        mutant: VMSeed,
        *,
        new_loc: int,
        cost_cycles: int,
        crashed: bool = False,
    ) -> None:
        """Report one execution's outcome back to the engine."""

    @property
    def queue_size(self) -> int:
        return 1

    @property
    def max_depth(self) -> int:
        return 0


class PocEngine(MutationEngine):
    """The paper's flat stack, byte-for-byte.

    ``next_mutant`` performs exactly the call the pre-engine fuzzer
    loop made — ``MUTATION_RULES[rule](target_seed, area, rng)`` —
    consuming the identical RNG stream, so every existing baseline
    (bench checks, golden campaigns) is unchanged.
    """

    name = "poc"

    def __init__(self, case: "FuzzTestCase") -> None:
        self._mutate = MUTATION_RULES[case.mutation_rule]
        self._seed = case.target_seed
        self._area = case.area

    def next_mutant(self, rng: random.Random) -> VMSeed:
        return self._mutate(self._seed, self._area, rng)


class SmartEngine(MutationEngine):
    """The staged structure-aware pipeline."""

    name = "smart"

    #: Stage vocabulary with selection weights; splice is dropped from
    #: the draw while the queue has no partner to splice with.
    STAGES: tuple[str, ...] = (
        "dictionary", "structural", "havoc", "splice",
    )
    _STAGE_WEIGHTS: tuple[int, ...] = (4, 4, 3, 2)

    #: Queue ceiling — keeps long campaigns bounded; the cap is part
    #: of the deterministic contract (append order is deterministic,
    #: so which entries are kept is too).
    MAX_QUEUE = 256

    #: Most PoC primitives one havoc mutant stacks.
    MAX_HAVOC_STACK = 3

    #: Energy per selected queue entry (DESIGN.md §13).
    SCHEDULE = PowerSchedule()

    _HAVOC_OPS = (bit_flip, byte_flip, arithmetic_mutation)

    def __init__(self, case: "FuzzTestCase", arch: str = "vmx") -> None:
        self.area = case.area
        self.reason = case.exit_reason
        self.arch = arch
        # The automatic harvest: every recorded seed's constants,
        # keyed per slot.  Corpus finds feed in via ``feedback``.
        self.dictionary = SeedDictionary.harvest(
            record.seed for record in case.trace.records
        )
        base_cost = case.trace.records[case.seed_index] \
            .metrics.handler_cycles
        self.queue: list[PowerQueueEntry] = [PowerQueueEntry(
            seed=case.target_seed, new_loc=0,
            cost_cycles=base_cost, depth=0,
        )]
        self.executions = 0
        self.stage_counts: dict[str, int] = {s: 0 for s in self.STAGES}
        self._max_depth = 0
        self._current = self.queue[0]
        self._energy = 0

    # -- scheduling ----------------------------------------------------

    @property
    def queue_size(self) -> int:
        return len(self.queue)

    @property
    def max_depth(self) -> int:
        return self._max_depth

    def _select(self, rng: random.Random) -> PowerQueueEntry:
        """Pick the next queue entry: energy-weighted, recency-boosted."""
        weights = [
            float(
                self.SCHEDULE.energy(e.new_loc, e.cost_cycles)
                * (1 + index)
            )
            for index, e in enumerate(self.queue)
        ]
        return rng.choices(self.queue, weights=weights, k=1)[0]

    def _pick_stage(self, rng: random.Random) -> str:
        names, weights = self.STAGES, self._STAGE_WEIGHTS
        if len(self.queue) < 2:  # splice needs a partner
            names, weights = names[:-1], weights[:-1]
        return rng.choices(names, weights=weights, k=1)[0]

    def next_mutant(self, rng: random.Random) -> VMSeed:
        if self._energy <= 0:
            self._current = self._select(rng)
            self._energy = self.SCHEDULE.energy(
                self._current.new_loc, self._current.cost_cycles
            )
        self._energy -= 1
        stage = self._pick_stage(rng)
        self.stage_counts[stage] += 1
        return self._apply_stage(stage, self._current.seed, rng)

    def feedback(
        self,
        mutant: VMSeed,
        *,
        new_loc: int,
        cost_cycles: int,
        crashed: bool = False,
    ) -> None:
        self.executions += 1
        if new_loc > 0:
            # Cross-pollination: the find's constants join the
            # dictionary, and the find itself joins the queue (so
            # splice can recombine it).
            self.dictionary.feed(mutant)
            if len(self.queue) < self.MAX_QUEUE:
                depth = self._current.depth + 1
                self.queue.append(PowerQueueEntry(
                    seed=mutant, new_loc=new_loc,
                    cost_cycles=max(cost_cycles, 0), depth=depth,
                ))
                self._max_depth = max(self._max_depth, depth)

    # -- stages --------------------------------------------------------

    def _apply_stage(
        self, stage: str, seed: VMSeed, rng: random.Random
    ) -> VMSeed:
        if stage == "dictionary":
            return self._dictionary_stage(seed, rng)
        if stage == "structural":
            return self._structural_stage(seed, rng)
        if stage == "splice":
            return self._splice_stage(seed, rng)
        return self._havoc_stage(seed, rng)

    def _havoc_stage(
        self, seed: VMSeed, rng: random.Random
    ) -> VMSeed:
        """A stack of 1..N PoC primitives — always applicable, so the
        other stages fall back here when they have nothing to bite."""
        mutant = seed
        for _ in range(rng.randint(1, self.MAX_HAVOC_STACK)):
            op = rng.choice(self._HAVOC_OPS)
            mutant = op(mutant, self.area, rng)
        return mutant

    def _dictionary_stage(
        self, seed: VMSeed, rng: random.Random
    ) -> VMSeed:
        indices = [
            index for index in area_indices(seed, self.area)
            if len(self.dictionary.values_for(
                int(seed.entries[index].flag),
                seed.entries[index].encoding,
            )) > 1
        ]
        if not indices:
            return self._havoc_stage(seed, rng)
        index = rng.choice(indices)
        entry = seed.entries[index]
        values = self.dictionary.values_for(
            int(entry.flag), entry.encoding
        )
        value = rng.choice(values)
        mask = (1 << value_width(entry)) - 1
        nudge = rng.choice((0, 0, 1, -1))
        return seed.replace_entry(index, SeedEntry(
            flag=entry.flag, encoding=entry.encoding,
            value=(value + nudge) & mask,
        ))

    def _structural_stage(
        self, seed: VMSeed, rng: random.Random
    ) -> VMSeed:
        candidates = self._structural_candidates(seed)
        if not candidates:
            return self._havoc_stage(seed, rng)
        index, crafter = rng.choice(candidates)
        entry = seed.entries[index]
        mask = (1 << value_width(entry)) - 1
        return seed.replace_entry(index, SeedEntry(
            flag=entry.flag, encoding=entry.encoding,
            value=crafter(rng) & mask,
        ))

    def _structural_candidates(
        self, seed: VMSeed
    ) -> list[tuple[int, Callable[[random.Random], int]]]:
        """The (index, crafter) pairs structural mutation can hit,
        in entry order (deterministic pick domain)."""
        candidates: list[
            tuple[int, Callable[[random.Random], int]]
        ] = []
        for index in area_indices(seed, self.area):
            entry = seed.entries[index]
            if entry.flag is SeedFlag.GPR:
                candidates.append((index, self._craft_gpr))
                continue
            fld = entry.vmcs_field
            if fld in _CR0_FIELDS:
                candidates.append((index, craft_cr0))
            elif fld in _CR4_FIELDS:
                candidates.append((index, craft_cr4))
            elif fld in _SEG_AR:
                candidates.append((index, pack_segment_ar))
            elif fld in _SEG_SELECTOR:
                candidates.append((index, pack_segment_selector))
            elif fld in _SEG_LIMIT:
                candidates.append((index, craft_segment_limit))
            elif fld in _SEG_BASE:
                candidates.append((index, craft_segment_base))
            elif fld is ArchField.EXIT_QUALIFICATION:
                candidates.append((index, self._craft_qualification))
        return candidates

    def _craft_gpr(self, rng: random.Random) -> int:
        if self.reason is ExitReason.CPUID and rng.randrange(2):
            return rng.choice(CPUID_LEAVES)
        return rng.choice(INTERESTING_GPR)

    def _craft_qualification(self, rng: random.Random) -> int:
        return qualification_value(self.reason, self.arch, rng)

    def _splice_stage(
        self, seed: VMSeed, rng: random.Random
    ) -> VMSeed:
        if len(self.queue) < 2:
            return self._havoc_stage(seed, rng)
        donor = rng.choice(self.queue).seed
        mutant = seed
        swapped = False
        for index in area_indices(seed, self.area):
            if index >= len(donor.entries):
                continue
            ours = mutant.entries[index]
            theirs = donor.entries[index]
            if (
                theirs.flag is ours.flag
                and theirs.encoding == ours.encoding
                and theirs.value != ours.value
                and rng.randrange(2)
            ):
                mutant = mutant.replace_entry(index, SeedEntry(
                    flag=ours.flag, encoding=ours.encoding,
                    value=theirs.value,
                ))
                swapped = True
        if not swapped:
            # Nothing to cross over (identical partner): havoc instead.
            return self._havoc_stage(mutant, rng)
        return mutant


def build_engine(
    case: "FuzzTestCase", arch: str = "vmx"
) -> MutationEngine:
    """The engine a test case asked for (``case.engine``)."""
    name = getattr(case, "engine", "poc")
    if name == "poc":
        return PocEngine(case)
    if name == "smart":
        return SmartEngine(case, arch=arch)
    raise ValueError(
        f"unknown mutation engine {name!r} "
        f"(expected one of {', '.join(ENGINE_NAMES)})"
    )
