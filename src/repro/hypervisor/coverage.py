"""gcov-style coverage instrumentation for the simulated hypervisor.

The paper selectively instruments the Xen components crucial for VM-exit
handling (§V-A) and collects *line* coverage.  The simulation mirrors
that: every handler code path is annotated with :class:`SourceBlock`
constants that name a (simulated) Xen source file and line range; a
:class:`CoverageMap` accumulates the lines of each executed block.

Coverage attributable to the IRIS record/replay components themselves is
tagged with the :data:`IRIS_FILE` pseudo-file and filtered out, matching
the paper's "code coverage is cleaned up by removing hits due to the
execution of our record and replay components".

Representation
--------------

``CoverageMap`` is the campaign data plane's hottest structure: every
dispatched VM exit hits it once per executed block, and parallel shard
merging unions whole maps per cell.  It therefore stores coverage as
**per-file integer bitmaps**: file names are interned to small ids on
first sight, and the lines covered in file ``f`` are the set bits of an
arbitrary-precision ``int``.  A :meth:`hit` is one dict lookup plus a
shift-and-or with the block's precomputed :attr:`SourceBlock.mask`;
:meth:`union` is one ``|`` per file; :attr:`loc` is ``bit_count()``.

The intern table is **local to each map** — two maps built in different
processes (or in different hit orders) assign different ids to the same
file.  Every binary operation therefore joins operands *by file name*,
never by id, so the merge algebra is unchanged from the historical
set-of-``(file, line)``-tuples representation: ``union`` stays
commutative, associative, and idempotent, and shard merging stays
order-insensitive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: The instrumented subset of the (simulated) Xen tree — the components
#: the paper names: vCPU abstraction, HVM domain functions, VMX handlers.
INSTRUMENTED_FILES: tuple[str, ...] = (
    "arch/x86/hvm/vmx/vmx.c",
    "arch/x86/hvm/vmx/vmcs.c",
    "arch/x86/hvm/vmx/intr.c",
    "arch/x86/hvm/hvm.c",
    "arch/x86/hvm/emulate.c",
    "arch/x86/hvm/vlapic.c",
    "arch/x86/hvm/irq.c",
    "arch/x86/hvm/vpt.c",
    "arch/x86/hvm/io.c",
    "arch/x86/hvm/vmsr.c",
    "arch/x86/mm/p2m-ept.c",
)

#: Pseudo-file for IRIS's own record/replay code; excluded from metrics.
IRIS_FILE = "iris/iris.c"

#: Files whose replay-vs-record differences the paper classifies as
#: asynchronous-event *noise* (1-30 LOC; §VI-B / Fig. 7).
NOISE_FILES: frozenset[str] = frozenset({
    "arch/x86/hvm/vlapic.c",
    "arch/x86/hvm/irq.c",
    "arch/x86/hvm/vpt.c",
})


#: Largest line number the metrics codecs accept.  A bitmap turns a
#: line number into an allocation (``1 << line``), so decoders of
#: untrusted bytes bound it: one 8-byte (name id, line) pair decodes
#: to at most an 8 KiB bitmap.  The largest instrumented line is
#: ~6,000, so this leaves ten times that as headroom.
MAX_COVERAGE_LINE = 2**16 - 1


def denoise(coverage: "CoverageMap") -> "CoverageMap":
    """Mask :data:`NOISE_FILES` out of a coverage map.

    A file mask, not a per-line filter: the result is a new map (the
    input is left alone), built with one pass over the ~11 files.
    """
    return coverage.without_files(NOISE_FILES)


def set_bits(bits: int) -> list[int]:
    """The set-bit positions of ``bits`` (the covered lines), ascending.

    Peeled from the top: ``bit_length`` finds the highest line without
    allocating, so each line costs one shift and one XOR, against three
    big-int operations for lowest-bit peeling (``bits & -bits``).
    """
    lines = []
    while bits:
        top = bits.bit_length() - 1
        lines.append(top)
        bits ^= 1 << top
    lines.reverse()
    return lines


@dataclass(frozen=True)
class SourceBlock:
    """A contiguous instrumented basic block: file plus line range.

    :attr:`mask` is the block's line-range bitmap, precomputed once at
    construction: hitting the block is a single OR of this constant
    into the owning file's coverage bitmap.
    """

    file: str
    start: int
    end: int  # inclusive
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"block end {self.end} before start {self.start}"
            )
        object.__setattr__(
            self, "mask",
            ((1 << (self.end - self.start + 1)) - 1) << self.start,
        )

    @property
    def loc(self) -> int:
        return self.end - self.start + 1

    def lines(self) -> Iterable[tuple[str, int]]:
        for line in range(self.start, self.end + 1):
            yield (self.file, line)


class BlockAllocator:
    """Deterministically assigns non-overlapping line ranges in a file.

    Handler modules use one allocator per simulated source file at import
    time, so every :class:`SourceBlock` is a stable module-level
    constant: the same block always covers the same lines, run to run.
    """

    def __init__(self, file: str, first_line: int = 100) -> None:
        self.file = file
        self._next_line = first_line

    def block(self, loc: int, gap: int = 2) -> SourceBlock:
        """Allocate the next ``loc``-line block in this file."""
        if loc < 1:
            raise ValueError("a block needs at least one line")
        start = self._next_line
        end = start + loc - 1
        self._next_line = end + 1 + gap
        return SourceBlock(self.file, start, end)


class CoverageMap:
    """Covered (file, line) pairs as per-file bitmaps, gcov-style ops.

    Binary operations join operands by file *name* (the per-map intern
    ids are private), so maps built with different intern orders — e.g.
    in different campaign worker processes — combine correctly.
    """

    __slots__ = ("_ids", "_files", "_bits")

    def __init__(self, lines: Iterable[tuple[str, int]] = ()) -> None:
        #: file name -> per-map id; id indexes ``_files`` and ``_bits``.
        self._ids: dict[str, int] = {}
        self._files: list[str] = []
        self._bits: list[int] = []
        for file, line in lines:
            self._bits[self._intern(file)] |= 1 << line

    def _intern(self, file: str) -> int:
        fid = self._ids.get(file)
        if fid is None:
            fid = len(self._files)
            self._ids[file] = fid
            self._files.append(file)
            self._bits.append(0)
        return fid

    def bitmaps(self) -> dict[str, int]:
        """Name-keyed view of the non-empty bitmaps (bit *n* = line *n*).

        What codecs and fingerprints walk instead of materializing
        :meth:`lines`; the ints are immutable, so the view is a
        snapshot.
        """
        return {
            file: bits
            for file, bits in zip(self._files, self._bits)
            if bits
        }

    @classmethod
    def from_bitmaps(cls, bitmaps: dict[str, int]) -> "CoverageMap":
        """The inverse of :meth:`bitmaps` (empty bitmaps dropped).

        A negative bitmap has infinitely many set bits, so walking its
        lines would never end: it raises :class:`ValueError`.
        """
        out = cls()
        for file, bits in bitmaps.items():
            if bits < 0:
                raise ValueError(f"negative coverage bitmap for {file!r}")
            if bits:
                out._bits[out._intern(file)] = bits
        return out

    # -- accumulation --------------------------------------------------

    def hit(self, block: SourceBlock) -> None:
        """Mark the block's lines covered: one shift-and-or."""
        fid = self._ids.get(block.file)
        if fid is None:
            fid = self._intern(block.file)
        self._bits[fid] |= block.mask

    def hit_all(self, blocks: Iterable[SourceBlock]) -> None:
        for block in blocks:
            self.hit(block)

    @property
    def loc(self) -> int:
        """Unique covered lines, excluding IRIS's own code."""
        return sum(
            bits.bit_count()
            for file, bits in zip(self._files, self._bits)
            if file != IRIS_FILE
        )

    # -- merge algebra -------------------------------------------------

    def merge(self, other: "CoverageMap") -> None:
        """In-place union (keeps IRIS lines, like :meth:`union`)."""
        for file, bits in zip(other._files, other._bits):
            if bits:
                self._bits[self._intern(file)] |= bits

    def union(self, other: "CoverageMap") -> "CoverageMap":
        """Pure, order-insensitive merge: a new map with both line sets.

        Per-file bitmap OR is commutative, associative, and idempotent,
        so parallel campaign shards can be merged in any order (or
        repeatedly, after a retry) without changing the result.  Like
        the constructor, this keeps :data:`IRIS_FILE` lines — only the
        *metrics* (:attr:`loc`, :meth:`by_file`) filter them.
        """
        merged = self.copy()
        merged.merge(other)
        return merged

    __or__ = union

    @classmethod
    def union_all(
        cls, maps: Iterable["CoverageMap"]
    ) -> "CoverageMap":
        """Union an arbitrary collection of maps (shard merging)."""
        merged = cls()
        for cov in maps:
            merged.merge(cov)
        return merged

    def difference(self, other: "CoverageMap") -> "CoverageMap":
        """Lines covered here but not in ``other``.

        Asymmetry with :meth:`union`, pinned deliberately: ``union``
        *keeps* :data:`IRIS_FILE` lines (it is the merge primitive and
        must not lose information), while ``difference`` *drops* them —
        its callers are coverage-delta reports, where the paper's
        clean-up of IRIS's own hits applies.
        """
        out = CoverageMap()
        for file, bits in zip(self._files, self._bits):
            if not bits or file == IRIS_FILE:
                continue
            remainder = bits & ~other._bitmap_for(file)
            if remainder:
                out._bits[out._intern(file)] = remainder
        return out

    def symmetric_difference(self, other: "CoverageMap") -> "CoverageMap":
        """Lines covered on exactly one side.

        Drops :data:`IRIS_FILE` lines, like :meth:`difference` (and
        unlike :meth:`union`) — it feeds divergence reports, not merges.
        """
        out = CoverageMap()
        for file in {*self._files, *other._files}:
            if file == IRIS_FILE:
                continue
            delta = self._bitmap_for(file) ^ other._bitmap_for(file)
            if delta:
                out._bits[out._intern(file)] = delta
        return out

    def _bitmap_for(self, file: str) -> int:
        fid = self._ids.get(file)
        return 0 if fid is None else self._bits[fid]

    def intersection_loc(self, other: "CoverageMap") -> int:
        return sum(
            (bits & other._bitmap_for(file)).bit_count()
            for file, bits in zip(self._files, self._bits)
            if file != IRIS_FILE
        )

    # -- reporting -----------------------------------------------------

    def by_file(self) -> dict[str, int]:
        """Covered-LOC histogram per file (IRIS code excluded)."""
        return {
            file: bits.bit_count()
            for file, bits in zip(self._files, self._bits)
            if bits and file != IRIS_FILE
        }

    def noise_loc(self) -> int:
        """LOC attributable to the asynchronous-noise files."""
        return sum(
            bits.bit_count()
            for file, bits in zip(self._files, self._bits)
            if file in NOISE_FILES
        )

    def without_files(self, files: frozenset[str]) -> "CoverageMap":
        out = CoverageMap()
        for file, bits in zip(self._files, self._bits):
            if bits and file not in files:
                out._bits[out._intern(file)] = bits
        return out

    def lines(self) -> frozenset[tuple[str, int]]:
        """Materialize the covered lines as (file, line) tuples."""
        return frozenset(self.sorted_lines())

    def sorted_lines(self) -> Iterator[tuple[str, int]]:
        """The covered lines in sorted-file, ascending-line order: the
        order of a sorted tuple set, which fingerprints and the
        IRISTRC1 metrics JSON are written in."""
        for file, bits in sorted(self.bitmaps().items()):
            for line in set_bits(bits):
                yield file, line

    def copy(self) -> "CoverageMap":
        clone = CoverageMap.__new__(CoverageMap)
        clone._ids = dict(self._ids)
        clone._files = list(self._files)
        clone._bits = list(self._bits)
        return clone

    def clear(self) -> None:
        self._ids.clear()
        self._files.clear()
        self._bits.clear()

    def reset(self) -> None:
        """Zero every bitmap but keep the intern table warm.

        Equivalent to :meth:`clear` for every observable operation
        (which all ignore empty bitmaps and private intern state), but
        a map that is emptied once per dispatched VM exit — the per-exit
        coverage — skips re-interning the same handful of files
        millions of times per campaign.
        """
        self._bits = [0] * len(self._bits)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON snapshot: ``{file: hex bitmap}``, sorted.

        Canonical means intern-order-independent: two maps covering the
        same lines serialize to the same bytes regardless of the order
        their files were first seen (e.g. in different worker
        processes).
        """
        return json.dumps(
            {
                file: format(bits, "x")
                for file, bits in sorted(self.bitmaps().items())
            },
            separators=(",", ":"), sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CoverageMap":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("coverage snapshot must be an object")
        return cls.from_bitmaps({
            file: int(hex_bits, 16) for file, hex_bits in payload.items()
        })

    # -- pickling (per-map intern tables travel whole) -----------------

    def __getstate__(self) -> dict[str, int]:
        return self.bitmaps()

    def __setstate__(self, state: dict[str, int]) -> None:
        self._ids = {}
        self._files = []
        self._bits = []
        for file, bits in state.items():
            self._bits[self._intern(file)] = bits

    # -- dunders -------------------------------------------------------

    def __contains__(self, line: tuple[str, int]) -> bool:
        file, number = line
        return bool(self._bitmap_for(file) >> number & 1)

    def __len__(self) -> int:
        return sum(bits.bit_count() for bits in self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        # By-name comparison: intern order is private state.
        return self.bitmaps() == other.bitmaps()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoverageMap({self.loc} LOC over {len(self.by_file())} files)"


def fitting_percentage(
    recorded: CoverageMap, replayed: CoverageMap
) -> float:
    """The paper's coverage-fitting metric: |replayed ∩ recorded| / |recorded|.

    Expressed in percent.  100.0 means replay rediscovered every line the
    recording covered.
    """
    recorded_loc = recorded.loc
    if recorded_loc == 0:
        return 100.0
    return 100.0 * replayed.intersection_loc(recorded) / recorded_loc
