"""Mutant corpus: interesting seeds kept for later campaigns.

The PoC fuzzer saves a mutated seed when it discovered *new* coverage
(relative to everything the campaign has seen) or caused a failure —
the seeds "saved for further investigation with the aim of crash
analysis" (§VII-3).  Deduplication is by coverage fingerprint so the
corpus stays small under the 10K-mutation barrage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.seed import VMSeed
from repro.fuzz.failures import FailureKind
from repro.hypervisor.coverage import CoverageMap


@dataclass(frozen=True)
class CorpusEntry:
    """One retained mutant."""

    seed: VMSeed
    reason_kept: str  # "new-coverage" | "vm-crash" | "hypervisor-crash"
    new_loc: int = 0
    coverage_fingerprint: str = ""


def coverage_fingerprint(coverage: CoverageMap) -> str:
    """Stable fingerprint of a coverage map.

    SHA-256 over ``file:line;`` in :meth:`CoverageMap.sorted_lines`
    order, the order a sorted set of ``(file, line)`` tuples iterates
    in, so fingerprints stay byte-identical to those stored before
    coverage was handed around as bitmaps.
    """
    text = "".join([
        f"{file}:{line};" for file, line in coverage.sorted_lines()
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def entry_identity(entry: CorpusEntry) -> tuple:
    """Total order over entries, independent of discovery order.

    Covers every field (the packed seed bytes stand in for the seed),
    so two entries compare equal exactly when they are the same
    retained mutant — the key parallel shard merging dedups and sorts
    by.
    """
    return (
        entry.reason_kept,
        entry.coverage_fingerprint,
        entry.seed.pack(),
        entry.new_loc,
    )


@dataclass
class Corpus:
    """The campaign's retained-mutant set."""

    entries: list[CorpusEntry] = field(default_factory=list)
    _fingerprints: set[str] = field(default_factory=set)

    def consider(
        self,
        seed: VMSeed,
        lines: CoverageMap,
        new_loc: int,
        failure: FailureKind = FailureKind.NONE,
    ) -> bool:
        """Add the mutant if it is interesting; returns True if kept."""
        if failure is not FailureKind.NONE:
            self.entries.append(CorpusEntry(
                seed=seed, reason_kept=failure.value,
                coverage_fingerprint=coverage_fingerprint(lines),
            ))
            return True
        if new_loc <= 0:
            return False
        fingerprint = coverage_fingerprint(lines)
        if fingerprint in self._fingerprints:
            return False
        self._fingerprints.add(fingerprint)
        self.entries.append(CorpusEntry(
            seed=seed, reason_kept="new-coverage", new_loc=new_loc,
            coverage_fingerprint=fingerprint,
        ))
        return True

    def merge(self, other: "Corpus") -> "Corpus":
        """Pure, order-insensitive merge of two corpora.

        Returns a new *canonical* corpus: entries from both sides,
        deduplicated by :func:`entry_identity` and sorted by it.  On
        canonical corpora the operation is commutative, associative,
        and idempotent, so parallel campaign shards merge to the same
        corpus regardless of worker count, scheduling, or retries.
        """
        seen: dict[tuple, CorpusEntry] = {}
        for entry in self.entries + other.entries:
            seen.setdefault(entry_identity(entry), entry)
        merged = Corpus()
        merged.entries = sorted(seen.values(), key=entry_identity)
        merged._fingerprints = {
            e.coverage_fingerprint for e in merged.entries
            if e.reason_kept == "new-coverage"
        }
        return merged

    @classmethod
    def from_entries(
        cls, entries: Iterable[CorpusEntry]
    ) -> "Corpus":
        """Rebuild a corpus from stored entries, order preserved.

        The inverse of persisting :attr:`entries` row by row (the
        campaign store's corpus table): the fingerprint index is
        reconstituted exactly as :meth:`consider` would have built it —
        only ``"new-coverage"`` entries claim their fingerprint — so a
        loaded corpus is structurally equal to the one that was saved,
        including discovery order.
        """
        corpus = cls()
        corpus.entries = list(entries)
        corpus._fingerprints = {
            e.coverage_fingerprint for e in corpus.entries
            if e.reason_kept == "new-coverage"
        }
        return corpus

    @classmethod
    def merge_all(cls, corpora: Iterable["Corpus"]) -> "Corpus":
        """n-way :meth:`merge` in one pass.

        Identical result to ``reduce(Corpus.merge, corpora, Corpus())``
        (merge is associative with the empty corpus as identity), but
        each entry's :func:`entry_identity` — which packs the seed — is
        computed once, and the canonical sort happens once instead of
        once per pairwise merge.
        """
        seen: dict[tuple, CorpusEntry] = {}
        for corpus in corpora:
            for entry in corpus.entries:
                seen.setdefault(entry_identity(entry), entry)
        merged = cls()
        merged.entries = [seen[key] for key in sorted(seen)]
        merged._fingerprints = {
            e.coverage_fingerprint for e in merged.entries
            if e.reason_kept == "new-coverage"
        }
        return merged

    def canonical(self) -> "Corpus":
        """This corpus in canonical (sorted, deduplicated) form."""
        return self.merge(Corpus())

    def copy(self) -> "Corpus":
        clone = Corpus()
        clone.entries = list(self.entries)
        clone._fingerprints = set(self._fingerprints)
        return clone

    def crashes(self) -> list[CorpusEntry]:
        return [
            e for e in self.entries
            if e.reason_kept in ("vm-crash", "hypervisor-crash")
        ]

    def __len__(self) -> int:
        return len(self.entries)
