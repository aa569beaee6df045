"""Unit tests for the coverage instrumentation."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.hypervisor.coverage import (
    BlockAllocator,
    CoverageMap,
    IRIS_FILE,
    NOISE_FILES,
    SourceBlock,
    fitting_percentage,
)


class TestSourceBlock:
    def test_loc(self):
        assert SourceBlock("a.c", 10, 14).loc == 5

    def test_single_line_block(self):
        assert SourceBlock("a.c", 10, 10).loc == 1

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            SourceBlock("a.c", 10, 9)

    def test_lines_enumeration(self):
        block = SourceBlock("a.c", 3, 5)
        assert list(block.lines()) == [("a.c", 3), ("a.c", 4),
                                       ("a.c", 5)]


class TestBlockAllocator:
    def test_blocks_do_not_overlap(self):
        alloc = BlockAllocator("f.c")
        blocks = [alloc.block(7) for _ in range(20)]
        lines: set[tuple[str, int]] = set()
        for block in blocks:
            block_lines = set(block.lines())
            assert not lines & block_lines
            lines |= block_lines

    def test_deterministic(self):
        a = BlockAllocator("f.c").block(5)
        b = BlockAllocator("f.c").block(5)
        assert a == b

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockAllocator("f.c").block(0)


class TestCoverageMap:
    def test_hit_accumulates_lines(self):
        cov = CoverageMap()
        cov.hit(SourceBlock("a.c", 1, 10))
        assert cov.loc == 10

    def test_overlapping_hits_count_once(self):
        cov = CoverageMap()
        cov.hit(SourceBlock("a.c", 1, 10))
        cov.hit(SourceBlock("a.c", 5, 15))
        assert cov.loc == 15

    def test_iris_file_excluded_from_loc(self):
        cov = CoverageMap()
        cov.hit(SourceBlock(IRIS_FILE, 1, 100))
        cov.hit(SourceBlock("a.c", 1, 5))
        assert cov.loc == 5  # paper: IRIS's own hits are cleaned up

    def test_difference(self):
        a = CoverageMap({("a.c", 1), ("a.c", 2)})
        b = CoverageMap({("a.c", 2)})
        assert a.difference(b).lines() == frozenset({("a.c", 1)})

    def test_symmetric_difference(self):
        a = CoverageMap({("a.c", 1), ("a.c", 2)})
        b = CoverageMap({("a.c", 2), ("a.c", 3)})
        assert len(a.symmetric_difference(b)) == 2

    def test_merge(self):
        a = CoverageMap({("a.c", 1)})
        a.merge(CoverageMap({("b.c", 1)}))
        assert a.loc == 2

    def test_by_file(self):
        cov = CoverageMap({("a.c", 1), ("a.c", 2), ("b.c", 9)})
        assert cov.by_file() == {"a.c": 2, "b.c": 1}

    def test_noise_loc(self):
        noise_file = next(iter(NOISE_FILES))
        cov = CoverageMap({(noise_file, 1), ("a.c", 1)})
        assert cov.noise_loc() == 1

    def test_without_files(self):
        cov = CoverageMap({("a.c", 1), ("b.c", 1)})
        assert cov.without_files(frozenset({"a.c"})).loc == 1

    def test_copy_is_independent(self):
        cov = CoverageMap({("a.c", 1)})
        clone = cov.copy()
        clone.hit(SourceBlock("a.c", 2, 2))
        assert cov.loc == 1

    def test_equality(self):
        assert CoverageMap({("a.c", 1)}) == CoverageMap({("a.c", 1)})
        assert CoverageMap() != CoverageMap({("a.c", 1)})


_line_sets = st.sets(
    st.tuples(
        st.sampled_from(["a.c", "b.c", "c.c", IRIS_FILE]),
        st.integers(min_value=1, max_value=300),
    ),
    max_size=40,
)


class TestBitmapAlgebra:
    """The merge algebra the parallel campaign relies on, pinned on the
    bitmap representation."""

    def test_or_operator_is_pure_union(self):
        a = CoverageMap({("a.c", 1)})
        b = CoverageMap({("b.c", 2)})
        merged = a | b
        assert merged.lines() == frozenset({("a.c", 1), ("b.c", 2)})
        # Purity: neither operand moved.
        assert a.lines() == frozenset({("a.c", 1)})
        assert b.lines() == frozenset({("b.c", 2)})

    @given(_line_sets, _line_sets, _line_sets)
    def test_union_commutative_associative_idempotent(self, x, y, z):
        a, b, c = CoverageMap(x), CoverageMap(y), CoverageMap(z)
        assert a | b == b | a
        assert (a | b) | c == a | (b | c)
        assert a | a == a
        assert CoverageMap.union_all([a, b, c]) == a | b | c

    @given(_line_sets, _line_sets)
    def test_merge_equals_union(self, x, y):
        merged = CoverageMap(x)
        merged.merge(CoverageMap(y))
        assert merged == CoverageMap(x) | CoverageMap(y)
        assert merged.lines() == frozenset(x | y)

    def test_union_keeps_iris_lines(self):
        # Pinned asymmetry: union is the merge primitive and must not
        # lose information, so IRIS's own lines survive it.
        merged = CoverageMap({(IRIS_FILE, 7)}) | CoverageMap({("a.c", 1)})
        assert (IRIS_FILE, 7) in merged
        assert merged.loc == 1  # ...but the metric still filters them.

    def test_difference_drops_iris_lines(self):
        cov = CoverageMap({(IRIS_FILE, 7), ("a.c", 1)})
        assert (IRIS_FILE, 7) not in cov.difference(CoverageMap())
        assert cov.difference(CoverageMap()).lines() == \
            frozenset({("a.c", 1)})

    def test_symmetric_difference_drops_iris_lines(self):
        a = CoverageMap({(IRIS_FILE, 7), ("a.c", 1)})
        b = CoverageMap({(IRIS_FILE, 9)})
        assert a.symmetric_difference(b).lines() == \
            frozenset({("a.c", 1)})


class TestInterningIsPrivate:
    """Maps built with different intern orders (e.g. in different
    worker processes) must compare and combine by file name."""

    @staticmethod
    def _map_hitting(files):
        cov = CoverageMap()
        for file in files:
            cov.hit(SourceBlock(file, 10, 12))
        return cov

    def test_intern_order_does_not_affect_equality(self):
        forward = self._map_hitting(["a.c", "b.c", "c.c"])
        backward = self._map_hitting(["c.c", "b.c", "a.c"])
        assert forward == backward

    def test_intern_order_does_not_affect_union(self):
        forward = self._map_hitting(["a.c", "b.c"])
        backward = self._map_hitting(["b.c", "a.c"])
        extra = CoverageMap({("b.c", 1), ("d.c", 2)})
        assert forward | extra == backward | extra
        assert (forward | extra).lines() == (backward | extra).lines()

    def test_empty_bitmaps_are_invisible(self):
        # reset() keeps interned files around with zeroed bitmaps;
        # equality and serialization must not see them.
        warm = self._map_hitting(["a.c", "b.c"])
        warm.reset()
        assert warm == CoverageMap()
        assert warm.to_json() == CoverageMap().to_json()
        assert len(warm) == 0


class TestSerialization:
    @given(_line_sets)
    def test_json_roundtrip(self, lines):
        cov = CoverageMap(lines)
        assert CoverageMap.from_json(cov.to_json()) == cov

    def test_json_is_canonical_across_intern_orders(self):
        a = CoverageMap([("b.c", 2), ("a.c", 1)])
        b = CoverageMap([("a.c", 1), ("b.c", 2)])
        assert a.to_json() == b.to_json()

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            CoverageMap.from_json("[1, 2]")

    def test_from_json_rejects_a_negative_bitmap(self):
        # "-1" would be a map with infinitely many lines: lines() on it
        # never returns.
        with pytest.raises(ValueError, match="negative"):
            CoverageMap.from_json('{"a.c":"-1"}')

    @given(_line_sets)
    def test_pickle_roundtrip(self, lines):
        cov = CoverageMap(lines)
        clone = pickle.loads(pickle.dumps(cov))
        assert clone == cov
        assert clone.lines() == cov.lines()
        # The clone is a live map, not a frozen snapshot.
        clone.hit(SourceBlock("z.c", 1, 3))
        assert clone != cov


class TestResetSemantics:
    def test_reset_is_observably_clear(self):
        cov = CoverageMap()
        cov.hit(SourceBlock("a.c", 1, 5))
        cov.reset()
        assert cov.loc == 0
        assert cov.lines() == frozenset()
        assert cov.by_file() == {}
        assert ("a.c", 1) not in cov

    def test_reset_map_accumulates_again(self):
        cov = CoverageMap()
        cov.hit(SourceBlock("a.c", 1, 5))
        cov.reset()
        cov.hit(SourceBlock("a.c", 3, 4))
        assert cov.lines() == frozenset({("a.c", 3), ("a.c", 4)})


class TestFitting:
    def test_identical_coverage_is_100(self):
        cov = CoverageMap({("a.c", 1), ("a.c", 2)})
        assert fitting_percentage(cov, cov.copy()) == 100.0

    def test_empty_recording_is_100(self):
        assert fitting_percentage(CoverageMap(), CoverageMap()) == 100.0

    def test_partial_fitting(self):
        recorded = CoverageMap({("a.c", i) for i in range(10)})
        replayed = CoverageMap({("a.c", i) for i in range(9)})
        assert fitting_percentage(recorded, replayed) == \
            pytest.approx(90.0)

    def test_replay_only_lines_do_not_raise_fitting(self):
        # Fitting measures how much of the *recorded* coverage replay
        # rediscovered; extra replay-only lines are irrelevant.
        recorded = CoverageMap({("a.c", 1)})
        replay_lines = {("b.c", i) for i in range(50)} | {("a.c", 1)}
        replayed = CoverageMap(replay_lines)
        assert fitting_percentage(recorded, replayed) == 100.0

    @given(st.sets(st.integers(min_value=1, max_value=200)))
    def test_fitting_bounded(self, lines):
        recorded = CoverageMap({("a.c", i) for i in lines})
        replayed = CoverageMap({("a.c", i) for i in lines if i % 2})
        assert 0.0 <= fitting_percentage(recorded, replayed) <= 100.0
