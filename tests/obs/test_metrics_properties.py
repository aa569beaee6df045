"""Property tests for the metrics merge algebra (ISSUE satellite b).

The jobs-invariance of campaign metrics rests entirely on
:meth:`MetricsSnapshot.merge` being a commutative monoid (like
``CoverageMap.union``): associative, commutative, with ``empty()`` as
identity.  Hypothesis drives arbitrary registries through the algebra
and checks the laws, plus the histogram-specific guarantee that
merging never loses observations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_of,
)

# ---- strategies -------------------------------------------------------

_names = st.sampled_from(
    ["exits_handled", "seed_bytes", "vmread_overrides", "x"]
)
_labels = st.dictionaries(
    st.sampled_from(["reason", "arch", "kind"]),
    st.sampled_from(["RDTSC", "CPUID", "vmx", "svm", "a b"]),
    max_size=2,
)
_counter_ops = st.tuples(
    _names, _labels, st.integers(min_value=0, max_value=1 << 40)
)
_observe_ops = st.tuples(
    _names, _labels, st.integers(min_value=-4, max_value=1 << 40)
)


@st.composite
def snapshots(draw) -> MetricsSnapshot:
    registry = MetricsRegistry(record_wall=False)
    for name, labels, value in draw(
        st.lists(_counter_ops, max_size=8)
    ):
        registry.inc(name, value=value, **labels)
    for name, labels, value in draw(
        st.lists(_observe_ops, max_size=8)
    ):
        registry.observe(name, value, **labels)
    return registry.snapshot()


_values = st.lists(
    st.integers(min_value=-8, max_value=1 << 50), max_size=20
)


def _hist(values: list[int]) -> HistogramSnapshot:
    registry = MetricsRegistry(record_wall=False)
    for value in values:
        registry.observe("h", value)
    return registry.snapshot().histogram("h") or HistogramSnapshot()


# ---- the monoid laws --------------------------------------------------

@settings(max_examples=200)
@given(snapshots(), snapshots())
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@settings(max_examples=200)
@given(snapshots(), snapshots(), snapshots())
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(snapshots())
def test_empty_is_identity(a):
    empty = MetricsSnapshot.empty()
    assert a.merge(empty) == a
    assert empty.merge(a) == a
    assert empty.merge(empty) == empty


@settings(max_examples=100)
@given(st.lists(snapshots(), max_size=5))
def test_merge_all_equals_folded_pairwise_merge(snaps):
    folded = MetricsSnapshot.empty()
    for snap in snaps:
        folded = folded.merge(snap)
    assert MetricsSnapshot.merge_all(snaps) == folded


@settings(max_examples=100)
@given(snapshots(), snapshots())
def test_counter_totals_add_up(a, b):
    merged = a.merge(b)
    for name in ("exits_handled", "seed_bytes", "x"):
        assert merged.counter_total(name) == (
            a.counter_total(name) + b.counter_total(name)
        )


# ---- histograms never lose counts -------------------------------------

@settings(max_examples=200)
@given(_values, _values)
def test_histogram_merge_is_lossless(xs, ys):
    merged = _hist(xs).merge(_hist(ys))
    combined = xs + ys
    assert merged.count == len(combined)
    assert merged.total == sum(combined)
    assert sum(c for _, c in merged.buckets) == len(combined)
    if combined:
        assert merged.min == min(combined)
        assert merged.max == max(combined)
    else:
        assert merged.min is None and merged.max is None


@settings(max_examples=200)
@given(_values, _values)
def test_histogram_merge_equals_single_pass(xs, ys):
    """Observing everything in one registry == merging two shards."""
    assert _hist(xs).merge(_hist(ys)) == _hist(xs + ys)


@given(st.integers(min_value=-(1 << 20), max_value=1 << 60))
def test_bucket_of_brackets_the_value(value):
    index = bucket_of(value)
    if value <= 0:
        assert index == 0
    else:
        assert 2 ** (index - 1) <= value < 2 ** index


# ---- serialization round trip -----------------------------------------

@settings(max_examples=100)
@given(snapshots())
def test_json_round_trip(a):
    assert MetricsSnapshot.from_json(a.to_json()) == a


@settings(max_examples=50)
@given(snapshots(), snapshots())
def test_json_is_canonical(a, b):
    """Equal snapshots serialize to equal bytes (golden-file property)."""
    if a == b:
        assert a.to_json() == b.to_json()
    assert a.merge(b).to_json() == b.merge(a).to_json()


@settings(max_examples=200)
@given(snapshots(), snapshots())
def test_absorb_is_the_merge_in_place(a, b):
    """Folding a snapshot into a live registry lands exactly on the
    merge — how a warm shard adds the carried prefix metrics."""
    registry = MetricsRegistry(record_wall=False)
    registry.absorb(a)
    assert registry.snapshot() == a
    registry.absorb(b)
    assert registry.snapshot() == a.merge(b)
