"""Counters and histograms with a deterministic merge algebra.

The paper's whole evaluation is *measurement* — per-exit cycle timing
(Fig. 9/10), coverage deltas (Table I), recording overhead — so the
metrics layer has to satisfy two masters at once:

* **hot-path cost**: with metrics disabled the instrumentation points
  pay exactly one attribute check (``OBS.metrics.enabled``);
* **parallel-merge determinism**: shard snapshots aggregate through the
  same order-insensitive algebra as :meth:`CoverageMap.union` — merging
  is commutative, associative, and has :meth:`MetricsSnapshot.empty` as
  identity — so a ``--jobs 4`` campaign reports the exact counter
  totals of the serial run.

Histograms use power-of-two buckets (``value.bit_length()``), which
makes bucketing a pure function of the value: no binning configuration
to disagree about between shards, and merging never loses counts.

Wall-clock observations are inherently nondeterministic, so they are
segregated: :meth:`MetricsRegistry.observe_wall` routes through the
same histogram machinery but is dropped entirely when the registry is
built with ``record_wall=False`` (what hermetic campaign shards and the
golden-trace tests use).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Canonical label encoding: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]
#: Metric identity: (metric name, canonical labels).
MetricKey = tuple[str, LabelKey]


def labels_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonicalize a label mapping (order-insensitive identity)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_of(value: int) -> int:
    """Power-of-two bucket index: 0 for <=0, else ``bit_length``.

    Bucket ``b`` (b >= 1) holds values in [2**(b-1), 2**b).  A pure
    function of the value, so shards can never disagree on binning.
    """
    if value <= 0:
        return 0
    return int(value).bit_length()


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; the merge unit of the algebra."""

    count: int = 0
    total: int = 0
    min: int | None = None
    max: int | None = None
    #: sorted ((bucket index, count), ...) — sparse, deterministic.
    buckets: tuple[tuple[int, int], ...] = ()

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Lossless merge: counts, totals and extremes all combine."""
        merged: dict[int, int] = dict(self.buckets)
        for index, count in other.buckets:
            merged[index] = merged.get(index, 0) + count
        extremes = [v for v in (self.min, other.min) if v is not None]
        extremes_hi = [v for v in (self.max, other.max) if v is not None]
        return HistogramSnapshot(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(extremes) if extremes else None,
            max=max(extremes_hi) if extremes_hi else None,
            buckets=tuple(sorted(merged.items())),
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [list(b) for b in self.buckets],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSnapshot":
        return cls(
            count=int(data["count"]),
            total=int(data["total"]),
            min=None if data["min"] is None else int(data["min"]),
            max=None if data["max"] is None else int(data["max"]),
            buckets=tuple(
                (int(i), int(c)) for i, c in data["buckets"]
            ),
        )


class _Histogram:
    """Mutable accumulation form of :class:`HistogramSnapshot`."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bucket_of(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def absorb(self, other: HistogramSnapshot) -> None:
        """In-place :meth:`HistogramSnapshot.merge`."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (
            self.min is None or other.min < self.min
        ):
            self.min = other.min
        if other.max is not None and (
            self.max is None or other.max > self.max
        ):
            self.max = other.max
        for index, count in other.buckets:
            self.buckets[index] = self.buckets.get(index, 0) + count

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self.count, total=self.total,
            min=self.min, max=self.max,
            buckets=tuple(sorted(self.buckets.items())),
        )


def _metric_key_str(key: MetricKey) -> str:
    """Serialize a metric key as ``name{k=v,k=v}`` (stable, readable)."""
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def _parse_metric_key(text: str) -> MetricKey:
    if "{" not in text:
        return (text, ())
    name, _, rest = text.partition("{")
    body = rest.rstrip("}")
    labels = []
    if body:
        for pair in body.split(","):
            k, _, v = pair.partition("=")
            labels.append((k, v))
    return (name, tuple(sorted(labels)))


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, mergeable view of a :class:`MetricsRegistry`.

    The merge algebra (proven by ``tests/obs/test_metrics_properties``):

    * ``a.merge(b) == b.merge(a)``                     (commutative)
    * ``a.merge(b).merge(c) == a.merge(b.merge(c))``   (associative)
    * ``a.merge(MetricsSnapshot.empty()) == a``        (identity)
    * histogram merges never lose counts.
    """

    counters: tuple[tuple[MetricKey, int], ...] = ()
    histograms: tuple[tuple[MetricKey, HistogramSnapshot], ...] = ()

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    @classmethod
    def build(
        cls,
        counters: Mapping[MetricKey, int],
        histograms: Mapping[MetricKey, HistogramSnapshot],
    ) -> "MetricsSnapshot":
        return cls(
            counters=tuple(sorted(counters.items())),
            histograms=tuple(sorted(histograms.items())),
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters: dict[MetricKey, int] = dict(self.counters)
        for key, value in other.counters:
            counters[key] = counters.get(key, 0) + value
        histograms: dict[MetricKey, HistogramSnapshot] = dict(
            self.histograms
        )
        for key, hist in other.histograms:
            mine = histograms.get(key)
            histograms[key] = hist if mine is None else mine.merge(hist)
        return MetricsSnapshot.build(counters, histograms)

    @classmethod
    def merge_all(
        cls, snapshots: Iterable["MetricsSnapshot"]
    ) -> "MetricsSnapshot":
        merged = cls.empty()
        for snap in snapshots:
            merged = merged.merge(snap)
        return merged

    # ---- queries -----------------------------------------------------

    def counter_total(self, name: str) -> int:
        """Sum of a counter across every label combination."""
        return sum(v for (n, _), v in self.counters if n == name)

    def counter(self, name: str, **labels: object) -> int:
        key = (name, labels_key(labels))
        for k, v in self.counters:
            if k == key:
                return v
        return 0

    def counters_by_label(
        self, name: str, label: str
    ) -> dict[str, int]:
        """Tally a counter by one label (e.g. exits_handled by reason)."""
        tallies: dict[str, int] = {}
        for (n, labels), value in self.counters:
            if n != name:
                continue
            for k, v in labels:
                if k == label:
                    tallies[v] = tallies.get(v, 0) + value
        return tallies

    def histogram(
        self, name: str, **labels: object
    ) -> HistogramSnapshot | None:
        key = (name, labels_key(labels))
        for k, h in self.histograms:
            if k == key:
                return h
        return None

    def histograms_named(
        self, name: str
    ) -> list[tuple[LabelKey, HistogramSnapshot]]:
        return [
            (labels, h) for (n, labels), h in self.histograms
            if n == name
        ]

    # ---- serialization ----------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, no whitespace variance."""
        payload = {
            "counters": {
                _metric_key_str(key): value
                for key, value in self.counters
            },
            "histograms": {
                _metric_key_str(key): hist.to_dict()
                for key, hist in self.histograms
            },
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        payload = json.loads(text)
        counters = {
            _parse_metric_key(key): int(value)
            for key, value in payload.get("counters", {}).items()
        }
        histograms = {
            _parse_metric_key(key): HistogramSnapshot.from_dict(data)
            for key, data in payload.get("histograms", {}).items()
        }
        return cls.build(counters, histograms)


@dataclass
class MetricsRegistry:
    """Mutable metric accumulation; one per process (or per shard).

    ``record_wall=False`` makes :meth:`observe_wall` a no-op, keeping
    the registry's snapshot a pure function of the simulated execution
    — what the determinism contract and the golden-trace tests need.
    """

    record_wall: bool = True
    enabled: bool = field(default=True, init=False)
    _counters: dict[MetricKey, int] = field(default_factory=dict,
                                            init=False, repr=False)
    _histograms: dict[MetricKey, _Histogram] = field(
        default_factory=dict, init=False, repr=False
    )

    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        key = (name, labels_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: int, **labels: object) -> None:
        key = (name, labels_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram()
        hist.observe(int(value))

    def observe_wall(
        self, name: str, value: int, **labels: object
    ) -> None:
        """Record a wall-clock observation (dropped in hermetic mode)."""
        if self.record_wall:
            self.observe(name, value, **labels)

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Add a snapshot into this registry (the merge, in place).

        ``registry.absorb(s)`` then ``registry.snapshot()`` equals
        ``registry.snapshot().merge(s)`` — how a warm shard folds in
        the carried metrics of the prefix replay it skipped.
        """
        for key, value in snapshot.counters:
            self._counters[key] = self._counters.get(key, 0) + value
        for key, other in snapshot.histograms:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.absorb(other)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot.build(
            dict(self._counters),
            {k: h.snapshot() for k, h in self._histograms.items()},
        )

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()


class NullMetrics:
    """The disabled default: every operation is a no-op.

    Instrumentation sites guard with ``if OBS.metrics.enabled:`` so a
    disabled stack pays one attribute check per site and nothing else —
    the "zero-cost-when-disabled" contract DESIGN.md §7 documents.
    """

    enabled = False
    record_wall = False

    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        return None

    def observe(self, name: str, value: int, **labels: object) -> None:
        return None

    def observe_wall(
        self, name: str, value: int, **labels: object
    ) -> None:
        return None

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        return None

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot.empty()

    def clear(self) -> None:
        return None


#: Process-wide disabled singleton (stateless, shareable).
NULL_METRICS = NullMetrics()
