"""Per-worker prefix checkpoints: warm starts for campaign shards.

Every shard of a campaign reaches its cell's target state ``VMseed_R``
the way the paper's fuzzer does (§VII, Fig. 11): a manager fresh from
:meth:`IrisManager.cold_start` builds the dummy VM from the recorded
snapshot and replays the trace prefix ``records[:t]``.  A worker runs
many shards over the same trace, so that prefix replay — most of a
wide campaign's work — is mostly repeated work.

:class:`PrefixCheckpoints` keeps managers frozen right after replaying
``records[:k]``.  Reaching ``t`` thaws the nearest checkpoint at or
below ``t`` (or cold-starts when there is none), replays only
``records[k:t]`` and freezes the result as the checkpoint at ``t``.  A
checkpoint is the manager pickled — hypervisor, dummy VM, replayer,
clock, console ring and domain ids all come back exactly — with the
objects that never change after construction (the cost model, the
backend singleton, the handler table and the recorded snapshot)
pickled by name and resolved to the thawing store's own.  Pickling is
cheaper than ``copy.deepcopy`` on both ends, a frozen manager is a few
KiB of bytes rather than a live object graph, and the bytes can be
handed to another process.

Each checkpoint also carries the hermetic metrics of reaching ``k``
from cold.  A store is built either collecting metrics or not, and
must be used under a matching registry.  When it collects, reaching
``t`` folds ``carried(k)`` plus the metrics of replaying
``records[k:t]`` into the active registry, so a warm shard's counters
are exactly a cold shard's, whatever order tasks arrive in.  The whole
reach replays under a wall-clock-free capture registry, so no
wall-clock observation of a reach is recorded, warm or cold.

A store belongs to one worker context (a pool worker, a socket
session, the inline transport) and is never shared between shards
running concurrently.  Checkpoints travel between pool workers only
as bytes: a store hands every checkpoint it freezes to its ``publish``
callback, freezes extra ones at its ``waypoints`` on the way to a
target, and can :meth:`~PrefixCheckpoints.adopt` one frozen elsewhere
(see :class:`repro.campaign.transport.LocalPoolTransport`).
"""

from __future__ import annotations

import copyreg
import functools
import io
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.arch.backend import get_backend
from repro.core.manager import IrisManager
from repro.core.replay import ReplayOutcome
from repro.core.seed import VMExitRecord
from repro.core.snapshot import VmSnapshot
from repro.core.tracestore import TraceLike
from repro.hypervisor.handlers.table import build_handler_table
from repro.obs import OBS, MetricsRegistry, MetricsSnapshot, observability
from repro.x86.costs import DEFAULT_COSTS

#: Checkpoints one store keeps; once full it stores no more (a reach
#: past the deepest one still works, it just replays further).  A
#: memory bound, not a tuning knob: a frozen shard manager is ~8-10
#: KiB on the benchmark traces, so a full store costs about 1.2 MB,
#: while the benchmark campaigns see at most 16 distinct targets per
#: worker (perfbench ``fuzz_wide``; 6 in the Table I campaign).
MAX_PREFIX_CHECKPOINTS = 128


def replay_prefix(
    manager: IrisManager, records: Sequence[VMExitRecord]
) -> None:
    """Submit recorded seeds in order; any crash aborts the reach."""
    assert manager.replayer is not None
    for record in records:
        result = manager.replayer.submit(record.seed)
        if result.outcome is not ReplayOutcome.OK:
            raise RuntimeError(
                "prefix replay crashed before reaching the target "
                f"state: {result.crash_reason}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """A manager frozen just after replaying a trace prefix."""

    #: The pickled manager (shared objects by name).
    frozen: bytes
    #: Hermetic metrics of reaching this prefix from cold (empty in a
    #: store that does not collect metrics).
    metrics: MetricsSnapshot


class PrefixCheckpoints:
    """Prefix checkpoints over one (trace, snapshot, arch)."""

    def __init__(
        self,
        trace: TraceLike,
        snapshot: VmSnapshot | None,
        arch: str,
        *,
        metrics: bool,
        publish: Callable[[int, Checkpoint], None] | None = None,
    ) -> None:
        """``metrics`` fixes whether reaches run under an enabled
        registry (and carry metrics); ``publish`` is handed every
        checkpoint this store freezes."""
        self.trace = trace
        self.snapshot = snapshot
        self.arch = arch
        self.metrics = metrics
        self.publish = publish
        #: Indices a reach also freezes checkpoints at on its way to
        #: its target (what other workers are waiting for).
        self.waypoints: frozenset[int] = frozenset()
        self._entries: dict[int, Checkpoint] = {}
        self._shared: dict[str, object] = {
            "costs": DEFAULT_COSTS,
            "backend": get_backend(arch),
            "handlers": build_handler_table(),
            "snapshot": snapshot,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def adopt(self, seed_index: int, checkpoint: Checkpoint) -> None:
        """Keep a checkpoint frozen by another worker's store."""
        if (seed_index not in self._entries
                and len(self._entries) < MAX_PREFIX_CHECKPOINTS):
            self._entries[seed_index] = checkpoint

    def reach(self, seed_index: int) -> IrisManager:
        """A manager in exactly the state of a cold start that created
        the dummy VM from the snapshot and replayed
        ``records[:seed_index]``; it is the caller's to mutate."""
        registry = OBS.metrics
        if registry.enabled != self.metrics:
            raise ValueError(
                "checkpoint store built with metrics="
                f"{self.metrics} used under a registry with "
                f"enabled={registry.enabled}"
            )
        start = max(
            (index for index in self._entries if index <= seed_index),
            default=None,
        )
        base = (
            MetricsSnapshot.empty() if start is None
            else self._entries[start].metrics
        )
        capture = MetricsRegistry(record_wall=False)
        with observability(metrics=capture if self.metrics else None):
            if start is None:
                done = 0
                manager = IrisManager.cold_start(
                    self.arch, fast_reset=True, snapshot=self.snapshot
                )
                manager.create_dummy_vm(from_snapshot=self.snapshot)
            else:
                done = start
                manager = self._thaw(self._entries[start])
                if OBS.tracer.enabled:
                    # What constructing the host would have done.
                    OBS.tracer.bind_clock(manager.hv.clock.read)
            stops = sorted(
                index for index in self.waypoints
                if done < index < seed_index
            )
            for stop in (*stops, seed_index):
                replay_prefix(manager, self.trace.records[done:stop])
                done = stop
                if stop != start:
                    self._freeze(stop, manager, base, capture)
        if self.metrics:
            registry.absorb(base.merge(capture.snapshot()))
        return manager

    def _freeze(
        self,
        seed_index: int,
        manager: IrisManager,
        base: MetricsSnapshot,
        capture: MetricsRegistry,
    ) -> None:
        """Keep (and publish) ``manager`` as the checkpoint here."""
        keep = (seed_index not in self._entries
                and len(self._entries) < MAX_PREFIX_CHECKPOINTS)
        if not keep and self.publish is None:
            return
        checkpoint = Checkpoint(
            self._dump(manager), base.merge(capture.snapshot())
        )
        if keep:
            self._entries[seed_index] = checkpoint
        if self.publish is not None:
            self.publish(seed_index, checkpoint)

    def _dump(self, manager: IrisManager) -> bytes:
        hv = manager.hv
        names = {
            id(hv.clock.costs): "costs",
            id(hv.backend): "backend",
            id(hv.handler_table): "handlers",
        }
        if self.snapshot is not None:
            names[id(self.snapshot)] = "snapshot"
        sink = io.BytesIO()
        _Freezer(sink, names).dump(manager)
        return sink.getvalue()

    def _thaw(self, checkpoint: Checkpoint) -> IrisManager:
        manager = _Thawer(checkpoint.frozen, self._shared).load()
        assert isinstance(manager, IrisManager)
        return manager


#: ``type.__flags__`` bit of classes defined in Python.
_HEAPTYPE = 1 << 9


@functools.cache
def _plain_state(cls: type) -> bool:
    """Whether pickle would rebuild ``cls`` instances the default way:
    ``cls.__new__`` plus the instance ``__dict__`` as state."""
    return (
        cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        # object.__getstate__ is new in Python 3.11.
        and getattr(cls, "__getstate__", None)
        is getattr(object, "__getstate__", None)
        and not hasattr(cls, "__setstate__")
        and not hasattr(cls, "__getnewargs__")
        and not hasattr(cls, "__getnewargs_ex__")
        and not issubclass(cls, type)
        and all(
            base.__flags__ & _HEAPTYPE and "__slots__" not in vars(base)
            for base in cls.__mro__[:-1]
        )
    )


def _set_attributes(obj: object, state: dict[str, object]) -> None:
    """Thaw an instance's attributes one by one, in their order.

    Pickle's default, ``obj.__dict__.update(state)``, leaves the
    instance with a materialized ``__dict__``, whose attribute reads
    CPython specializes less well than inline values: a manager thawed
    that way replayed 6-16% slower than a cold-built one.
    ``object.__setattr__`` keeps the values inline and, like the
    default, bypasses any ``__setattr__`` override.
    """
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _Freezer(pickle.Pickler):
    """Pickles the objects named in ``names`` (by ``id``) as names."""

    def __init__(self, sink: io.BytesIO, names: dict[int, str]) -> None:
        super().__init__(sink, protocol=pickle.HIGHEST_PROTOCOL)
        self._names = names

    def persistent_id(self, obj: object) -> str | None:
        return self._names.get(id(obj))

    def reducer_override(self, obj: object) -> object:
        cls = type(obj)
        if _plain_state(cls):
            return (
                copyreg.__newobj__, (cls,), obj.__dict__, None, None,
                _set_attributes,
            )
        return NotImplemented


class _Thawer(pickle.Unpickler):
    """Unpickles names back to the objects in ``shared``."""

    def __init__(self, frozen: bytes, shared: dict[str, object]) -> None:
        super().__init__(io.BytesIO(frozen))
        self._shared = shared

    def persistent_load(self, pid: object) -> object:
        return self._shared[str(pid)]
