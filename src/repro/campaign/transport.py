"""Worker transports: how shard tasks reach workers and results return.

The campaign engine (:class:`repro.fuzz.parallel.ParallelCampaign`)
plans deterministic :class:`ShardTask` lists and merges
:class:`ShardOutcome` lists — it no longer cares *where* the shards
run.  That question belongs to a :class:`WorkerTransport`:

* :class:`LocalPoolTransport` — the warm pool of local worker
  processes (behavior-preserving extraction of the engine's previous
  inline pool management, absolute wave deadlines and hang handling
  included), which also relays prefix checkpoints between its
  workers so the trace prefix is replayed once, not once per worker;
* :class:`SocketTransport` — remote workers reached over the
  length-prefixed wire protocol (:mod:`repro.campaign.wire`), started
  with the ``iris-worker`` entrypoint
  (:mod:`repro.campaign.worker`).

Because every shard is hermetic — a pure function of its task plus the
(trace, snapshot) context — transports are interchangeable: the merged
campaign output is byte-identical across transports and worker counts,
the property the transport differential suite pins.

Failure semantics (socket transport)
------------------------------------

* **Per-wave deadline**: one absolute deadline covers the whole
  :meth:`~SocketTransport.run_tasks` call; shards unfinished at the
  deadline come back as timeout outcomes, exactly like the local
  pool's hung-shard path.
* **Heartbeats**: a worker streams HEARTBEAT frames while a shard
  runs, so a slow shard and a dead worker are distinguishable; a link
  silent past ``heartbeat_timeout`` is declared dead.
* **Reconnect with backoff**: a dropped link is retried up to
  ``reconnect_attempts`` times with exponential backoff before the
  worker is abandoned for the wave.
* **Exactly-once reassignment**: a shard in flight on a dead link is
  pushed back onto the wave's work queue and picked up by a live
  worker.  An outcome is recorded at most once per task — a result
  lost mid-frame is re-earned, never double-merged — and shards
  hermeticity makes the re-run bit-identical.

Liveness failures never corrupt results; at worst a shard surfaces as
an error outcome and the engine's retry/abandon machinery takes over.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import multiprocessing.context
import multiprocessing.queues
import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.campaign import wire
from repro.core.seed import Trace
from repro.core.snapshot import VmSnapshot
from repro.errors import (
    TransportError,
    TransportProtocolError,
    WorkerUnavailableError,
)
from repro.fuzz.checkpoints import MAX_PREFIX_CHECKPOINTS, Checkpoint
from repro.fuzz.parallel import (
    ShardOutcome,
    ShardTask,
    StoreKey,
    WorkerContext,
    _execute_task,
)
from repro.obs import ACTIVE, NULL_METRICS, NULL_TRACER, OBS


# ---- shared plumbing --------------------------------------------------

@dataclass(frozen=True)
class TransportContext:
    """Everything a worker needs before its first task.

    Shipped exactly once per worker (pool initializer / HELLO frame):
    the recorded trace and snapshot every shard replays from, plus the
    campaign's identity — informational for the local pool, logged by
    remote workers so an operator can tell whose wave a worker serves.
    """

    trace: Trace
    snapshot: VmSnapshot | None
    identity: tuple[tuple[str, str], ...] = ()


@dataclass
class TransportStats:
    """Wall-clock-side transport accounting (observability, never part
    of the deterministic merged result)."""

    frames: int = 0
    bytes: int = 0
    retries: int = 0
    reassignments: int = 0

    def describe(self) -> str:
        return (
            f"{self.frames} frame(s), {self.bytes} byte(s), "
            f"{self.retries} reconnect(s), "
            f"{self.reassignments} reassignment(s)"
        )


class WorkerTransport(Protocol):
    """Where the engine's shards run.

    Implementations must return exactly one outcome per task, in task
    order, and may not invent or duplicate outcomes: the engine's
    retry accounting and the controller's checkpoint/merge algebra
    both assume the task->outcome mapping is a bijection.
    """

    stats: TransportStats

    def prime(self, context: TransportContext) -> None:
        """Install the campaign context (idempotent; first call wins)."""
        ...

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        """Execute tasks, one outcome each, in task order."""
        ...

    def close(self) -> None:
        """Release workers/connections (idempotent)."""
        ...

    def describe(self) -> str:
        """One-line human description for logs and stats."""
        ...


def _worker_main(
    trace: Trace,
    snapshot: VmSnapshot | None,
    tasks: multiprocessing.queues.Queue[tuple],
    relay: multiprocessing.queues.Queue[tuple],
    cpu: int | None = None,
) -> None:
    """A pool worker: run shards from ``tasks``, answering each on
    ``relay``, until it is terminated.

    The worker keeps one :class:`WorkerContext` (so its prefix
    checkpoints stay warm across the campaign) and publishes every
    checkpoint it freezes on the relay, ahead of the shard's outcome.
    It starts on ``cpu`` when given one (see :func:`_spread_cpus`).
    """
    if cpu is not None:
        _start_on(cpu)
    # A forked worker inherits the forking thread's observability
    # context — including a Tracer whose sink fd is shared with the
    # parent and every sibling.  Interleaved writes would corrupt the
    # trace and make it scheduling-dependent, so workers always start
    # from the null (disabled) pair; per-shard metrics come back on
    # the stats channel instead (``ShardTask.collect_metrics``).
    ACTIVE.set((NULL_TRACER, NULL_METRICS))
    context = WorkerContext(
        trace, snapshot,
        publish=lambda key, index, checkpoint: relay.put(
            ("checkpoint", key, index, checkpoint)
        ),
    )
    while True:
        token, task, start, waypoints = tasks.get()
        if task.fast_reset:
            try:
                # Workers run under the null registry, so a shard's
                # reach collects metrics exactly when its task does.
                store = context.checkpoints(task.arch, task.collect_metrics)
            except ValueError:
                # An unknown arch: _execute_task meets the same error
                # and returns it as the shard's outcome, as inline.
                pass
            else:
                if start is not None:
                    store.adopt(*start)
                store.waypoints = waypoints
        relay.put(("done", token, _execute_task(task, context)))


def _spread_cpus(size: int) -> Sequence[int | None]:
    """The CPU each of ``size`` pool workers starts on.

    Distinct CPUs when this process may run on at least ``size`` of
    them, else no preference.  Left to itself, the kernel sometimes
    keeps two freshly forked workers on one CPU for most of a wave: on
    a 2-CPU Linux VM, 5 of 20 Table I ``--jobs 2`` campaigns had both
    workers runnable on the same CPU in ~2/3 of 10 ms samples, and
    took 1.6-1.7 s instead of 0.9-1.2 s.  Started on distinct CPUs,
    none of 12 did.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return [None] * size
    allowed = sorted(affinity(0))
    if len(allowed) < size:
        return [None] * size
    return allowed[:size]


def _start_on(cpu: int) -> None:
    """Move this process to ``cpu``, then allow every CPU it was
    allowed before: the kernel may still rebalance it later."""
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        # The CPU went away (hotplug, a tightened cpuset): stay put.
        return
    os.sched_setaffinity(0, allowed)


class _WorkerProcesses:
    """The local pool: worker processes sharing one task queue and
    answering on one relay queue (checkpoints and outcomes alike).

    A free worker takes the next queued task itself, so the parent
    can queue work ahead of the workers instead of handing it out one
    shard at a time.  Workers are started before any task is queued:
    no queue thread is running yet when the parent forks.
    """

    def __init__(
        self,
        context: multiprocessing.context.BaseContext,
        size: int,
        trace: Trace,
        snapshot: VmSnapshot | None,
    ) -> None:
        self.size = size
        self.tasks: multiprocessing.queues.Queue[tuple] = context.Queue()
        self.relay: multiprocessing.queues.Queue[tuple] = context.Queue()
        self.processes = [
            # Every concrete context has a Process class; typeshed's
            # BaseContext does not declare it.
            context.Process(  # type: ignore[attr-defined]
                target=_worker_main,
                args=(trace, snapshot, self.tasks, self.relay, cpu),
                daemon=True,
            )
            for cpu in _spread_cpus(size)
        ]
        for process in self.processes:
            process.start()

    def terminate(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.join()
        # Tasks still buffered for the dead workers are dropped rather
        # than flushed into a pipe nobody reads.
        self.tasks.cancel_join_thread()
        self.tasks.close()
        self.relay.close()


# ---- the local pool ---------------------------------------------------

class LocalPoolTransport:
    """The warm in-process worker pool (the engine's classic path).

    ``jobs=1`` runs every task inline (no pool) through the same
    hermetic per-shard path.  For ``jobs>1`` one pool of forked workers
    is created lazily and stays **warm** across waves and retries: the
    (large) trace and snapshot ship once per worker, at process start.
    The pool is torn down (workers terminated, never asked to finish)
    in exactly two cases: the transport is closed, or a shard overran
    its deadline — a hung worker cannot be reclaimed, and recreating
    the pool also guarantees a timed-out shard retries on a fresh
    worker.

    Each task's deadline is **absolute** — ``shard_timeout`` seconds
    from the moment the wave is submitted — rather than a per-``get``
    timeout that restarts whenever the previous result arrives, so a
    wave of N queued shards cannot grant its last shard N x
    ``shard_timeout`` of cumulative slack.

    **Checkpoint relay.**  Reaching a target means replaying the trace
    prefix, a chain no amount of workers can split; if every worker
    walked it alone, ``jobs`` workers would each replay up to their
    deepest target.  So the prefix is walked once and shared: workers
    publish every prefix checkpoint they freeze on a relay queue, and
    the parent hands the nearest one it holds to each shard it
    dispatches.  Shards go out deepest target first; one that has to
    walk part of the prefix goes out only when a worker is free, so it
    starts from the nearest checkpoint there is by then, while one
    whose target checkpoint the parent already holds queues up at
    once, so a worker finishing a shard starts the next without a
    round trip through the parent.  The first shard's reach also
    freezes checkpoints at the other pending targets on its way (its
    *waypoints*), and a shard whose target a running shard has
    promised waits for that checkpoint instead of walking the same
    prefix in parallel.  Only wall time changes: every shard still
    starts from state identical to a fresh manager's.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        start_method: str | None = None,
        shard_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.start_method = start_method
        self.shard_timeout = shard_timeout
        self.stats = TransportStats()
        self._context: TransportContext | None = None
        #: The ``jobs=1`` inline worker's context (warm checkpoints).
        self._inline: WorkerContext | None = None
        self._pool: _WorkerProcesses | None = None
        #: Checkpoints the pool's workers published, per store.
        self._relayed: dict[StoreKey, dict[int, Checkpoint]] = {}

    def prime(self, context: TransportContext) -> None:
        if self._context is None:
            self._context = context
            self._inline = WorkerContext(context.trace, context.snapshot)

    def describe(self) -> str:
        return f"local pool ({self.jobs} job(s))"

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        if not tasks:
            return []
        assert self._inline is not None, "transport not primed"
        if self.jobs == 1:
            return [_execute_task(task, self._inline) for task in tasks]
        pool = self._ensure_pool(len(tasks))
        # Every task's deadline is absolute — measured from wave
        # submission, not from when the previous result happened to be
        # collected — so queue position no longer grants slack.
        deadline = (
            time.monotonic() + self.shard_timeout
            if self.shard_timeout is not None else None
        )
        outcomes: dict[int, ShardOutcome] = {}
        running: set[int] = set()
        promised: dict[int, set[tuple[StoreKey, int]]] = {}
        waiting = sorted(
            range(len(tasks)), key=lambda i: -tasks[i].seed_index
        )
        while waiting or running:
            for i in list(waiting):
                if len(running) >= pool.size and not self._holds_target(
                    tasks[i]
                ):
                    continue
                args = self._shard_args(tasks, i, waiting, promised)
                if args is not None:
                    waiting.remove(i)
                    running.add(i)
                    pool.tasks.put((i, *args))
            try:
                message = pool.relay.get(timeout=(
                    None if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                ))
            except queue.Empty:
                break
            if message[0] == "checkpoint":
                _, key, index, checkpoint = message
                known = self._relayed.setdefault(key, {})
                if len(known) < MAX_PREFIX_CHECKPOINTS:
                    known.setdefault(index, checkpoint)
            else:
                _, i, outcomes[i] = message
                promised.pop(i, None)
                running.remove(i)
        hung = bool(waiting or running)
        for i in (*waiting, *running):
            outcomes[i] = ShardOutcome(
                cell_index=tasks[i].cell_index,
                shard_index=tasks[i].shard_index,
                attempt=tasks[i].attempt,
                error=(
                    "TimeoutError: shard exceeded "
                    f"{self.shard_timeout}s"
                ),
            )
        if hung:
            # A worker past its deadline cannot be reclaimed and is
            # still squatting on a pool slot; replacing the pool also
            # guarantees the timed-out shard retries on a fresh worker.
            self._discard_pool()
        return [outcomes[i] for i in range(len(tasks))]

    def _holds_target(self, task: ShardTask) -> bool:
        """Whether ``task`` would start from a checkpoint at its very
        target (no prefix left to walk)."""
        return task.fast_reset and task.seed_index in self._relayed.get(
            (task.arch, task.collect_metrics), {}
        )

    def _shard_args(
        self,
        tasks: Sequence[ShardTask],
        i: int,
        waiting: list[int],
        promised: dict[int, set[tuple[StoreKey, int]]],
    ) -> tuple[ShardTask, tuple[int, Checkpoint] | None,
               frozenset[int]] | None:
        """Arguments dispatching ``tasks[i]`` (after the token), or
        ``None`` while a running shard has promised its checkpoint.

        Records what the shard in turn promises: a checkpoint at its
        target and at each of its waypoints the parent lacks.
        """
        task = tasks[i]
        if not task.fast_reset:
            return task, None, frozenset()
        key = (task.arch, task.collect_metrics)
        known = self._relayed.get(key, {})
        target = task.seed_index
        if target not in known and any(
            (key, target) in promise for promise in promised.values()
        ):
            return None
        floor = max((k for k in known if k <= target), default=None)
        waypoints = frozenset(
            tasks[j].seed_index for j in waiting
            if tasks[j].fast_reset
            and (tasks[j].arch, tasks[j].collect_metrics) == key
            and (floor or 0) < tasks[j].seed_index < target
            and tasks[j].seed_index not in known
        )
        promised[i] = {
            (key, index) for index in waypoints | {target}
            if index not in known
        }
        start = None if floor is None else (floor, known[floor])
        return task, start, waypoints

    def close(self) -> None:
        self._discard_pool()

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, n_tasks: int) -> _WorkerProcesses:
        """The warm pool, created on the first parallel wave."""
        if self._pool is None:
            assert self._context is not None, "transport not primed"
            self._pool = _WorkerProcesses(
                multiprocessing.get_context(self._resolved_start_method()),
                min(self.jobs, n_tasks),
                self._context.trace, self._context.snapshot,
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down: transport close, or a shard hang.

        Workers are terminated, not asked to finish: a hung worker
        must not wedge the campaign during the join.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None

    def _resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else methods[0]


# ---- the socket transport ---------------------------------------------

def parse_worker_address(spec: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``, loudly on anything else."""
    host, sep, port_text = spec.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {spec!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address {spec!r} has a non-numeric port"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(
            f"worker address {spec!r} has an out-of-range port"
        )
    return host, port


class _WaveDeadlineExceeded(Exception):
    """Internal: the wave's absolute deadline passed mid-await."""


class _WaveState:
    """Shared state of one wave: the work queue and its accounting.

    ``in_flight`` counts tasks popped but not yet resolved (outcome
    recorded or requeued).  An idle driver must **wait** while it is
    nonzero rather than exit on an empty queue: a sibling driver whose
    link just died is about to requeue its task, and a driver that
    already went home would strand it — the shard would surface as a
    spurious error outcome and the engine's retry would reorder the
    merged results.
    """

    __slots__ = ("tasks", "pending", "results", "in_flight",
                 "cond", "deadline")

    def __init__(
        self, tasks: Sequence[ShardTask], deadline: float | None
    ) -> None:
        self.tasks = tasks
        self.pending: deque[int] = deque(range(len(tasks)))
        self.results: dict[int, ShardOutcome] = {}
        self.in_flight = 0
        self.cond = threading.Condition()
        self.deadline = deadline


@dataclass
class _WorkerLink:
    """One controller->worker connection and its lifecycle state."""

    address: tuple[str, int]
    sock: socket.socket | None = None
    worker_pid: int = 0
    ever_connected: bool = False
    #: Dead for the current wave (reconnect budget exhausted); revived
    #: at the next wave so a restarted worker can rejoin.
    alive: bool = True

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class SocketTransport:
    """Ship waves to socket-attached ``iris-worker`` processes.

    ``workers`` are ``host:port`` strings.  Connections are made
    lazily, primed once with the HELLO context, and stay warm across
    waves — the socket analogue of the local pool's initializer.

    See the module docstring for the failure semantics; ``sleep`` is
    injectable so the reconnect/backoff tests run in virtual time.
    """

    def __init__(
        self,
        workers: Sequence[str],
        *,
        wave_timeout: float | None = None,
        connect_timeout: float = 10.0,
        heartbeat_timeout: float = 30.0,
        reconnect_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker address")
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        self.wave_timeout = wave_timeout
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stats = TransportStats()
        self._sleep = sleep
        self._links = [
            _WorkerLink(address=parse_worker_address(spec))
            for spec in workers
        ]
        self._context: TransportContext | None = None
        self._lock = threading.Lock()
        self._closed = False

    def prime(self, context: TransportContext) -> None:
        if self._context is None:
            self._context = context

    def describe(self) -> str:
        names = ", ".join(link.name for link in self._links)
        return f"socket transport ({len(self._links)} worker(s): {names})"

    # -- the wave ------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        if not tasks:
            return []
        if self._closed:
            raise TransportError("transport is closed")
        assert self._context is not None, "transport not primed"
        deadline = (
            time.monotonic() + self.wave_timeout
            if self.wave_timeout is not None else None
        )
        state = _WaveState(tasks, deadline)
        # A worker that exhausted its reconnect budget last wave gets
        # a fresh chance: the process may have been restarted since.
        for link in self._links:
            link.alive = True
        # Each driver runs in a copy of the caller's context, so its
        # ambient ``transport_*`` counters and ``iris.transport.*``
        # events reach the caller's observability scope.
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._drive, link, state),
                name=f"iris-transport-{link.name}",
                daemon=True,
            )
            for link in self._links
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Anything still unfinished ran out of wave (deadline) or ran
        # out of workers; either way it surfaces as an error outcome
        # for the engine's retry/abandon machinery, never silently.
        timed_out = (
            deadline is not None and time.monotonic() >= deadline
        )
        outcomes: list[ShardOutcome] = []
        for index, task in enumerate(tasks):
            outcome = state.results.get(index)
            if outcome is None:
                outcome = self._missing_outcome(task, timed_out)
            outcomes.append(outcome)
        return outcomes

    def close(self) -> None:
        self._closed = True
        for link in self._links:
            sock = link.sock
            link.sock = None
            if sock is None:
                continue
            try:
                wire.send_frame(sock, wire.FrameKind.BYE, b"")
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # -- per-worker driver ---------------------------------------------

    def _drive(self, link: _WorkerLink, state: _WaveState) -> None:
        while True:
            index = self._claim(state)
            if index is None:
                return
            task = state.tasks[index]
            try:
                self._ensure_link(link, state.deadline)
            except TransportError:
                # This worker is gone for the wave; hand the shard
                # back for the surviving workers.
                self._requeue(state, index)
                link.alive = False
                return
            try:
                self._send(link, wire.FrameKind.TASK,
                           wire.encode_task(task))
                outcome = self._await_result(
                    link, task, state.deadline
                )
            except _WaveDeadlineExceeded:
                # The worker may still be mid-shard; drop the link so
                # its late result can never pair with a future task.
                self._drop_link(link)
                self._resolve(state, index, self._missing_outcome(
                    task, timed_out=True
                ))
                return
            except (TransportError, OSError) as exc:
                # The link died with the shard in flight.  No outcome
                # was recorded, so pushing the index back makes the
                # shard run (and merge) exactly once — on this worker
                # after a reconnect, or on a surviving sibling.
                self._drop_link(link)
                self._bump(reassignments=1)
                OBS.tracer.event(
                    "iris.transport.reassign",
                    worker=link.name,
                    cell=task.cell_index,
                    shard=task.shard_index,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._requeue(state, index)
                continue
            self._resolve(state, index, outcome)

    def _claim(self, state: _WaveState) -> int | None:
        """Pop the next task index, or ``None`` when the wave is over
        for this driver.

        Blocks while the queue is empty but siblings still hold tasks
        in flight — one of them may requeue (see :class:`_WaveState`).
        """
        with state.cond:
            while True:
                if (
                    state.deadline is not None
                    and time.monotonic() >= state.deadline
                ):
                    return None
                if state.pending:
                    state.in_flight += 1
                    return state.pending.popleft()
                if state.in_flight == 0:
                    return None
                state.cond.wait(timeout=0.05)

    def _requeue(self, state: _WaveState, index: int) -> None:
        with state.cond:
            state.pending.appendleft(index)
            state.in_flight -= 1
            state.cond.notify_all()

    def _resolve(
        self, state: _WaveState, index: int, outcome: ShardOutcome
    ) -> None:
        with state.cond:
            state.results[index] = outcome
            state.in_flight -= 1
            state.cond.notify_all()

    def _missing_outcome(
        self, task: ShardTask, timed_out: bool
    ) -> ShardOutcome:
        if timed_out:
            error = (
                "TimeoutError: wave exceeded its "
                f"{self.wave_timeout}s deadline"
            )
        else:
            error = (
                "WorkerUnavailableError: no live worker to run the "
                "shard (all reconnect budgets exhausted)"
            )
        return ShardOutcome(
            cell_index=task.cell_index,
            shard_index=task.shard_index,
            attempt=task.attempt,
            error=error,
        )

    # -- link lifecycle ------------------------------------------------

    def _ensure_link(
        self, link: _WorkerLink, deadline: float | None
    ) -> None:
        if link.sock is not None:
            return
        last: Exception | None = None
        for attempt in range(self.reconnect_attempts + 1):
            if attempt or link.ever_connected:
                # Any connect after the link's first-ever attempt is a
                # retry: backoff applies and the counter ticks.
                self._bump(retries=1)
            if attempt:
                self._sleep(min(
                    self.backoff_base * (2 ** (attempt - 1)),
                    self.backoff_cap,
                ))
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                self._connect(link)
                return
            except (OSError, TransportError) as exc:
                last = exc
        raise WorkerUnavailableError(
            f"worker {link.name} unreachable after "
            f"{self.reconnect_attempts + 1} attempt(s): {last}"
        )

    def _connect(self, link: _WorkerLink) -> None:
        assert self._context is not None
        sock = socket.create_connection(
            link.address, timeout=self.connect_timeout
        )
        try:
            hello = wire.encode_hello(
                dict(self._context.identity),
                self._context.trace,
                self._context.snapshot,
            )
            self._bump(frames=1, bytes=wire.send_frame(
                sock, wire.FrameKind.HELLO, hello
            ))
            sock.settimeout(self.connect_timeout)
            reply = wire.recv_frame(sock)
            if reply is None:
                raise TransportProtocolError(
                    f"worker {link.name} closed the connection "
                    "during the handshake"
                )
            kind, payload, nbytes = reply
            self._bump(frames=1, bytes=nbytes)
            if kind is not wire.FrameKind.HELLO_ACK:
                raise TransportProtocolError(
                    f"worker {link.name} answered HELLO with "
                    f"{kind.name}"
                )
            link.worker_pid = wire.decode_hello_ack(payload)
        except BaseException:
            sock.close()
            raise
        link.sock = sock
        link.ever_connected = True
        OBS.tracer.event(
            "iris.transport.connect",
            worker=link.name, worker_pid=link.worker_pid,
        )

    def _drop_link(self, link: _WorkerLink) -> None:
        sock = link.sock
        link.sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- frame I/O -----------------------------------------------------

    def _send(
        self, link: _WorkerLink, kind: wire.FrameKind, payload: bytes
    ) -> None:
        assert link.sock is not None
        self._bump(
            frames=1, bytes=wire.send_frame(link.sock, kind, payload)
        )

    def _await_result(
        self,
        link: _WorkerLink,
        task: ShardTask,
        deadline: float | None,
    ) -> ShardOutcome:
        assert link.sock is not None
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise _WaveDeadlineExceeded()
            timeout = self.heartbeat_timeout
            if deadline is not None:
                timeout = min(timeout, deadline - now)
            link.sock.settimeout(timeout)
            try:
                frame = wire.recv_frame(link.sock)
            except TimeoutError:
                if (
                    deadline is not None
                    and time.monotonic() >= deadline
                ):
                    raise _WaveDeadlineExceeded() from None
                raise WorkerUnavailableError(
                    f"worker {link.name} sent no frame for "
                    f"{self.heartbeat_timeout}s (heartbeat missed)"
                ) from None
            if frame is None:
                raise TransportProtocolError(
                    f"worker {link.name} closed the connection "
                    "while a shard was in flight"
                )
            kind, payload, nbytes = frame
            self._bump(frames=1, bytes=nbytes)
            if kind is wire.FrameKind.HEARTBEAT:
                continue
            if kind is not wire.FrameKind.RESULT:
                raise TransportProtocolError(
                    f"worker {link.name} sent {kind.name} while a "
                    "RESULT was expected"
                )
            outcome = wire.decode_outcome(payload)
            expected = (
                task.cell_index, task.shard_index, task.attempt,
            )
            got = (
                outcome.cell_index, outcome.shard_index,
                outcome.attempt,
            )
            if got != expected:
                raise TransportProtocolError(
                    f"worker {link.name} answered for shard {got}, "
                    f"expected {expected}"
                )
            return outcome

    # -- accounting ----------------------------------------------------

    def _bump(
        self,
        *,
        frames: int = 0,
        bytes: int = 0,
        retries: int = 0,
        reassignments: int = 0,
    ) -> None:
        with self._lock:
            self.stats.frames += frames
            self.stats.bytes += bytes
            self.stats.retries += retries
            self.stats.reassignments += reassignments
        if frames:
            OBS.metrics.inc("transport_frames", value=frames)
        if bytes:
            OBS.metrics.inc("transport_bytes", value=bytes)
        if retries:
            OBS.metrics.inc("transport_retries", value=retries)
        if reassignments:
            OBS.metrics.inc(
                "transport_reassignments", value=reassignments
            )
