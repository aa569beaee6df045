"""Transport differential + fault-injection suite (the tentpole pin).

The claim under test: a campaign's merged output — and its checkpoint
store, byte for byte — is a pure function of the campaign coordinates,
never of *where* shards ran.  Local pool (jobs 1 and 4) and socket
transport (in-thread and subprocess ``iris-worker`` processes, healthy
and sabotaged) must all land on identical bytes.

Fault injection covers the ISSUE's two named scenarios: a worker
killed mid-wave (``--chaos die-after-results``) and a connection
dropped mid-frame (``drop-mid-result``) — in both, the in-flight shard
is reassigned exactly once, never lost and never double-merged, and a
``--resume`` after an interruption stays exact.

Every server here binds port 0 and plumbs the *assigned* port through
the fixtures, so the suite cannot flake on a busy port.
"""

from __future__ import annotations

import os
import random
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignController,
    CampaignInterrupted,
    CampaignStore,
    ChaosSpec,
    SocketTransport,
    TransportContext,
    WorkerServer,
    parse_worker_address,
    wire,
)
from repro.campaign.transport import _spread_cpus, _start_on
from repro.core.manager import IrisManager
from repro.fuzz.mutations import MutationArea
from repro.fuzz.parallel import ParallelCampaign, ShardTask
from repro.fuzz.testcase import plan_test_cases
from repro.obs import MetricsRegistry, Tracer, flight_summary, observability
from repro.vmx.exit_reasons import ExitReason

CAMPAIGN_SEED = 0x1215
N_MUTATIONS = 12
N_EXITS = 160
SHARDS_PER_CELL = 2
WAVE_SIZE = 2
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


# ---- fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def recordings():
    sessions = {}
    for arch in ("vmx", "svm"):
        manager = IrisManager(arch=arch)
        sessions[arch] = manager.record_workload(
            "cpu-bound", n_exits=N_EXITS, precondition="boot"
        )
    return sessions


@pytest.fixture(scope="module")
def cases(recordings):
    planned = {}
    for arch, session in recordings.items():
        planned[arch] = plan_test_cases(
            session.trace, [ExitReason.RDTSC, ExitReason.CPUID],
            n_mutations=N_MUTATIONS, rng=random.Random(5),
        )
        assert len(planned[arch]) == 4
    return planned


def make_engine(recordings, cases, arch, *, jobs=1, transport=None,
                differential=False):
    session = recordings[arch]
    return ParallelCampaign(
        session.trace, session.snapshot, cases[arch],
        campaign_seed=CAMPAIGN_SEED, jobs=jobs, arch=arch,
        shards_per_cell=SHARDS_PER_CELL, collect_metrics=True,
        transport=transport, differential=differential,
    )


def store_dump(path: str) -> str:
    """The store's full SQL dump: the byte-identity witness."""
    conn = sqlite3.connect(path)
    try:
        return "\n".join(conn.iterdump())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def local_refs(tmp_path_factory, recordings, cases):
    """Reference runs + store dumps on the local pool, jobs 1 and 4."""
    refs = {}
    root = tmp_path_factory.mktemp("local-refs")
    for arch in ("vmx", "svm"):
        for jobs in (1, 4):
            db = str(root / f"{arch}-{jobs}.db")
            engine = make_engine(recordings, cases, arch, jobs=jobs)
            with CampaignStore(db) as store:
                result = CampaignController(
                    engine, store, wave_size=WAVE_SIZE
                ).run()
            refs[(arch, jobs)] = (result, store_dump(db))
    return refs


@pytest.fixture(scope="module")
def servers():
    """Two healthy in-thread workers on OS-assigned ports."""
    first = WorkerServer(heartbeat_interval=0.2).start()
    second = WorkerServer(heartbeat_interval=0.2).start()
    yield [first, second]
    first.stop()
    second.stop()


def assert_identical(lhs, rhs):
    """Structural byte-identity of every deterministic artifact."""
    assert lhs.results == rhs.results
    assert lhs.abandoned_cells == rhs.abandoned_cells
    assert lhs.merged_corpus() == rhs.merged_corpus()
    assert (
        lhs.merged_coverage().to_json()
        == rhs.merged_coverage().to_json()
    )
    assert [r.failures for r in lhs.results] == \
        [r.failures for r in rhs.results]
    assert lhs.metrics is not None and rhs.metrics is not None
    assert lhs.metrics.to_json() == rhs.metrics.to_json()


# ---- the differential -------------------------------------------------

def test_local_jobs_never_change_store_bytes(local_refs):
    for arch in ("vmx", "svm"):
        assert local_refs[(arch, 1)][1] == local_refs[(arch, 4)][1]


@pytest.mark.parametrize("arch", ["vmx", "svm"])
def test_socket_transport_is_byte_identical(
    tmp_path, recordings, cases, local_refs, servers, arch
):
    """Socket run == local run: results, metrics, and store bytes,
    against both the jobs=1 and the jobs=4 references."""
    db = str(tmp_path / "socket.db")
    transport = SocketTransport(
        [server.address for server in servers],
        backoff_base=0.01,
    )
    engine = make_engine(
        recordings, cases, arch, transport=transport
    )
    with CampaignStore(db) as store:
        result = CampaignController(
            engine, store, wave_size=WAVE_SIZE
        ).run()
    for jobs in (1, 4):
        reference, reference_dump = local_refs[(arch, jobs)]
        assert_identical(result, reference)
        assert store_dump(db) == reference_dump
    # A healthy wave needs no liveness machinery at all.
    assert transport.stats.reassignments == 0
    assert transport.stats.retries == 0
    assert transport.stats.frames > 0
    assert transport.stats.bytes > 0


def test_socket_wave_reports_into_the_callers_scope(
    tmp_path, recordings, cases, local_refs, servers
):
    """The driver threads run in a copy of the caller's context: the
    ambient ``transport_*`` counters and ``iris.transport.*`` events
    reach the caller's registry and tracer (the flight recorder's
    "worker transport" line), while the shards' hermetic snapshots
    stay untouched."""
    registry = MetricsRegistry()
    tracer = Tracer()
    transport = SocketTransport(
        [server.address for server in servers], backoff_base=0.01,
    )
    engine = make_engine(
        recordings, cases, "vmx", transport=transport
    )
    with observability(tracer=tracer, metrics=registry):
        with CampaignStore(str(tmp_path / "scoped.db")) as store:
            result = CampaignController(
                engine, store, wave_size=WAVE_SIZE
            ).run()
    assert_identical(result, local_refs[("vmx", 1)][0])
    snapshot = registry.snapshot()
    assert snapshot.counter_total("transport_frames") == \
        transport.stats.frames > 0
    assert snapshot.counter_total("transport_bytes") == \
        transport.stats.bytes
    assert "worker transport: " in flight_summary(snapshot)
    assert "iris.transport.connect" in {
        event.name for event in tracer.events()
    }


def test_resume_over_socket_transport_is_exact(
    tmp_path, recordings, cases, local_refs, servers
):
    """Interrupt a socket-transported campaign, resume it on a *fresh*
    transport, and land on the reference bytes."""
    db = str(tmp_path / "resume.db")
    addresses = [server.address for server in servers]
    engine = make_engine(
        recordings, cases, "vmx",
        transport=SocketTransport(addresses, backoff_base=0.01),
    )
    with CampaignStore(db) as store:
        controller = CampaignController(
            engine, store, wave_size=WAVE_SIZE, crash_after_wave=0,
        )
        with pytest.raises(CampaignInterrupted):
            controller.run()

    engine2 = make_engine(
        recordings, cases, "vmx",
        transport=SocketTransport(addresses, backoff_base=0.01),
    )
    with CampaignStore(db) as store:
        resumed = CampaignController(
            engine2, store, wave_size=WAVE_SIZE
        ).run(resume=True)
    reference, reference_dump = local_refs[("vmx", 1)]
    assert resumed.waves_resumed == 1
    assert_identical(resumed, reference)
    assert store_dump(db) == reference_dump


def test_differential_over_socket_matches_local_bytes(
    tmp_path, recordings, cases, servers
):
    """The differential oracle is transport-blind: a socket-run
    differential campaign lands on the same divergences, the same
    rendered report, and the same store bytes as the local pool."""
    from repro.fuzz.differential import (
        iter_divergences,
        render_divergence_report,
    )

    def render(outcome) -> str:
        return render_divergence_report(
            list(iter_divergences(outcome.results)),
            seeds_compared=sum(
                r.seeds_compared for r in outcome.results
            ),
            untranslatable_seeds=sum(
                r.untranslatable_seeds for r in outcome.results
            ),
        )

    local_db = str(tmp_path / "diff-local.db")
    engine = make_engine(
        recordings, cases, "vmx", differential=True
    )
    with CampaignStore(local_db) as store:
        local = CampaignController(
            engine, store, wave_size=WAVE_SIZE
        ).run()
    assert sum(len(r.divergences) for r in local.results) > 0

    socket_db = str(tmp_path / "diff-socket.db")
    transport = SocketTransport(
        [server.address for server in servers], backoff_base=0.01,
    )
    engine2 = make_engine(
        recordings, cases, "vmx", transport=transport,
        differential=True,
    )
    with CampaignStore(socket_db) as store:
        remote = CampaignController(
            engine2, store, wave_size=WAVE_SIZE
        ).run()

    assert_identical(remote, local)
    assert [r.divergences for r in remote.results] == \
        [r.divergences for r in local.results]
    assert render(remote) == render(local)
    assert store_dump(socket_db) == store_dump(local_db)
    assert transport.stats.reassignments == 0


# ---- fault injection --------------------------------------------------

def _spawn_worker(*extra: str):
    """Start a real ``iris-worker`` process; returns (proc, address).

    The worker binds port 0 and prints the assigned address on its
    first stdout line — the only port plumbing a launcher needs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign.worker",
         "--heartbeat-interval", "0.2", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    assert proc.stdout is not None
    # Interpreter noise (e.g. runpy warnings) may precede the banner;
    # the contract is only that the banner line *arrives*.
    for _ in range(10):
        banner = proc.stdout.readline().strip()
        if banner.startswith("iris-worker listening on "):
            return proc, banner.rsplit(" ", 1)[-1]
    raise AssertionError(f"no worker banner; last line: {banner!r}")


def test_worker_killed_mid_wave_reassigns_exactly_once(
    tmp_path, recordings, cases, local_refs
):
    """One of two subprocess workers hard-exits after its first
    result; its in-flight shard moves to the survivor exactly once and
    the campaign (and its store) stays byte-identical."""
    doomed, doomed_addr = _spawn_worker(
        "--chaos", "die-after-results:1"
    )
    healthy, healthy_addr = _spawn_worker()
    db = str(tmp_path / "killed.db")
    try:
        transport = SocketTransport(
            [doomed_addr, healthy_addr],
            reconnect_attempts=2, backoff_base=0.01,
        )
        engine = make_engine(
            recordings, cases, "vmx", transport=transport
        )
        with CampaignStore(db) as store:
            result = CampaignController(
                engine, store, wave_size=WAVE_SIZE
            ).run()
    finally:
        for proc in (doomed, healthy):
            proc.kill()
            proc.wait()
    reference, reference_dump = local_refs[("vmx", 1)]
    assert_identical(result, reference)
    assert store_dump(db) == reference_dump
    # The shard in flight on the dying link was requeued once; the
    # later waves find the worker dead *before* taking a task, which
    # is not a reassignment.
    assert transport.stats.reassignments == 1
    assert transport.stats.retries >= 1
    assert doomed.returncode == 17


def test_connection_dropped_mid_frame_reruns_shard_once(
    recordings, cases, local_refs
):
    """A worker sends half of a RESULT frame and severs the link.  The
    controller reconnects, the shard reruns exactly once (the ledger
    proves it), and the merged output is still reference-identical."""
    chaos = ChaosSpec.parse("drop-mid-result:2")
    with WorkerServer(heartbeat_interval=0.2, chaos=chaos) as server:
        transport = SocketTransport(
            [server.address], backoff_base=0.01,
        )
        engine = make_engine(
            recordings, cases, "vmx", transport=transport
        )
        result = CampaignController(
            engine, wave_size=WAVE_SIZE
        ).run()
        counts = Counter(server.executed)
    reference, _ = local_refs[("vmx", 1)]
    assert_identical(result, reference)
    assert transport.stats.reassignments == 1
    assert transport.stats.retries >= 1
    # Exactly one task ran twice (the dropped result was re-earned);
    # every other task ran exactly once.
    assert sorted(counts.values(), reverse=True)[:2] == [2, 1]
    assert sum(counts.values()) == len(counts) + 1


# ---- liveness: deadlines and heartbeats -------------------------------

class _StallingWorker:
    """A protocol-correct worker that takes a task and never finishes.

    ``mode='heartbeat'`` keeps streaming liveness frames (a slow
    shard); ``mode='silent'`` goes quiet after taking the task (a dead
    worker).  ``accept_once`` closes the listener after the first
    connection so a reconnect is refused, bounding the test.
    """

    def __init__(self, mode: str, *, accept_once: bool = False) -> None:
        self.mode = mode
        self.accept_once = accept_once
        self._stop = False
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        self._listener = listener
        self.port = listener.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def stop(self) -> None:
        self._stop = True
        try:
            self._listener.close()
        except OSError:
            pass

    def _serve(self) -> None:
        while not self._stop:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._session, args=(conn,), daemon=True
            ).start()
            if self.accept_once:
                self._listener.close()
                return

    def _session(self, conn: socket.socket) -> None:
        try:
            frame = wire.recv_frame(conn)
            assert frame is not None
            assert frame[0] is wire.FrameKind.HELLO
            wire.send_frame(
                conn, wire.FrameKind.HELLO_ACK,
                wire.encode_hello_ack(1),
            )
            wire.recv_frame(conn)  # the TASK it will never answer
            while not self._stop:
                if self.mode == "heartbeat":
                    wire.send_frame(conn, wire.FrameKind.HEARTBEAT, b"")
                time.sleep(0.05)
        except (OSError, wire.TransportProtocolError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass


_STALL_TASK = ShardTask(
    cell_index=0, shard_index=0, seed_index=0,
    area=MutationArea.VMCS, n_mutations=1,
    mutation_rule="bit-flip", rng_seed=1, attempt=0,
    arch="vmx", fault_kind=None, collect_metrics=False,
    fast_reset=True,
)


def _stall_context(recordings) -> TransportContext:
    session = recordings["vmx"]
    return TransportContext(
        trace=session.trace, snapshot=session.snapshot,
    )


def test_wave_deadline_bounds_a_heartbeating_worker(recordings):
    """Heartbeats keep a slow worker *alive* (no dead-worker verdict,
    no reassignment) but cannot extend the wave deadline."""
    worker = _StallingWorker("heartbeat")
    try:
        transport = SocketTransport(
            [worker.address],
            wave_timeout=0.6, heartbeat_timeout=0.25,
            reconnect_attempts=0, backoff_base=0.01,
        )
        transport.prime(_stall_context(recordings))
        start = time.monotonic()
        outcomes = transport.run_tasks([_STALL_TASK])
        elapsed = time.monotonic() - start
    finally:
        worker.stop()
    assert len(outcomes) == 1
    assert outcomes[0].error is not None
    assert "TimeoutError: wave exceeded" in outcomes[0].error
    # The heartbeats were believed: the worker was never declared
    # dead, so nothing was reassigned — only the deadline ended it.
    assert transport.stats.reassignments == 0
    assert elapsed < 10.0
    transport.close()


def test_missed_heartbeats_declare_the_worker_dead(recordings):
    """A silent link is a dead worker: the shard is reassigned (once),
    and with no surviving worker it surfaces as an error outcome."""
    worker = _StallingWorker("silent", accept_once=True)
    try:
        transport = SocketTransport(
            [worker.address],
            wave_timeout=10.0, heartbeat_timeout=0.3,
            reconnect_attempts=1, backoff_base=0.01,
        )
        transport.prime(_stall_context(recordings))
        outcomes = transport.run_tasks([_STALL_TASK])
    finally:
        worker.stop()
    assert len(outcomes) == 1
    assert outcomes[0].error is not None
    assert "no live worker" in outcomes[0].error
    assert transport.stats.reassignments == 1
    assert transport.stats.retries >= 1
    transport.close()


# ---- local pool worker placement ---------------------------------------

@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API"
)
class TestWorkerPlacement:
    def test_workers_start_on_distinct_allowed_cpus(self):
        allowed = os.sched_getaffinity(0)
        for size in range(1, len(allowed) + 1):
            cpus = _spread_cpus(size)
            assert len(cpus) == size
            assert len(set(cpus)) == size
            assert set(cpus) <= allowed

    def test_no_preference_with_more_workers_than_cpus(self):
        size = len(os.sched_getaffinity(0)) + 1
        assert _spread_cpus(size) == [None] * size

    def test_starting_on_a_cpu_keeps_every_cpu_allowed(self):
        allowed = os.sched_getaffinity(0)
        _start_on(max(allowed))
        assert os.sched_getaffinity(0) == allowed

    def test_an_unavailable_cpu_is_ignored(self):
        allowed = os.sched_getaffinity(0)
        _start_on(max(allowed) + 4096)
        assert os.sched_getaffinity(0) == allowed


# ---- addressing and chaos plumbing ------------------------------------

class TestAddressing:
    def test_parse_round_trip(self):
        assert parse_worker_address("127.0.0.1:9000") == \
            ("127.0.0.1", 9000)
        assert parse_worker_address(" box:1 ") == ("box", 1)

    @pytest.mark.parametrize(
        "bad", ["nohost", ":9000", "host:", "host:abc", "host:0",
                "host:65536"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_worker_address(bad)

    def test_port_zero_assigns_and_plumbs(self):
        with WorkerServer() as server:
            assert server.port != 0
            assert server.address == f"127.0.0.1:{server.port}"
            assert parse_worker_address(server.address) == \
                ("127.0.0.1", server.port)

    def test_stop_wakes_the_accept_thread(self):
        server = WorkerServer().start()
        accept_thread = server._accept_thread
        assert accept_thread is not None and accept_thread.is_alive()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert not accept_thread.is_alive()


class TestChaosSpec:
    def test_parse(self):
        spec = ChaosSpec.parse("drop-mid-result:3")
        assert (spec.kind, spec.threshold) == ("drop-mid-result", 3)

    @pytest.mark.parametrize(
        "bad", ["die-after-results", "unknown:1", "drop-mid-result:x",
                "drop-mid-result:0"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_hard_exit_chaos_refused_in_process(self):
        with pytest.raises(ValueError, match="in-process"):
            WorkerServer(chaos=ChaosSpec.parse("die-after-results:1"))
