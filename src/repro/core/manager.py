"""The IRIS manager (paper §IV-C / §V-C).

Owns the operation modes (record / replay / both), the test VM and the
dummy VM, and the ``xc_vmcs_fuzzing`` hypercall backend through which
the user-space CLI drives everything.  The replay-while-recording mode
(a recorder attached to the dummy VM) is what the accuracy evaluation
uses: it stores metrics for replayed seeds so they can be compared
against the recorded ones.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from repro.core.record import Recorder
from repro.core.replay import Replayer, SeedReplayResult
from repro.core.seed import Trace, VMSeed
from repro.core.tracestore import TraceLike, TraceReader
from repro.core.snapshot import (
    VmSnapshot,
    restore_snapshot,
    take_snapshot,
)
from repro.errors import IrisError
from repro.guest.bios import bios_ops
from repro.guest.machine import GuestMachine
from repro.guest.minios import kernel_boot_ops
from repro.guest.workloads import Workload, build_workload
from repro.hypervisor.domain import Domain, DomainType
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.hypercalls import (
    EINVAL,
    XC_VMCS_FUZZING_NR,
    XcVmcsFuzzingOp,
)
from repro.obs import OBS
from repro.vmx.ept import EptTables
from repro.x86.msr import MsrFile
from repro.x86.registers import RegisterFile


class IrisMode(enum.Flag):
    """Active operation modes (paper §IV-C)."""

    OFF = 0
    RECORD = enum.auto()
    REPLAY = enum.auto()


@dataclass
class RecordingSession:
    """Result of one recording run.

    ``trace`` is the in-RAM :class:`Trace` normally, or a lazy
    :class:`TraceReader` over the sealed spool file when the session
    recorded with ``spool_to`` — both satisfy :class:`TraceLike`.
    """

    trace: TraceLike
    snapshot: VmSnapshot
    wall_cycles: int
    wall_seconds: float
    machine_stats: object
    recorder_stats: object


@dataclass
class ReplaySession:
    """Result of replaying a trace through the dummy VM."""

    results: list[SeedReplayResult]
    wall_cycles: int
    wall_seconds: float
    #: seeds that replayed without crashing
    completed: int = 0
    #: The §IV-C record-while-replay product: a metrics-only trace
    #: collected by the recorder that ran alongside the replayer
    #: (None when ``record_metrics=False``).
    metrics_trace: Trace | None = None

    @property
    def crashed(self) -> bool:
        return self.completed < len(self.results)

    def throughput_exits_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds


class IrisManager:
    """Front-end for recording and replaying VM behaviors."""

    def __init__(
        self, hv: Hypervisor | None = None, arch: str = "vmx",
        fast_reset: bool = True,
    ) -> None:
        """``arch`` picks the virtualization backend ("vmx"/"svm") when
        no pre-built hypervisor is supplied; with ``hv`` given, the
        hypervisor's own backend wins.  ``fast_reset`` lets
        :meth:`create_dummy_vm` reset an existing dummy VM in place
        instead of destroying and re-creating a domain per test case
        (the §VI-C throughput lever); ``False`` forces the original
        full-rebuild behavior."""
        self.hv = hv or Hypervisor(arch=arch)
        self.arch = self.hv.arch
        self.fast_reset = fast_reset
        self.dom0 = self.hv.create_domain(
            DomainType.DOM0, name="Domain-0"
        )
        self.mode = IrisMode.OFF
        self.test_vm: Domain | None = None
        self.test_machine: GuestMachine | None = None
        self.dummy_vm: Domain | None = None
        self.replayer: Replayer | None = None
        self._recorder: Recorder | None = None
        self.hv.hypercalls.register(
            XC_VMCS_FUZZING_NR, self._xc_vmcs_fuzzing
        )

    # ---- hypercall backend -------------------------------------------

    def _xc_vmcs_fuzzing(self, vcpu, args: tuple[int, int, int]) -> int:
        """The xc_vmcs_fuzzing backend driver (paper §V-C).

        Returns 0 on success, -EINVAL on unknown sub-operations (which
        fuzzed guests reach with garbage RDI values).
        """
        try:
            op = XcVmcsFuzzingOp(args[0])
        except ValueError:
            return EINVAL
        if op is XcVmcsFuzzingOp.ENABLE_RECORD:
            self.mode |= IrisMode.RECORD
        elif op is XcVmcsFuzzingOp.DISABLE_RECORD:
            self.mode &= ~IrisMode.RECORD
        elif op is XcVmcsFuzzingOp.ENABLE_REPLAY:
            self.mode |= IrisMode.REPLAY
        elif op is XcVmcsFuzzingOp.DISABLE_REPLAY:
            self.mode &= ~IrisMode.REPLAY
        elif op is XcVmcsFuzzingOp.STATUS:
            return self.mode.value
        # FETCH_SEEDS / FETCH_METRICS / SUBMIT_SEED move data through
        # the shared-memory area; the Python API exposes them directly
        # as record_workload()/replay_trace().
        return 0

    # ---- VM management ----------------------------------------------

    def create_test_vm(
        self, name: str = "test-vm", machine_seed: int = 0
    ) -> GuestMachine:
        """Create the DomU whose behavior will be recorded."""
        import random

        self.test_vm = self.hv.create_domain(DomainType.HVM, name=name)
        self.test_vm.populate_identity_map(64)
        self.test_machine = GuestMachine(
            self.hv, self.test_vm, rng=random.Random(machine_seed)
        )
        return self.test_machine

    def create_dummy_vm(
        self, from_snapshot: VmSnapshot | None = None,
        name: str = "dummy-vm",
    ) -> Replayer:
        """Create (or fast-reset) the dummy VM used for replay.

        With :attr:`fast_reset` on, an existing dummy VM is reset in
        place rather than destroyed and re-created — the domain, its
        vCPU and its device models survive, only their state is rewound
        to ``from_snapshot``.  Either way the old replayer is detached
        *before* the old domain goes away, so its exit hook never
        outlives the vCPU it observes.
        """
        if self.replayer is not None:
            self.replayer.detach()
            self.replayer = None
        if (
            self.fast_reset
            and self.dummy_vm is not None
            and from_snapshot is not None
            and self.dummy_vm.name == name
        ):
            vcpu = self._reset_dummy_vm(from_snapshot)
        else:
            if self.dummy_vm is not None:
                self.hv.destroy_domain(self.dummy_vm)
            self.dummy_vm = self.hv.create_domain(
                DomainType.HVM, name=name, is_dummy=True
            )
            vcpu = self.dummy_vm.vcpus[0]
            if from_snapshot is not None:
                vcpu = restore_snapshot(
                    self.hv, self.dummy_vm, from_snapshot
                )
        self.replayer = Replayer(self.hv, vcpu)
        return self.replayer

    def _reset_dummy_vm(self, from_snapshot: VmSnapshot) -> Vcpu:
        """Rewind the existing dummy VM to ``from_snapshot`` in place.

        The scrub below reproduces what a freshly created domain hands
        to ``restore_snapshot``: pristine register/MSR files (the
        restore deliberately leaves segments and DR7 alone), empty
        guest memory and EPT, and a logical CPU parked in host context.
        The stamp is dropped because the scrub happens behind the
        write sets' back — the restore must run its full path.
        """
        domain = self.dummy_vm
        assert domain is not None
        vcpu = domain.vcpus[0]
        vcpu.regs = RegisterFile()
        vcpu.msrs = MsrFile()
        domain.memory.drop_all()
        domain.ept = EptTables(eptp=0x7000 + domain.domid)
        vcpu.backend.park_cpu(vcpu)
        domain.restore_stamp = None
        return restore_snapshot(self.hv, domain, from_snapshot)

    # ---- record mode --------------------------------------------------

    def record_workload(
        self,
        workload: Workload | str,
        n_exits: int = 5000,
        precondition: str | None = "bios",
        store_seeds: bool = True,
        store_metrics: bool = True,
        workload_seed: int = 0,
        spool_to: str | os.PathLike[str] | None = None,
    ) -> RecordingSession:
        """Run a workload on the test VM and record its VM behavior.

        ``precondition`` fast-forwards the test VM without recording:
        ``"bios"`` runs the firmware phase (the paper's OS BOOT trace
        starts after the last BIOS exit); ``"boot"`` additionally runs
        the whole kernel boot (CPU-/MEM-/I/O-bound and IDLE execute on
        a booted OS).

        ``spool_to`` streams records to an ``IRISTRC2`` file as they
        arrive (bounded recording memory); the returned session's
        ``trace`` is then a lazy :class:`TraceReader` over the sealed
        file instead of an in-RAM :class:`Trace`.
        """
        if isinstance(workload, str):
            workload = build_workload(workload, seed=workload_seed)
        with OBS.tracer.span(
            "iris.record", workload=workload.name, arch=self.arch,
            n_exits=n_exits,
        ):
            session = self._record_workload(
                workload, n_exits=n_exits, precondition=precondition,
                store_seeds=store_seeds, store_metrics=store_metrics,
                spool_to=spool_to,
            )
        if OBS.metrics.enabled:
            OBS.metrics.inc("sessions", kind="record", arch=self.arch)
        return session

    def _record_workload(
        self,
        workload: Workload,
        n_exits: int,
        precondition: str | None,
        store_seeds: bool,
        store_metrics: bool,
        spool_to: str | os.PathLike[str] | None = None,
    ) -> RecordingSession:
        machine = self.test_machine or self.create_test_vm()
        machine.launch()

        if precondition in ("bios", "boot"):
            machine.run(bios_ops(machine.rng, scale=1))
        elif precondition not in (None, "none"):
            raise IrisError(f"unknown precondition {precondition!r}")
        if precondition == "boot":
            machine.run(kernel_boot_ops(machine.rng))

        snapshot = take_snapshot(self.hv, machine.domain)
        recorder = Recorder(
            self.hv, machine.vcpu, workload=workload.name,
            store_seeds=store_seeds, store_metrics=store_metrics,
            max_records=n_exits, spool_to=spool_to,
        )
        self._recorder = recorder
        self.mode |= IrisMode.RECORD
        recorder.start()
        start = self.hv.clock.now
        try:
            workload.run(machine, max_exits=n_exits)
        finally:
            recorder.stop()
            recorder.detach()
            recorder.close_spool()
            self.mode &= ~IrisMode.RECORD
        wall = self.hv.clock.now - start
        trace: TraceLike = (
            TraceReader(spool_to) if spool_to is not None
            else recorder.trace
        )
        return RecordingSession(
            trace=trace,
            snapshot=snapshot,
            wall_cycles=wall,
            wall_seconds=self.hv.clock.seconds(wall),
            machine_stats=machine.stats,
            recorder_stats=recorder.stats,
        )

    def park_test_vm(self, exits: int = 10) -> int:
        """Keep the test VM in an idle loop between recording sessions.

        Paper §IV-C: "the IRIS manager allows keeping the test VM in an
        idle loop, ready for a new recording session."  Runs a short
        HLT/RDTSC idle burst with no recorder attached; returns the
        exits the parked VM delivered.
        """
        from repro.guest.ops import GuestOp, OpKind

        machine = self.test_machine or self.create_test_vm()
        machine.launch()

        def idle_ops():
            while True:
                yield GuestOp(OpKind.RDTSC, cycles=20_000)
                yield GuestOp(OpKind.PAUSE, cycles=10_000)

        return machine.run(idle_ops(), max_exits=exits)

    # ---- replay mode ------------------------------------------------

    def replay_trace(
        self,
        trace: TraceLike,
        from_snapshot: VmSnapshot | None = None,
        record_metrics: bool = True,
        fresh_dummy: bool = True,
        stop_on_crash: bool = True,
    ) -> ReplaySession:
        """Replay a recorded VM behavior through the dummy VM.

        With ``record_metrics`` the recorder runs alongside the replayer
        ("the replay mode together with the record mode enabled to store
        metrics while replaying", §IV-C); its per-seed coverage and
        VMWRITE observations are attached to the returned results.
        """
        with OBS.tracer.span(
            "iris.replay", workload=trace.workload, arch=self.arch,
            seeds=len(trace),
        ):
            session = self._replay_trace(
                trace, from_snapshot=from_snapshot,
                record_metrics=record_metrics,
                fresh_dummy=fresh_dummy, stop_on_crash=stop_on_crash,
            )
        if OBS.metrics.enabled:
            OBS.metrics.inc("sessions", kind="replay", arch=self.arch)
        return session

    def _replay_trace(
        self,
        trace: TraceLike,
        from_snapshot: VmSnapshot | None,
        record_metrics: bool,
        fresh_dummy: bool,
        stop_on_crash: bool,
    ) -> ReplaySession:
        if fresh_dummy or self.replayer is None:
            self.create_dummy_vm(from_snapshot=from_snapshot)
        assert self.replayer is not None
        replayer = self.replayer
        self.mode |= IrisMode.REPLAY

        recorder = None
        if record_metrics:
            recorder = Recorder(
                self.hv, replayer.vcpu, workload=trace.workload,
                store_seeds=False, store_metrics=True,
            )
            replayer.attach()  # replayer hook must precede the recorder
            recorder.start()

        start = self.hv.clock.now
        try:
            results = replayer.replay_trace(
                trace, stop_on_crash=stop_on_crash
            )
        finally:
            if recorder is not None:
                recorder.stop()
                recorder.detach()
            self.mode &= ~IrisMode.REPLAY
        wall = self.hv.clock.now - start
        completed = sum(
            1 for r in results
            if r.outcome.value == "ok"
        )
        return ReplaySession(
            results=results,
            wall_cycles=wall,
            wall_seconds=self.hv.clock.seconds(wall),
            completed=completed,
            metrics_trace=(
                recorder.trace if recorder is not None else None
            ),
        )

    @classmethod
    def cold_start(
        cls, arch: str, *, fast_reset: bool,
        snapshot: VmSnapshot | None,
    ) -> "IrisManager":
        """A fresh manager in ``snapshot``'s clock domain.

        Timer deadlines in a snapshot (vpt.next_due, vlapic) are
        absolute TSC values on the recording host's clock.  A fresh
        hypervisor starts at TSC 0, which would push every restored
        deadline unreachably far into the future and silence the
        interrupt-injection paths replay legitimately exercises, so the
        clock is fast-forwarded to the snapshot's TSC — a pure function
        of the snapshot, so every cold start from it is identical.
        """
        manager = cls(arch=arch, fast_reset=fast_reset)
        clock = manager.hv.clock
        if snapshot is not None and snapshot.clock_tsc > clock.now:
            clock.advance(snapshot.clock_tsc - clock.now)
        return manager

    def submit_seed(self, seed: VMSeed) -> SeedReplayResult:
        """Submit one (possibly crafted/mutated) seed on demand."""
        if self.replayer is None:
            self.create_dummy_vm()
        assert self.replayer is not None
        self.mode |= IrisMode.REPLAY
        try:
            return self.replayer.submit(seed)
        finally:
            self.mode &= ~IrisMode.REPLAY
