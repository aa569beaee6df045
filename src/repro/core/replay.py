"""The IRIS replaying component (paper §IV-B / §V-B).

The dummy VM is an HVM domain that never executes guest instructions:
its VMX-preemption timer is loaded with **zero**, so every VM entry is
followed immediately by a preemption-timer exit.  Seed submission
happens in the compile-time callback at handler entry:

* the seed's GPRs are copied into the hypervisor's register save area;
* an ordered per-field override queue is installed over ``vmread()``;
  each handler read pops the recorded value.  Writable fields are also
  rewritten into the VMCS (keeping the architectural state coherent and
  letting the VM-entry checks validate it); read-only fields — exit
  reason, qualification, and friends — are only override-returned,
  since VMWRITE to them architecturally fails (error 13).

Because the dispatcher reads VM_EXIT_REASON through the overridden
path, the physical preemption-timer exit is transparently handled as
the *recorded* exit reason — no special routing needed.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field

from repro.arch.fields import ArchField, is_read_only
from repro.core.seed import VMSeed
from repro.core.tracestore import TraceLike
from repro.errors import GuestCrash, HypervisorCrash, VirtError
from repro.hypervisor.dispatch import ExitEvent, NullHooks
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vcpu import Vcpu
from repro.obs import OBS
from repro.vmx.exit_reasons import ExitReason, reason_name

#: Sanitization masks applied when the replay echo-writes a seed value
#: back into a guest-state field.  IRIS's injection callback goes
#: through Xen's own guest-state update wrappers (vmx_update_guest_cr
#: and friends), which enforce the VMX fixed bits — so a corrupted seed
#: reaches the *handler* raw (through the vmread override), while the
#: architectural state stays VM-entry-valid.  Without this, nearly
#: every guest-state bit-flip would die at the §26.3 checks, which is
#: not what the paper observes (Table I: ~1% VM crashes).
_ECHO_WRITE_MASKS: dict[ArchField, tuple[int, int]] = {
    # field: (AND mask, OR mask)
    ArchField.GUEST_CR0: (0xE005003F, 0x00000010),
    ArchField.GUEST_CR4: (0x007FFFFF & ~0x2000, 0),
    ArchField.GUEST_RFLAGS: (0x3F7FD7, 0x2),
    ArchField.GUEST_INTERRUPTIBILITY_INFO: (0x1D, 0),
    ArchField.GUEST_ACTIVITY_STATE: (0x3, 0),
    ArchField.VMCS_LINK_POINTER: (0, (1 << 64) - 1),
    ArchField.GUEST_DR7: (0xFFFFFFFF, 0),
}


class ReplayOutcome(enum.Enum):
    """What happened when one seed was submitted."""

    OK = "ok"
    VM_CRASH = "vm-crash"
    HYPERVISOR_CRASH = "hypervisor-crash"


@dataclass
class SeedReplayResult:
    """Per-seed replay observation (mirrors the recorded metrics)."""

    outcome: ReplayOutcome
    handled_reason: ExitReason | None = None
    coverage_lines: frozenset[tuple[str, int]] = frozenset()
    vmwrites: list[tuple[ArchField, int]] = field(default_factory=list)
    handler_cycles: int = 0
    crash_reason: str | None = None


class Replayer(NullHooks):
    """Submits VM seeds to the hypervisor through a dummy VM."""

    def __init__(self, hv: Hypervisor, dummy_vcpu: Vcpu) -> None:
        self.hv = hv
        self.vcpu = dummy_vcpu
        #: The continuous-exit mechanism: the zero-loaded preemption
        #: timer on VT-x, the zero pause-filter PAUSE intercept on SVM.
        #: Kept under the historical name ``timer``.
        self.timer = dummy_vcpu.backend.continuous_exit_driver(dummy_vcpu)
        self.timer.activate()
        self.timer.load(0)  # preempt before any guest instruction
        self._attached = False
        self._pending: VMSeed | None = None
        self._overrides: dict[ArchField, deque[int]] = {}
        #: Batched submission (submit_batch): the ring-staging cost is
        #: paid once per batch, not per seed.
        self._in_batch = False
        self.seeds_submitted = 0
        #: VMWRITEs the replayed handler performed (per-seed scratch).
        self._vmwrites: list[tuple[ArchField, int]] = []
        self._capture_writes = False

    # ---- lifecycle ---------------------------------------------------

    def attach(self) -> None:
        """Install the replay hook *before* any recorder, so a metric-
        collecting recorder observes post-override values."""
        if not self._attached:
            self.hv.hooks.insert(0, self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.hv.remove_hook(self)
            self._attached = False

    # ---- hook implementation -----------------------------------------

    def on_exit_start(self, vcpu: Vcpu) -> None:
        if vcpu is not self.vcpu or self._pending is None:
            return
        seed = self._pending
        # Submission cost: fixed consume-from-ring cost plus per-entry
        # copy/override installation (the gap to the ideal throughput
        # the paper quantifies in §VI-C).  Batched submission staged
        # the ring up front, eliminating the per-seed fixed cost.
        if not self._in_batch:
            self.hv.clock.charge("inject_base")
        self.hv.clock.charge("gpr_load")
        # GPRs: straight copy into the hypervisor save area.
        vcpu.regs.load_gprs(seed.gprs())
        # VMCS reads: ordered override queues, one per field.
        self._overrides = {}
        reads = seed.vmcs_reads()
        for fld, value in reads:
            self._overrides.setdefault(fld, deque()).append(value)
        self.hv.clock.charge("inject_entry", times=max(len(reads), 1))
        self._vmwrites = []
        self._capture_writes = True
        if OBS.metrics.enabled:
            OBS.metrics.observe("override_queue_depth", len(reads))

    def on_vmread(self, vcpu: Vcpu, fld: ArchField, value: int) -> int:
        if vcpu is not self.vcpu:
            return value
        queue = self._overrides.get(fld)
        if not queue:
            return value
        recorded = queue.popleft()
        if OBS.metrics.enabled:
            OBS.metrics.inc("vmread_overrides")
        if not is_read_only(fld):
            # Rewrite the architectural state with the seed value, as
            # the paper's replay does for writable fields; bypasses the
            # instrumented wrapper so the echo-write is not recorded as
            # handler activity.  Guest-state fields pass through the
            # fixed-bit masks of Xen's update wrappers.
            masks = _ECHO_WRITE_MASKS.get(fld)
            value_to_write = recorded
            if masks is not None:
                and_mask, or_mask = masks
                value_to_write = (recorded & and_mask) | or_mask
                if OBS.metrics.enabled and value_to_write != recorded:
                    OBS.metrics.inc(
                        "echo_write_masked", field=fld.name
                    )
            vcpu.write_field(fld, value_to_write)
        return recorded

    def on_vmwrite(self, vcpu: Vcpu, fld: ArchField, value: int) -> None:
        if vcpu is self.vcpu and self._capture_writes:
            self._vmwrites.append((fld, value))

    def on_exit_end(self, vcpu: Vcpu, reason: ExitReason) -> None:
        if vcpu is self.vcpu:
            if OBS.metrics.enabled:
                # Unconsumed override entries are divergence sites: the
                # replayed handler read fewer values than the recorded
                # one buffered — the first thing to look at when a
                # replay's coverage fitting drops.
                for fld, queue in self._overrides.items():
                    if queue:
                        OBS.metrics.inc(
                            "replay_divergence",
                            value=len(queue), field=fld.name,
                        )
            self._pending = None
            self._capture_writes = False

    # ---- seed submission -----------------------------------------------

    def submit(self, seed: VMSeed) -> SeedReplayResult:
        """Submit one seed: trigger a preemption-timer exit and let the
        override machinery replay the recorded exit over it."""
        if not OBS.metrics.enabled:
            return self._submit(seed)
        wall_start = time.perf_counter_ns()
        result = self._submit(seed)
        metrics = OBS.metrics
        metrics.inc("seeds_replayed", outcome=result.outcome.value)
        metrics.observe("replay_handler_cycles",
                        result.handler_cycles)
        metrics.observe_wall(
            "replay_step_wall_ns",
            time.perf_counter_ns() - wall_start,
        )
        if result.outcome is not ReplayOutcome.OK:
            metrics.inc(
                "crashes",
                kind=result.outcome.value,
                reason=reason_name(seed.exit_reason),
            )
        return result

    def _submit(self, seed: VMSeed) -> SeedReplayResult:
        self.attach()
        if self.vcpu.dead:
            return SeedReplayResult(
                outcome=ReplayOutcome.VM_CRASH,
                crash_reason="dummy VM already crashed",
            )
        self._ensure_running()
        self._pending = seed
        self.seeds_submitted += 1
        guest_cycles = self.timer.guest_cycles_until_expiry() or 0
        if guest_cycles:
            # Ablation: a nonzero preemption-timer value lets the dummy
            # VM execute that many guest cycles before each exit,
            # reintroducing exactly the cost the paper's timer=0
            # configuration eliminates.
            self.hv.clock.advance(guest_cycles)
        event = ExitEvent(
            reason=self.timer.exit_reason,
            guest_cycles=guest_cycles,
        )
        event.write_to(self.vcpu)
        start = self.hv.clock.now
        try:
            handled = self.hv.handle_vmexit(self.vcpu, event)
        except GuestCrash as crash:
            self._pending = None
            self._capture_writes = False
            return SeedReplayResult(
                outcome=ReplayOutcome.VM_CRASH,
                coverage_lines=self.hv.exit_coverage.lines(),
                vmwrites=list(self._vmwrites),
                handler_cycles=self.hv.clock.now - start,
                crash_reason=crash.reason,
            )
        except HypervisorCrash as crash:
            self._pending = None
            self._capture_writes = False
            return SeedReplayResult(
                outcome=ReplayOutcome.HYPERVISOR_CRASH,
                coverage_lines=self.hv.exit_coverage.lines(),
                vmwrites=list(self._vmwrites),
                handler_cycles=self.hv.clock.now - start,
                crash_reason=crash.reason,
            )
        except VirtError as crash:
            # A virtualization instruction failed inside the hypervisor
            # (e.g. a VMWRITE rejected by the hardware, or a VMRUN from
            # the wrong mode): Xen BUG()s on these.
            self._pending = None
            self._capture_writes = False
            return SeedReplayResult(
                outcome=ReplayOutcome.HYPERVISOR_CRASH,
                coverage_lines=self.hv.exit_coverage.lines(),
                vmwrites=list(self._vmwrites),
                handler_cycles=self.hv.clock.now - start,
                crash_reason=f"virtualization instruction failure: {crash}",
            )
        return SeedReplayResult(
            outcome=ReplayOutcome.OK,
            handled_reason=handled,
            coverage_lines=self.hv.exit_coverage.lines(),
            vmwrites=list(self._vmwrites),
            handler_cycles=self.hv.clock.now - start,
        )

    def replay_trace(
        self, trace: TraceLike, stop_on_crash: bool = True
    ) -> list[SeedReplayResult]:
        """Replay a full recorded VM behavior, seed by seed."""
        results = []
        for record in trace.records:
            result = self.submit(record.seed)
            results.append(result)
            if result.outcome is not ReplayOutcome.OK and stop_on_crash:
                break
        return results

    def submit_batch(
        self, seeds: list[VMSeed], stop_on_crash: bool = True
    ) -> list[SeedReplayResult]:
        """Batched submission (the paper's §IX replay optimization).

        "Submitting VM seeds in batch, or implementing buffering
        mechanisms to continuously submit VM seeds as they are
        generated, could increase the overall replay throughput."
        The batch is staged into the (simulated) shared ring once; each
        exit then pops its seed without the per-seed consume-and-wait
        round trip, so the fixed ``inject_base`` cost is paid once per
        batch instead of once per seed.
        """
        if not seeds:
            return []
        self.attach()
        self._ensure_running()
        # One staging cost for the whole batch.
        self.hv.clock.charge("inject_base")
        results: list[SeedReplayResult] = []
        self._in_batch = True
        try:
            for seed in seeds:
                result = self.submit(seed)
                results.append(result)
                if (
                    result.outcome is not ReplayOutcome.OK
                    and stop_on_crash
                ):
                    break
        finally:
            self._in_batch = False
        return results

    def _ensure_running(self) -> None:
        """Launch the dummy VM if it has not entered the guest yet."""
        if not self.vcpu.backend.is_in_guest(self.vcpu):
            self.hv.launch(self.vcpu)

    def run_empty_exits(self, count: int) -> int:
        """Drive ``count`` bare preemption-timer exits (no seeds).

        This is the paper's *ideal replaying throughput* measurement:
        0.1 s for 5000 exits on their testbed (§VI-C).  Returns the TSC
        cycles consumed.
        """
        self.attach()
        self._ensure_running()
        start = self.hv.clock.now
        for _ in range(count):
            event = ExitEvent(
                reason=self.timer.exit_reason, guest_cycles=0
            )
            event.write_to(self.vcpu)
            self.hv.handle_vmexit(self.vcpu, event)
        return self.hv.clock.now - start
