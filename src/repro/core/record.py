"""The IRIS recording component (paper §IV-A / §V-A).

Attaches to the hypervisor's instrumentation seams:

* at handler entry (``on_exit_start``) the callback buffers the 15
  hypervisor-saved GPRs into the pre-allocated seed area;
* the instrumented ``vmread()``/``vmwrite()`` wrappers buffer VMCS
  ``{field, value}`` pairs (reads into the seed, writes into metrics);
* at handler end the per-exit coverage and the TSC delta are latched.

Recording cost is charged to the simulated clock (``record_base`` +
``record_entry`` per buffered entry), which is exactly the overhead
Fig. 10 measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.seed import (
    ExitMetrics,
    MAX_VMCS_OPS_PER_EXIT,
    SeedEntry,
    SeedFlag,
    Trace,
    VMExitRecord,
    VMSeed,
    WORST_CASE_SEED_BYTES,
)
from repro.core.tracestore import DEFAULT_FLUSH_EVERY, TraceWriter
from repro.hypervisor.coverage import CoverageMap
from repro.hypervisor.dispatch import NullHooks
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vcpu import Vcpu
from repro.obs import OBS
from repro.vmx.exit_reasons import ExitReason
from repro.arch.fields import ArchField
from repro.x86.registers import ALL_GPRS


@dataclass
class RecorderStats:
    """Bookkeeping for tests and the §VI-D memory-overhead analysis."""

    exits_recorded: int = 0
    entries_buffered: int = 0
    vmcs_ops_dropped: int = 0  # beyond the 32-op pre-allocated area
    max_vmcs_ops_seen: int = 0
    preallocated_bytes: int = 0


class Recorder(NullHooks):
    """Collects VM seeds and metrics for one target vCPU."""

    def __init__(
        self,
        hv: Hypervisor,
        target: Vcpu,
        workload: str = "",
        store_seeds: bool = True,
        store_metrics: bool = True,
        max_records: int | None = None,
        spool_to: str | os.PathLike[str] | None = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        """``spool_to`` switches on bounded-memory recording: records
        stream straight into an ``IRISTRC2`` :class:`TraceWriter` at
        that path (flushed every ``flush_every`` exits) instead of
        accumulating in :attr:`trace`, so recording memory is O(flush
        batch) regardless of trace length (paper §VI-D).  Call
        :meth:`close_spool` (or rely on the manager) to seal the file.
        """
        self.hv = hv
        self.target = target
        self.trace = Trace(workload=workload)
        self.store_seeds = store_seeds
        self.store_metrics = store_metrics
        self.max_records = max_records
        self.stats = RecorderStats()
        self.writer: TraceWriter | None = (
            TraceWriter(
                spool_to, workload=workload, flush_every=flush_every
            )
            if spool_to is not None else None
        )
        self.enabled = False
        self._attached = False
        # per-exit scratch state
        self._recording_exit = False
        self._entries: list[SeedEntry] = []
        self._vmwrites: list[tuple[ArchField, int]] = []
        self._vmcs_ops = 0
        self._exit_reason: int = 0
        self._exit_start_tsc = 0

    # ---- lifecycle -----------------------------------------------

    def attach(self) -> None:
        if not self._attached:
            self.hv.add_hook(self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.hv.remove_hook(self)
            self._attached = False

    def start(self) -> None:
        self.attach()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        self._recording_exit = False

    def close_spool(self) -> None:
        """Seal the spool file (flush tail + footer).  No-op without
        spool mode or when already closed."""
        if self.writer is not None and not self.writer.closed:
            self.writer.close()

    @property
    def spooling(self) -> bool:
        return self.writer is not None

    @property
    def done(self) -> bool:
        return (
            self.max_records is not None
            and self.stats.exits_recorded >= self.max_records
        )

    # ---- hook implementation ---------------------------------------

    def _is_target(self, vcpu: Vcpu) -> bool:
        return vcpu is self.target

    def on_exit_start(self, vcpu: Vcpu) -> None:
        if not self.enabled or not self._is_target(vcpu) or self.done:
            return
        self._recording_exit = True
        self._vmwrites = []
        self._vmcs_ops = 0
        self._exit_start_tsc = self.hv.clock.now
        # The pre-allocated per-exit seed area (paper §VI-D).
        self.stats.preallocated_bytes += WORST_CASE_SEED_BYTES
        # Buffer the hypervisor-saved GPRs.
        self.hv.clock.charge("record_base")
        if self.store_seeds:
            gprs = vcpu.regs.gprs
            self._entries = [
                SeedEntry.for_gpr(reg, gprs[reg]) for reg in ALL_GPRS
            ]
            self.hv.clock.charge("record_entry", times=len(ALL_GPRS))
            self.stats.entries_buffered += len(ALL_GPRS)
        else:
            self._entries = []

    def _vmcs_ops_buffered(self) -> int:
        """VMCS ops buffered so far this exit (non-GPR seed entries
        plus pending vmwrites).  Maintained incrementally — the old
        implementation rescanned the whole entry list on every
        vmread/vmwrite, turning a 32-op exit into an O(ops²) walk."""
        return self._vmcs_ops

    def on_vmread(self, vcpu: Vcpu, fld: ArchField, value: int) -> int:
        if self._recording_exit and self._is_target(vcpu):
            if fld is ArchField.VM_EXIT_REASON and not self._exit_reason:
                self._exit_reason = value
            if self.store_seeds:
                if self._vmcs_ops < MAX_VMCS_OPS_PER_EXIT:
                    self._entries.append(SeedEntry.for_vmcs(
                        SeedFlag.VMCS_READ, fld, value
                    ))
                    self._vmcs_ops += 1
                    self.hv.clock.charge("record_entry")
                    self.stats.entries_buffered += 1
                else:
                    self.stats.vmcs_ops_dropped += 1
                    if OBS.metrics.enabled:
                        OBS.metrics.inc("vmcs_ops_dropped", op="read")
        return value

    def on_vmwrite(self, vcpu: Vcpu, fld: ArchField, value: int) -> None:
        if self._recording_exit and self._is_target(vcpu):
            if self.store_metrics:
                if self._vmcs_ops < MAX_VMCS_OPS_PER_EXIT:
                    self._vmwrites.append((fld, value))
                    self._vmcs_ops += 1
                    self.hv.clock.charge("record_entry")
                    self.stats.entries_buffered += 1
                else:
                    self.stats.vmcs_ops_dropped += 1
                    if OBS.metrics.enabled:
                        OBS.metrics.inc("vmcs_ops_dropped", op="write")

    def on_exit_end(self, vcpu: Vcpu, reason: ExitReason) -> None:
        if not self._recording_exit or not self._is_target(vcpu):
            return
        self._recording_exit = False
        self.stats.max_vmcs_ops_seen = max(
            self.stats.max_vmcs_ops_seen, self._vmcs_ops
        )
        seed = VMSeed(
            exit_reason=self._exit_reason or int(reason),
            entries=self._entries,
        )
        event = self.hv.current_event
        metrics = ExitMetrics(
            vmwrites=self._vmwrites if self.store_metrics else [],
            coverage=(
                self.hv.exit_coverage.copy()
                if self.store_metrics else CoverageMap()
            ),
            handler_cycles=self.hv.clock.now - self._exit_start_tsc,
            guest_cycles=event.guest_cycles if event else 0,
        )
        record = VMExitRecord(seed=seed, metrics=metrics)
        if self.writer is not None:
            self.writer.append(record)
        else:
            self.trace.records.append(record)
        self.stats.exits_recorded += 1
        if OBS.metrics.enabled:
            OBS.metrics.inc("exits_recorded", reason=reason.name)
            OBS.metrics.inc("seed_bytes", value=seed.size_bytes())
            OBS.metrics.observe("seed_size_bytes", seed.size_bytes())
        self._exit_reason = 0
        if self.done:
            self.enabled = False
