"""The simulated Xen-like hypervisor: domains, dispatch, instrumentation.

:class:`Hypervisor` owns the clock, the coverage maps, the hook chain
(where IRIS's recorder/replayer attach), the per-domain virtual devices,
and the VM-exit dispatch loop described in the paper's Fig. 1/Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import GuestCrash
from repro.hypervisor.clock import Clock
from repro.hypervisor.coverage import CoverageMap, SourceBlock
from repro.hypervisor.dispatch import ExitEvent, HandlerTable, VmxHooks
from repro.hypervisor.domain import Domain, DomainType
from repro.hypervisor.handlers import build_handler_table
from repro.hypervisor.handlers import common as hc
from repro.hypervisor.hypercalls import HypercallRouter
from repro.hypervisor.irq import VirtualIrqController
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.vlapic import Vlapic
from repro.hypervisor.vpt import VirtualPlatformTimer
from repro.hypervisor.xenlog import XenLog
from repro.arch.backend import get_backend
from repro.arch.fields import ArchField
from repro.obs import OBS
from repro.vmx.exit_reasons import (
    REASON_BY_VALUE,
    ExitReason,
    VM_EXIT_REASON_ENTRY_FAILURE,
)
from repro.x86.costs import CostModel, DEFAULT_COSTS
from repro.x86.cpumodes import OperatingMode

#: Highest address reachable in real mode (FFFF:FFEF).
REAL_MODE_RIP_LIMIT = 0x10FFEF


@dataclass
class ExitStats:
    """Per-exit accounting the dispatcher maintains."""

    total_exits: int = 0
    last_reason: ExitReason | None = None
    last_cycles: int = 0
    by_reason: dict[ExitReason, int] = field(default_factory=dict)
    #: When enabled, every exit's (reason, cycles) is appended — the
    #: raw data behind the Fig. 10 overhead boxplots.
    keep_history: bool = False
    history: list[tuple[ExitReason, int]] = field(default_factory=list)


class Hypervisor:
    """One simulated host running the simulated Xen."""

    def __init__(
        self,
        costs: CostModel | None = None,
        handler_table: HandlerTable | None = None,
        arch: str = "vmx",
    ) -> None:
        #: Which virtualization backend this host's CPUs expose.
        self.arch = arch
        self.backend = get_backend(arch)
        self.clock = Clock(costs=costs or DEFAULT_COSTS)
        self.log = XenLog()
        self.log.bind_clock(self.clock.read)
        if OBS.tracer.enabled:
            # Trace timestamps are this host's simulated TSC.
            OBS.tracer.bind_clock(self.clock.read)
        self.handler_table = handler_table or build_handler_table()
        self.hypercalls = HypercallRouter()
        self.domains: dict[int, Domain] = {}
        self._next_domid = 0
        self._next_vmcs_address = 0x10000

        #: Instrumentation state.
        self.hooks: list[VmxHooks] = []
        self.coverage_enabled = True
        #: Coverage collection backend: "gcov" (the paper's compile-
        #: time instrumentation), "intel-pt" (the §IX hardware-trace
        #: alternative: cheaper inline, offline decode), or "none".
        self.coverage_backend = "gcov"
        from repro.hypervisor.intel_pt import IntelPtBuffer

        self.pt_buffer = IntelPtBuffer()
        #: Ablation switch (DESIGN.md §4.2): the paper's replay runs a
        #: full VM entry precisely so the §26.3 checks validate every
        #: seed; disabling them admits malformed states.
        self.entry_checks_enabled = True
        self.session_coverage = CoverageMap()
        self.exit_coverage = CoverageMap()
        self.stats = ExitStats()
        #: The event being handled (set by the exit trigger).
        self.current_event: ExitEvent | None = None

        #: Per-domain/vCPU virtual devices.
        self._vlapics: dict[tuple[int, int], Vlapic] = {}
        self._vpts: dict[int, VirtualPlatformTimer] = {}
        self._irqs: dict[int, VirtualIrqController] = {}

    # ---- domain management ---------------------------------------

    def create_domain(
        self,
        dtype: DomainType = DomainType.HVM,
        name: str = "",
        memory_bytes: int = 1 << 30,
        is_dummy: bool = False,
        vcpu_count: int = 1,
    ) -> Domain:
        """Create a domain; each vCPU is pinned 1:1 to its own pCPU.

        Multi-vCPU domains get one VMCS and one vlapic per vCPU — the
        paper's §IX point that VT-x creates a VMCS per virtual CPU, so
        IRIS can record/replay each vCPU's exit flow independently.
        """
        if vcpu_count < 1:
            raise ValueError("a domain needs at least one vCPU")
        domid = self._next_domid
        self._next_domid += 1
        domain = Domain(
            domid=domid, dtype=dtype, memory_bytes=memory_bytes,
            name=name or f"dom{domid}", is_dummy=is_dummy,
            # The dummy VM's RAM holds its own OS image; model that as
            # a repeating texture of common mov/string opcodes.
            background_pattern=(
                b"\x8b\x89\xa4\xac" if is_dummy else None
            ),
        )
        self.domains[domid] = domain
        if dtype is DomainType.HVM:
            for vcpu_id in range(vcpu_count):
                vcpu = Vcpu(
                    vcpu_id=vcpu_id,
                    vmcs_address=self._next_vmcs_address,
                    arch=self.arch,
                )
                self._next_vmcs_address += 0x1000
                domain.add_vcpu(vcpu)
                self._vlapics[(domid, vcpu_id)] = Vlapic(
                    vcpu_id=vcpu_id
                )
                self._init_guest_state(vcpu)
            self._vpts[domid] = VirtualPlatformTimer()
            self._irqs[domid] = VirtualIrqController()
        return domain

    def destroy_domain(self, domain: Domain) -> None:
        self.domains.pop(domain.domid, None)
        self._vpts.pop(domain.domid, None)
        self._irqs.pop(domain.domid, None)
        for key in [k for k in self._vlapics if k[0] == domain.domid]:
            self._vlapics.pop(key)

    def _init_guest_state(self, vcpu: Vcpu) -> None:
        """Xen's construct_vmcs()/construct_vmcb(), backend-routed."""
        vcpu.backend.init_guest_state(vcpu)

    # ---- device accessors (used by handlers) ------------------------

    def vlapic(self, vcpu: Vcpu) -> Vlapic:
        assert vcpu.domain is not None
        return self._vlapics[(vcpu.domain.domid, vcpu.vcpu_id)]

    def platform_timer(self, domain: Domain) -> VirtualPlatformTimer:
        return self._vpts[domain.domid]

    def irq_controller(self, domain: Domain) -> VirtualIrqController:
        return self._irqs[domain.domid]

    # ---- instrumentation primitives ----------------------------------

    def cov(self, block: SourceBlock) -> None:
        """Execute one basic block of hypervisor code.

        The block's execution cost is always paid; what the coverage
        *collection* adds on top depends on the backend: a gcov counter
        update inline, a PT packet (cheaper inline, decoded offline),
        or nothing.
        """
        self.clock.charge("handler_block")
        if not self.coverage_enabled:
            return
        if self.coverage_backend == "gcov":
            self.clock.charge("gcov_probe")
        elif self.coverage_backend == "intel-pt":
            self.clock.charge("pt_packet")
            self.pt_buffer.emit(block, self.clock.now)
        elif self.coverage_backend == "none":
            return
        else:
            raise ValueError(
                f"unknown coverage backend {self.coverage_backend!r}"
            )
        self.session_coverage.hit(block)
        self.exit_coverage.hit(block)

    def cov_all(self, blocks: Iterable[SourceBlock]) -> None:
        for block in blocks:
            self.cov(block)

    def vmread(self, vcpu: Vcpu, fld: ArchField) -> int:
        """Xen's ``vmread()`` wrapper: instrumented guest-state read.

        The clock charge keeps the key "vmread" on every backend so the
        replay-accuracy cost model is arch-independent (on SVM the
        physical access is a plain VMCB load).
        """
        self.clock.charge("vmread")
        value = vcpu.backend.read(vcpu, fld)
        for hook in self.hooks:
            value = hook.on_vmread(vcpu, fld, value)
        return value

    def vmwrite(self, vcpu: Vcpu, fld: ArchField, value: int) -> None:
        """Xen's ``vmwrite()`` wrapper: instrumented guest-state write."""
        self.clock.charge("vmwrite")
        for hook in self.hooks:
            hook.on_vmwrite(vcpu, fld, value)
        vcpu.backend.write(vcpu, fld, value)

    def bug_on(self, condition: bool, reason: str) -> None:
        """Xen's BUG_ON(): panic the host when an invariant breaks."""
        if condition:
            self.log.panic(reason)

    def run_hypercall(self, vcpu: Vcpu, number: int, name: str) -> int:
        self.clock.charge("hypercall")
        return self.hypercalls.dispatch(vcpu, number)

    def add_hook(self, hook: VmxHooks) -> None:
        self.hooks.append(hook)

    def remove_hook(self, hook: VmxHooks) -> None:
        self.hooks.remove(hook)

    # ---- the VM-exit dispatch loop ------------------------------------

    def launch(self, vcpu: Vcpu) -> None:
        """First VM entry for a freshly constructed vCPU (VMLAUNCH)."""
        self._vm_entry(vcpu)

    def handle_vmexit(self, vcpu: Vcpu, event: ExitEvent) -> ExitReason:
        """Handle one VM exit end-to-end (paper Fig. 1 steps 4-5).

        ``event`` is what the simulated hardware latched; its fields are
        already in the VMCS (the caller ran :meth:`ExitEvent.write_to`).
        Returns the exit reason that was actually *handled*, which under
        IRIS replay differs from ``event.reason`` (the dummy VM always
        physically exits with PREEMPTION_TIMER; the seed redirects it).
        """
        if vcpu.dead:
            raise GuestCrash(
                "exit delivered to dead vCPU", domain_id=getattr(
                    vcpu.domain, "domid", None)
            )
        start = self.clock.now
        self.current_event = event
        vcpu.backend.deliver_exit_to_cpu(vcpu)
        self.clock.charge("vm_exit_context_switch")
        self.clock.charge("gpr_save")
        # reset(), not a fresh map: consumers keep a copy() taken at
        # the end of the exit (replay results, recorded metrics), never
        # this map itself, and keeping the intern table warm spares a
        # re-intern of the same files on every exit.
        self.exit_coverage.reset()
        self.cov(hc.BLK_EXIT_PROLOGUE)

        for hook in self.hooks:
            hook.on_exit_start(vcpu)

        raw_reason = self.vmread(vcpu, ArchField.VM_EXIT_REASON)
        if raw_reason & VM_EXIT_REASON_ENTRY_FAILURE:
            self.cov(hc.BLK_ENTRY_FAILURE_BUG)
            self.bug_on(
                True,
                f"vmx_vmexit_handler: VM-entry failure reported "
                f"(reason {raw_reason:#x})",
            )
        if raw_reason & 0x7FFF0000:
            # Bits 16-30 of the exit reason are reserved; the hardware
            # never sets them.  Seeing one means the VMCS is corrupt.
            self.cov(hc.BLK_ENTRY_FAILURE_BUG)
            self.bug_on(
                True,
                f"vmx_vmexit_handler: reserved exit-reason bits set "
                f"({raw_reason:#x})",
            )
        self.clock.charge("handler_dispatch")

        # None only on the unexpected-reason path, which never returns.
        reason: ExitReason = REASON_BY_VALUE.get(  # type: ignore[assignment]
            raw_reason & 0xFFFF
        )
        handler = (
            self.handler_table.lookup(reason) if reason is not None
            else None
        )
        if handler is None:
            self.cov(hc.BLK_UNEXPECTED_EXIT)
            assert vcpu.domain is not None
            self.log.error(
                f"d{vcpu.domain.domid}: unexpected exit reason "
                f"{raw_reason & 0xFFFF}"
            )
            vcpu.domain.domain_crash(
                f"unexpected VM exit reason {raw_reason & 0xFFFF}"
            )
            raise AssertionError("unreachable")

        handler(self, vcpu)
        vcpu.hvm.exit_count += 1

        self._run_async_components(vcpu)
        self._intr_assist(vcpu)
        self._check_rip_for_mode(vcpu)
        self.cov(hc.BLK_EXIT_EPILOGUE)

        for hook in self.hooks:
            hook.on_exit_end(vcpu, reason)

        self._vm_entry(vcpu)

        self.stats.total_exits += 1
        self.stats.last_reason = reason
        self.stats.last_cycles = self.clock.now - start
        self.stats.by_reason[reason] = (
            self.stats.by_reason.get(reason, 0) + 1
        )
        if self.stats.keep_history:
            self.stats.history.append((reason, self.stats.last_cycles))
        if OBS.metrics.enabled:
            OBS.metrics.inc(
                "exits_handled", reason=reason.name, arch=self.arch
            )
            OBS.metrics.observe(
                "exit_cycles", self.stats.last_cycles,
                reason=reason.name,
            )
        if OBS.tracer.enabled:
            OBS.tracer.event(
                "vmexit", reason=reason.name, arch=self.arch,
                cycles=self.stats.last_cycles,
            )
        self.current_event = None
        return reason

    def _run_async_components(self, vcpu: Vcpu) -> None:
        """Asynchronous vlapic/vpt activity interleaving with the exit.

        The firing times depend on the TSC, which advances differently
        under record and replay — the designed source of the paper's
        1-30 LOC coverage noise (Fig. 7).
        """
        assert vcpu.domain is not None
        vlapic = self.vlapic(vcpu)
        blocks = vlapic.run_pending_timer(self.clock.now)
        if blocks:
            self.clock.charge("async_event")
            self.cov_all(blocks)
        vpt = self.platform_timer(vcpu.domain)
        blocks = vpt.run_pending(self.clock.now)
        if blocks:
            self.clock.charge("async_event")
            self.cov_all(blocks)
            irq = self.irq_controller(vcpu.domain)
            self.cov_all(irq.assert_line(0))
            vlapic.post_interrupt(0x30)

    def _intr_assist(self, vcpu: Vcpu) -> None:
        """``vmx_intr_assist``: inject or request an interrupt window."""
        vlapic = self.vlapic(vcpu)
        if not vlapic.irr or vcpu.hvm.pending_event is not None:
            return
        self.cov(hc.BLK_INTR_ASSIST)
        rflags = self.vmread(vcpu, ArchField.GUEST_RFLAGS)
        interruptibility = vcpu.read_field(
            ArchField.GUEST_INTERRUPTIBILITY_INFO
        )
        if (rflags & (1 << 9)) and not (interruptibility & 0x3):
            vector, blocks = vlapic.ack_highest()
            self.cov_all(blocks)
            if vector is not None:
                hc.inject_event(
                    self, vcpu, vector, hc.EVENT_TYPE_EXTERNAL
                )
        else:
            self.cov(hc.BLK_OPEN_INTR_WINDOW)
            controls = self.vmread(
                vcpu, ArchField.CPU_BASED_VM_EXEC_CONTROL
            )
            self.vmwrite(
                vcpu, ArchField.CPU_BASED_VM_EXEC_CONTROL,
                controls | (1 << 2),
            )

    def _check_rip_for_mode(self, vcpu: Vcpu) -> None:
        """Xen-side sanity: the guest RIP must fit the cached mode.

        Replaying protected-mode seeds into a fresh dummy VM trips this
        with the paper's exact failure ("Xen logs: bad RIP for mode 0",
        §VI-B).  Runs at the tail of exit handling so the VMREADs it
        performs are part of the recorded seed.
        """
        assert vcpu.domain is not None
        rip = self.vmread(vcpu, ArchField.GUEST_RIP)
        cs_base = self.vmread(vcpu, ArchField.GUEST_CS_BASE)
        mode = vcpu.hvm.guest_mode
        # A non-canonical RIP can only come from VMCS corruption: the
        # VMWRITE of it would fail at the next entry, which Xen treats
        # as a fatal host error (vmx_vmentry_failure -> BUG).
        top_bits = rip >> 47
        self.bug_on(
            top_bits not in (0, (1 << 17) - 1),
            f"vmx: non-canonical guest RIP {rip:#x}",
        )
        if (
            mode in (OperatingMode.MODE0, OperatingMode.MODE1)
            and cs_base + rip > REAL_MODE_RIP_LIMIT
        ):
            self.cov(hc.BLK_RIP_MODE_CHECK)
            self.log.error(
                f"d{vcpu.domain.domid}: bad RIP {rip:#x} for mode "
                f"{int(mode)}"
            )
            vcpu.domain.domain_crash(
                f"bad RIP {rip:#x} for mode {int(mode)}"
            )

    def _vm_entry(self, vcpu: Vcpu) -> None:
        """VM entry: §26.3 checks, event consumption, VMRESUME."""
        assert vcpu.domain is not None

        # Wake a halted vCPU that has (or is being injected) an
        # interrupt: event injection clears the HLT activity state.
        activity = vcpu.read_field(ArchField.GUEST_ACTIVITY_STATE)
        injecting = bool(
            vcpu.read_field(ArchField.VM_ENTRY_INTR_INFO) & (1 << 31)
        )
        if activity == 1 and (self.vlapic(vcpu).irr or injecting):
            vcpu.write_field(ArchField.GUEST_ACTIVITY_STATE, 0)

        # Hardware-side guest-state checks (§26.3 on VT-x, the APM
        # §15.5 VMRUN consistency checks on SVM).
        self.clock.charge("vm_entry_checks")
        violations = (
            vcpu.backend.validate_entry(vcpu)
            if self.entry_checks_enabled else []
        )
        if violations:
            summary = "; ".join(v.check for v in violations[:4])
            self.log.error(
                f"d{vcpu.domain.domid}: VM entry failed: {summary}"
            )
            vcpu.domain.domain_crash(f"VM entry failure: {summary}")

        # Consume any injected event (hardware clears the valid bit).
        intr_info = vcpu.read_field(ArchField.VM_ENTRY_INTR_INFO)
        if intr_info & (1 << 31):
            vcpu.write_field(
                ArchField.VM_ENTRY_INTR_INFO, intr_info & ~(1 << 31)
            )
            vcpu.hvm.pending_event = None

        self.clock.charge("gpr_load")
        vcpu.backend.enter_guest(vcpu)
        self.clock.charge("vm_entry_context_switch")
