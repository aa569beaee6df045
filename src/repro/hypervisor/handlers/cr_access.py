"""Control-register access handler (reason 28) — the paper's worked
example (Fig. 2).

The flow mirrors Xen's ``vmx_cr_access`` + ``hvm_set_cr0/3/4``: decode
the qualification, read the source GPR from the hypervisor-saved GPRs,
consult the guest/host mask and read shadow, take per-transition paths
(the protected-mode switch of §III lives here), update the hypervisor's
cached guest mode, and VMWRITE the new guest state back.
"""

from __future__ import annotations

from repro.hypervisor.coverage import BlockAllocator
from repro.hypervisor.emulate import load_descriptor
from repro.hypervisor.handlers.common import (
    advance_rip,
    inject_gp,
)
from repro.hypervisor.vcpu import Vcpu
from repro.vmx.exit_qualification import (
    CrAccessQualification,
    CrAccessType,
)
from repro.arch.fields import ArchField
from repro.x86.registers import GPR, Cr0, Cr4, CR0_RESERVED, CR4_RESERVED
from repro.x86.cpumodes import OperatingMode

_vmx = BlockAllocator("arch/x86/hvm/vmx/vmx.c", first_line=2000)
_hvm = BlockAllocator("arch/x86/hvm/hvm.c", first_line=100)

BLK_DECODE = _vmx.block(8)  # vmx_cr_access qualification decode
BLK_MOV_FROM_CR = _vmx.block(5)
BLK_CLTS = _vmx.block(4)
BLK_LMSW = _vmx.block(7)
BLK_UNSUPPORTED_CR = _vmx.block(4)  # CR8 without TPR shadow, CR9+ -> BUG

BLK_SET_CR0_COMMON = _hvm.block(12)  # hvm_set_cr0 entry + reserved check
BLK_CR0_RESERVED = _hvm.block(4)  # reserved bits -> #GP
BLK_CR0_PE_SET = _hvm.block(10)  # real -> protected transition
BLK_CR0_PE_CLEAR = _hvm.block(6)  # protected -> real
BLK_CR0_PG_SET = _hvm.block(14)  # enable paging (PDPTE/segment reload)
BLK_CR0_PG_CLEAR = _hvm.block(7)
BLK_CR0_CACHE = _hvm.block(5)  # CD/NW changes
BLK_CR0_TS = _hvm.block(4)  # TS toggles (lazy FPU)
BLK_CR0_AM = _hvm.block(3)
BLK_CR0_NOCHANGE = _hvm.block(3)
BLK_UPDATE_GUEST_MODE = _hvm.block(6)  # cached-mode update (Fig. 2 step 3)
BLK_SET_CR3 = _hvm.block(8)
BLK_CR3_PGE_FLUSH = _hvm.block(4)
BLK_SET_CR4_COMMON = _hvm.block(9)
BLK_CR4_RESERVED = _hvm.block(4)
BLK_CR4_PAE = _hvm.block(5)
BLK_CR4_PSE = _hvm.block(4)
BLK_CR4_VMXE_REJECT = _hvm.block(4)  # guest VMXE -> #GP (no nested virt)

#: GPR operand order used by the CR-access qualification (SDM 27-3).
_QUAL_GPR_ORDER: tuple[GPR, ...] = (
    GPR.RAX, GPR.RCX, GPR.RDX, GPR.RBX,
    GPR.RAX,  # index 4 is RSP, stored in the VMCS; modelled as RAX slot
    GPR.RBP, GPR.RSI, GPR.RDI,
    GPR.R8, GPR.R9, GPR.R10, GPR.R11,
    GPR.R12, GPR.R13, GPR.R14, GPR.R15,
)


def _set_cr0(hv, vcpu: Vcpu, value: int) -> None:
    """``hvm_set_cr0`` analogue with per-transition instrumentation."""
    hv.cov(BLK_SET_CR0_COMMON)
    if value & CR0_RESERVED:
        hv.cov(BLK_CR0_RESERVED)
        inject_gp(hv, vcpu)
        return

    old = hv.vmread(vcpu, ArchField.GUEST_CR0)
    changed = old ^ value

    if not changed:
        hv.cov(BLK_CR0_NOCHANGE)
        advance_rip(hv, vcpu)
        return

    if changed & Cr0.PE:
        if value & Cr0.PE:
            hv.cov(BLK_CR0_PE_SET)
            # Entering protected mode: validate the new CS through the
            # GDT the guest just built (guest-memory dependence — the
            # replay-divergence source).  Validation only: the guest
            # reloads CS itself with the far jump that follows.
            cs_selector = hv.vmread(vcpu, ArchField.GUEST_CS_SELECTOR)
            if cs_selector:
                load_descriptor(hv, vcpu, cs_selector)
        else:
            hv.cov(BLK_CR0_PE_CLEAR)

    if changed & Cr0.PG:
        if value & Cr0.PG:
            hv.cov(BLK_CR0_PG_SET)
            # Entering paged mode with EFER.LME set activates IA-32e
            # mode: the hardware raises EFER.LMA, mirrored here.
            efer = hv.vmread(vcpu, ArchField.GUEST_IA32_EFER)
            if efer & (1 << 8):  # LME
                hv.vmwrite(
                    vcpu, ArchField.GUEST_IA32_EFER, efer | (1 << 10)
                )
            cr4 = hv.vmread(vcpu, ArchField.GUEST_CR4)
            if cr4 & Cr4.PAE:
                # PAE paging activation: the *processor* reloads the
                # four PDPTE fields from the page CR3 points at when
                # the VM entry executes (SDM §26.3.1.6) — a hardware
                # action, so the raw VMCS write path, not Xen's
                # instrumented vmwrite(); it never appears in the
                # VMWRITE accuracy metric.
                cr3 = hv.vmread(vcpu, ArchField.GUEST_CR3)
                hv.clock.charge("guest_mem_access")
                domain = vcpu.domain
                assert domain is not None
                base = cr3 & ~0x1F
                if base + 32 > domain.memory.size_bytes:
                    # Xen's vmx_load_pdptrs(): a PDPTE page the guest
                    # does not have (e.g. a mutated CR3) crashes the
                    # domain instead of faulting the hypervisor.
                    hv.log.error(
                        f"d{domain.domid}: bad PDPTE page at {base:#x}"
                    )
                    domain.domain_crash(
                        f"PDPTE load beyond guest memory: {base:#x}"
                    )
                for i in range(4):
                    pdpte = domain.memory.read_u64(base + 8 * i)
                    vcpu.write_field(
                        ArchField(int(ArchField.GUEST_PDPTE0) + 2 * i),
                        pdpte,
                    )
        else:
            hv.cov(BLK_CR0_PG_CLEAR)
            efer = hv.vmread(vcpu, ArchField.GUEST_IA32_EFER)
            if efer & (1 << 10):  # leaving IA-32e mode drops LMA
                hv.vmwrite(
                    vcpu, ArchField.GUEST_IA32_EFER, efer & ~(1 << 10)
                )

    if changed & (Cr0.CD | Cr0.NW):
        hv.cov(BLK_CR0_CACHE)
    if changed & Cr0.TS:
        hv.cov(BLK_CR0_TS)
    if changed & Cr0.AM:
        hv.cov(BLK_CR0_AM)

    # Fig. 2 steps 3-4: update internal variables, then the VMCS.
    hv.cov(BLK_UPDATE_GUEST_MODE)
    mode = vcpu.sync_mode_from_cr0(value)
    hv.vmwrite(vcpu, ArchField.GUEST_CR0, value)
    hv.vmwrite(vcpu, ArchField.CR0_READ_SHADOW, value)
    if mode is OperatingMode.MODE1:
        # Back to real mode: reload flat real-mode segments.
        hv.vmwrite(vcpu, ArchField.GUEST_CS_AR_BYTES, 0x9B)
    advance_rip(hv, vcpu)


def _set_cr3(hv, vcpu: Vcpu, value: int) -> None:
    hv.cov(BLK_SET_CR3)
    vcpu.hvm.guest_cr3 = value
    hv.vmwrite(vcpu, ArchField.GUEST_CR3, value)
    cr4 = hv.vmread(vcpu, ArchField.GUEST_CR4)
    if cr4 & Cr4.PGE:
        hv.cov(BLK_CR3_PGE_FLUSH)
    advance_rip(hv, vcpu)


def _set_cr4(hv, vcpu: Vcpu, value: int) -> None:
    hv.cov(BLK_SET_CR4_COMMON)
    if value & CR4_RESERVED:
        hv.cov(BLK_CR4_RESERVED)
        inject_gp(hv, vcpu)
        return
    if value & Cr4.VMXE:
        # The modelled deployment does not expose nested VMX.
        hv.cov(BLK_CR4_VMXE_REJECT)
        inject_gp(hv, vcpu)
        return
    old = hv.vmread(vcpu, ArchField.GUEST_CR4)
    if (old ^ value) & Cr4.PAE:
        hv.cov(BLK_CR4_PAE)
    if (old ^ value) & Cr4.PSE:
        hv.cov(BLK_CR4_PSE)
    vcpu.hvm.hw_cr4 = value
    hv.vmwrite(vcpu, ArchField.GUEST_CR4, value)
    hv.vmwrite(vcpu, ArchField.CR4_READ_SHADOW, value)
    advance_rip(hv, vcpu)


def handle_cr_access(hv, vcpu: Vcpu) -> None:
    """Reason 28: control-register access."""
    hv.cov(BLK_DECODE)
    qual = CrAccessQualification.unpack(
        hv.vmread(vcpu, ArchField.EXIT_QUALIFICATION)
    )

    if qual.access_type is CrAccessType.MOV_TO_CR:
        value = vcpu.regs.read_gpr(_QUAL_GPR_ORDER[qual.gpr])
        if qual.cr == 0:
            _set_cr0(hv, vcpu, value)
        elif qual.cr == 3:
            _set_cr3(hv, vcpu, value)
        elif qual.cr == 4:
            _set_cr4(hv, vcpu, value)
        else:
            # CR8 exits only occur without a TPR shadow; anything else
            # is architecturally impossible — Xen BUG()s here, which is
            # one of the fuzzer's hypervisor-crash targets.
            hv.cov(BLK_UNSUPPORTED_CR)
            hv.bug_on(
                qual.cr != 8,
                f"vmx_cr_access: impossible CR{qual.cr} exit",
            )
            advance_rip(hv, vcpu)
    elif qual.access_type is CrAccessType.MOV_FROM_CR:
        hv.cov(BLK_MOV_FROM_CR)
        if qual.cr == 3:
            value = vcpu.hvm.guest_cr3
        elif qual.cr == 0:
            value = hv.vmread(vcpu, ArchField.CR0_READ_SHADOW)
        else:
            value = hv.vmread(vcpu, ArchField.CR4_READ_SHADOW)
        vcpu.regs.write_gpr(_QUAL_GPR_ORDER[qual.gpr], value)
        advance_rip(hv, vcpu)
    elif qual.access_type is CrAccessType.CLTS:
        hv.cov(BLK_CLTS)
        cr0 = hv.vmread(vcpu, ArchField.GUEST_CR0)
        new_cr0 = cr0 & ~int(Cr0.TS)
        vcpu.sync_mode_from_cr0(new_cr0)
        hv.vmwrite(vcpu, ArchField.GUEST_CR0, new_cr0)
        hv.vmwrite(vcpu, ArchField.CR0_READ_SHADOW, new_cr0)
        advance_rip(hv, vcpu)
    else:  # LMSW: legacy 16-bit load of CR0's low word
        hv.cov(BLK_LMSW)
        cr0 = hv.vmread(vcpu, ArchField.GUEST_CR0)
        new_cr0 = (cr0 & ~0xF) | (qual.lmsw_source & 0xF)
        _set_cr0(hv, vcpu, new_cr0)
