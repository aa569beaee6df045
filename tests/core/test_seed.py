"""Unit tests for the seed model and the trace binary format."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.core.seed import (
    ExitMetrics,
    MAX_VMCS_OPS_PER_EXIT,
    SEED_ENTRY_SIZE,
    SeedEntry,
    SeedFlag,
    Trace,
    VMExitRecord,
    VMSeed,
    WORST_CASE_SEED_BYTES,
)
from repro.errors import SeedFormatError
from repro.hypervisor.coverage import CoverageMap
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs_fields import ALL_FIELDS, VmcsField
from repro.x86.registers import GPR

_values = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: Structurally valid entries only: the flag constrains the legal
#: encoding range (hardened unpack() rejects everything else).
entries = st.one_of(
    st.builds(
        SeedEntry,
        flag=st.just(SeedFlag.GPR),
        encoding=st.sampled_from([int(g) for g in GPR]),
        value=_values,
    ),
    st.builds(
        SeedEntry,
        flag=st.sampled_from([SeedFlag.VMCS_READ, SeedFlag.VMCS_WRITE]),
        encoding=st.integers(
            min_value=0, max_value=len(ALL_FIELDS) - 1
        ),
        value=_values,
    ),
)


class TestSeedEntry:
    def test_entry_is_ten_bytes(self):
        # The paper's struct: flag (1B) + encoding (1B) + value (8B).
        assert SEED_ENTRY_SIZE == 10

    @given(entries)
    def test_pack_unpack_roundtrip(self, entry):
        assert SeedEntry.unpack(entry.pack()) == entry

    def test_worst_case_seed_matches_paper(self):
        # 15 GPRs + 32 VMCS ops at 10 bytes = 470 bytes (§VI-D).
        assert WORST_CASE_SEED_BYTES == 470
        assert MAX_VMCS_OPS_PER_EXIT == 32

    def test_gpr_constructor_and_accessor(self):
        entry = SeedEntry.for_gpr(GPR.RDX, 0x42)
        assert entry.gpr is GPR.RDX
        assert entry.flag is SeedFlag.GPR

    def test_vmcs_constructor_and_accessor(self):
        entry = SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, VmcsField.GUEST_CR0, 0x11
        )
        assert entry.vmcs_field is VmcsField.GUEST_CR0

    def test_wrong_accessor_raises(self):
        gpr_entry = SeedEntry.for_gpr(GPR.RAX, 0)
        with pytest.raises(ValueError):
            _ = gpr_entry.vmcs_field
        vmcs_entry = SeedEntry.for_vmcs(
            SeedFlag.VMCS_READ, VmcsField.GUEST_RIP, 0
        )
        with pytest.raises(ValueError):
            _ = vmcs_entry.gpr

    def test_unpack_garbage_raises_format_error(self):
        with pytest.raises(SeedFormatError):
            SeedEntry.unpack(b"\xff" + b"\x00" * 9)  # bad flag


def make_seed():
    return VMSeed(
        exit_reason=int(ExitReason.RDTSC),
        entries=[
            SeedEntry.for_gpr(GPR.RAX, 1),
            SeedEntry.for_gpr(GPR.RCX, 2),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.VM_EXIT_REASON, 16
            ),
            SeedEntry.for_vmcs(
                SeedFlag.VMCS_READ, VmcsField.GUEST_RIP, 0x1000
            ),
        ],
    )


class TestVMSeed:
    def test_reason_property(self):
        assert make_seed().reason is ExitReason.RDTSC

    def test_gprs_extraction(self):
        assert make_seed().gprs() == {GPR.RAX: 1, GPR.RCX: 2}

    def test_vmcs_reads_ordered(self):
        reads = make_seed().vmcs_reads()
        assert reads == [
            (VmcsField.VM_EXIT_REASON, 16),
            (VmcsField.GUEST_RIP, 0x1000),
        ]

    def test_size_bytes(self):
        assert make_seed().size_bytes() == 4 * SEED_ENTRY_SIZE

    def test_pack_unpack_roundtrip(self):
        seed = make_seed()
        clone = VMSeed.unpack_from(io.BytesIO(seed.pack()))
        assert clone.exit_reason == seed.exit_reason
        assert clone.entries == seed.entries

    def test_replace_entry_is_nondestructive(self):
        seed = make_seed()
        mutated = seed.replace_entry(
            0, SeedEntry.for_gpr(GPR.RAX, 999)
        )
        assert seed.entries[0].value == 1
        assert mutated.entries[0].value == 999

    def test_replace_entry_bounds_checked(self):
        with pytest.raises(IndexError):
            make_seed().replace_entry(99, SeedEntry.for_gpr(GPR.RAX, 0))

    def test_truncated_unpack_raises(self):
        blob = make_seed().pack()[:-3]
        with pytest.raises(SeedFormatError):
            VMSeed.unpack_from(io.BytesIO(blob))


class TestTrace:
    def make_trace(self):
        record = VMExitRecord(
            seed=make_seed(),
            metrics=ExitMetrics(
                vmwrites=[(VmcsField.GUEST_RIP, 0x1002)],
                coverage=CoverageMap({("vmx.c", 1), ("vmx.c", 2)}),
                handler_cycles=90_000,
                guest_cycles=1_000_000,
            ),
        )
        return Trace(workload="unit", records=[record, record])

    def test_len_and_seeds(self):
        trace = self.make_trace()
        assert len(trace) == 2
        assert len(trace.seeds()) == 2

    def test_reason_histogram(self):
        assert self.make_trace().reason_histogram() == {"RDTSC": 2}

    def test_cumulative_coverage(self):
        assert self.make_trace().cumulative_coverage() == [2, 2]

    def test_total_guest_cycles(self):
        assert self.make_trace().total_guest_cycles() == 2_000_000

    def test_save_load_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "t.iris"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.workload == "unit"
        assert len(loaded) == 2
        assert loaded.records[0].seed.entries == \
            trace.records[0].seed.entries
        assert loaded.records[0].metrics.coverage == \
            trace.records[0].metrics.coverage
        assert loaded.records[0].metrics.vmwrites == \
            trace.records[0].metrics.vmwrites

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a trace")
        with pytest.raises(SeedFormatError):
            Trace.load(path)

    def test_metrics_cr0_writes(self):
        metrics = ExitMetrics(
            vmwrites=[
                (VmcsField.GUEST_CR0, 0x11),
                (VmcsField.GUEST_RIP, 0x1),
                (VmcsField.GUEST_CR0, 0x80000011),
            ]
        )
        assert metrics.cr0_writes() == [0x11, 0x80000011]


class TestSeedHardening:
    """Corrupted corpus bytes fail at load with SeedFormatError —
    never with a stray ValueError deep inside replay."""

    def test_trailing_bytes_rejected(self):
        blob = make_seed().pack() + b"\x00"
        with pytest.raises(SeedFormatError, match="trailing"):
            VMSeed.unpack_from(io.BytesIO(blob))

    def test_out_of_range_gpr_encoding_rejected(self):
        import struct

        raw = struct.pack("<BBQ", int(SeedFlag.GPR), 200, 0)
        with pytest.raises(SeedFormatError, match="out of range"):
            SeedEntry.unpack(raw)

    def test_out_of_range_field_index_rejected(self):
        import struct

        raw = struct.pack(
            "<BBQ", int(SeedFlag.VMCS_READ), 255, 0
        )
        assert 255 >= len(ALL_FIELDS)
        with pytest.raises(SeedFormatError, match="out of range"):
            SeedEntry.unpack(raw)

    def test_bad_entry_inside_seed_blob_rejected(self):
        import struct

        entry = struct.pack("<BBQ", int(SeedFlag.GPR), 99, 0)
        blob = struct.pack("<HH", 16, 1) + entry
        with pytest.raises(SeedFormatError):
            VMSeed.unpack_from(io.BytesIO(blob))

    def test_metrics_blob_missing_key_rejected(self):
        with pytest.raises(SeedFormatError, match="metrics"):
            Trace._unpack_metrics(b'{"vmwrites": []}')

    def test_metrics_blob_bad_field_number_rejected(self):
        blob = (
            b'{"vmwrites": [[9999, 1]], "coverage": [],'
            b' "handler_cycles": 0, "guest_cycles": 0}'
        )
        with pytest.raises(SeedFormatError, match="metrics"):
            Trace._unpack_metrics(blob)

    def test_metrics_blob_not_json_rejected(self):
        with pytest.raises(SeedFormatError):
            Trace._unpack_metrics(b"\xff\xfe not json")

    def test_corrupt_trace_file_rejected(self, tmp_path):
        trace = Trace(
            workload="unit",
            records=[VMExitRecord(seed=make_seed(),
                                  metrics=ExitMetrics())],
        )
        path = tmp_path / "t.iris"
        trace.save(path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # corrupt inside the metrics JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(SeedFormatError):
            Trace.load(path)
