"""The per-exit coverage hand-off: bitmaps out, byte-identical formats.

Replay results and recorded metrics carry a copy of the hypervisor's
per-exit :class:`CoverageMap`, not a set of ``(file, line)`` tuples.
These tests pin the two things that change could break silently:

* aliasing — the per-exit map is reset and refilled in place on every
  dispatch, so a handed-out map that shared its storage would change
  under its holder;
* byte identity — corpus fingerprints and the IRISTRC1/IRISTRC2
  metrics encodings must be exactly what the tuple-set code produced.
  The tuple-set encoders are kept here as the reference.
"""

from __future__ import annotations

import hashlib
import json
import struct

from hypothesis import given, settings, strategies as st

from repro.arch.fields import FIELD_INDEX
from repro.core.manager import IrisManager
from repro.core.record import Recorder
from repro.core.replay import ReplayOutcome
from repro.core.seed import ExitMetrics, Trace
from repro.core.tracestore import pack_metrics, unpack_metrics
from repro.fuzz.corpus import coverage_fingerprint
from repro.hypervisor.coverage import (
    MAX_COVERAGE_LINE,
    CoverageMap,
    set_bits,
)
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs_fields import VmcsField

from tests.hypervisor.util import deliver

# ---- the tuple-set reference encoders ---------------------------------


def reference_fingerprint(lines: frozenset[tuple[str, int]]) -> str:
    digest = hashlib.sha256()
    for file, line in sorted(lines):
        digest.update(f"{file}:{line};".encode())
    return digest.hexdigest()[:16]


def reference_pack(
    metrics: ExitMetrics,
    lines: frozenset[tuple[str, int]],
    name_table: dict[str, int],
) -> bytes:
    """IRISTRC2 metrics blob from a tuple set: new names interned in
    sorted-name order, pairs as ``line << 32 | id`` keys, ascending."""
    keys = []
    for name, line in sorted(lines):
        name_id = name_table.setdefault(name, len(name_table))
        keys.append(line << 32 | name_id)
    keys.sort()
    writes = metrics.vmwrites
    flat = [x for f, v in writes for x in (FIELD_INDEX[f], v)]
    return struct.pack(
        "<H" + "HQ" * len(writes) + "I" + "Q" * len(keys) + "QQ",
        len(writes), *flat, len(keys), *keys,
        metrics.handler_cycles, metrics.guest_cycles,
    )


def reference_v1_coverage(lines: frozenset[tuple[str, int]]) -> list:
    return sorted([f, l] for f, l in lines)


# ---- strategies -------------------------------------------------------

_files = st.sampled_from([
    "arch/x86/hvm/vmx/vmx.c",
    "arch/x86/hvm/hvm.c",
    "arch/x86/hvm/vlapic.c",
    "arch/x86/mm/p2m-ept.c",
    "a.c",
    "é/ü.c",
])
_lines = st.one_of(
    st.integers(min_value=0, max_value=6100),
    st.integers(min_value=0, max_value=MAX_COVERAGE_LINE),
)
#: Whole blocks, as handlers hit them: contiguous runs of lines.
_blocks = st.tuples(_files, _lines, st.integers(1, 40)).map(
    lambda b: frozenset(
        (b[0], line)
        for line in range(b[1], min(b[1] + b[2], MAX_COVERAGE_LINE + 1))
    )
)
line_sets = st.one_of(
    st.frozensets(st.tuples(_files, _lines), max_size=40),
    st.lists(_blocks, max_size=6).map(
        lambda blocks: frozenset().union(*blocks)
    ),
)
_values = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSetBits:
    @given(bits=st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_lists_the_set_bits_ascending(self, bits):
        assert set_bits(bits) == [
            line for line in range(bits.bit_length()) if bits >> line & 1
        ]


class TestByteIdentity:
    @settings(max_examples=300, deadline=None)
    @given(lines=line_sets)
    def test_fingerprint_matches_the_tuple_set_digest(self, lines):
        assert coverage_fingerprint(CoverageMap(lines)) == \
            reference_fingerprint(lines)

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                line_sets,
                st.lists(
                    st.tuples(
                        st.sampled_from(list(VmcsField)[:8]), _values
                    ),
                    max_size=4,
                ),
                _values, _values,
            ),
            min_size=1, max_size=5,
        ),
    )
    def test_pack_metrics_matches_the_tuple_set_encoding(self, records):
        # One name table across records, as a trace writer keeps it.
        table: dict[str, int] = {}
        reference_table: dict[str, int] = {}
        for lines, writes, handler, guest in records:
            metrics = ExitMetrics(
                vmwrites=writes, coverage=CoverageMap(lines),
                handler_cycles=handler, guest_cycles=guest,
            )
            blob = pack_metrics(metrics, table)
            assert blob == reference_pack(metrics, lines, reference_table)
            assert table == reference_table
            decoded = unpack_metrics(blob, tuple(table))
            assert decoded.coverage.lines() == lines

    @settings(max_examples=200, deadline=None)
    @given(lines=line_sets)
    def test_v1_metrics_json_matches_the_tuple_set_encoding(self, lines):
        metrics = ExitMetrics(coverage=CoverageMap(lines))
        payload = json.loads(Trace._pack_metrics(metrics))
        assert payload["coverage"] == reference_v1_coverage(lines)
        decoded = Trace._unpack_metrics(Trace._pack_metrics(metrics))
        assert decoded.coverage.lines() == lines


# ---- aliasing ---------------------------------------------------------


class TestNoAliasing:
    def test_replay_result_survives_the_next_exits(self, cpu_session):
        _, session = cpu_session
        replayer = IrisManager().create_dummy_vm(
            from_snapshot=session.snapshot
        )
        seen = []
        for record in session.trace.records[:60]:
            result = replayer.submit(record.seed)
            assert result.outcome is ReplayOutcome.OK
            assert result.coverage is not replayer.hv.exit_coverage
            seen.append((result, result.coverage.bitmaps()))
        for result, bitmaps in seen:
            assert result.coverage.bitmaps() == bitmaps
        # The exits differ, so shared storage would have shown.
        assert len({
            tuple(sorted(bitmaps.items())) for _, bitmaps in seen
        }) > 1

    def test_recorded_metrics_survive_the_next_exit(
        self, hv, hvm_domain, vcpu
    ):
        recorder = Recorder(hv, vcpu, workload="unit")
        recorder.start()
        try:
            deliver(hv, vcpu, ExitReason.CPUID)
            first = recorder.trace.records[0].metrics.coverage
            bitmaps = first.bitmaps()
            assert first is not hv.exit_coverage
            deliver(hv, vcpu, ExitReason.RDTSC)
        finally:
            recorder.stop()
            recorder.detach()
        second = recorder.trace.records[1].metrics.coverage
        assert first.bitmaps() == bitmaps
        assert second != first
        assert second == hv.exit_coverage

    def test_holder_mutation_does_not_reach_the_hypervisor(
        self, cpu_session
    ):
        _, session = cpu_session
        replayer = IrisManager().create_dummy_vm(
            from_snapshot=session.snapshot
        )
        result = replayer.submit(session.trace.records[0].seed)
        live = replayer.hv.exit_coverage.bitmaps()
        result.coverage.merge(CoverageMap([("held.c", 7)]))
        assert replayer.hv.exit_coverage.bitmaps() == live
