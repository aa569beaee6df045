"""Unit tests for the console log and the simulated clock."""

import copy

import pytest

from repro.errors import HypervisorCrash
from repro.hypervisor.clock import Clock
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.xenlog import LogLevel, XenLog


class TestXenLog:
    def test_printk_appends(self):
        log = XenLog()
        log.printk("hello")
        assert len(log) == 1
        assert "hello" in log.tail(1)[0]

    def test_ring_is_bounded(self):
        log = XenLog(capacity=4)
        for i in range(10):
            log.printk(f"msg{i}")
        assert len(log) == 4
        assert "msg9" in log.tail(1)[0]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            XenLog(capacity=0)

    def test_grep(self):
        log = XenLog()
        log.printk("bad RIP 0x1000 for mode 0")
        log.printk("all good")
        assert len(log.grep("bad RIP")) == 1

    def test_panic_raises_with_log_tail(self):
        log = XenLog()
        log.printk("context before crash")
        with pytest.raises(HypervisorCrash) as excinfo:
            log.panic("assertion failed")
        assert excinfo.value.reason == "assertion failed"
        assert any("context before" in line
                   for line in excinfo.value.log_tail)

    def test_clock_binding_timestamps_entries(self):
        log = XenLog()
        log.bind_clock(lambda: 42)
        log.printk("x")
        assert log.entries()[0].tsc == 42

    def test_levels_format_differently(self):
        log = XenLog()
        log.warn("careful")
        log.error("broken")
        formatted = log.tail(2)
        assert "[warn]" in formatted[0]
        assert "[error]" in formatted[1]

    def test_clear(self):
        log = XenLog()
        log.printk("x")
        log.clear()
        assert len(log) == 0


class TestClock:
    def test_advance(self):
        clock = Clock()
        clock.advance(100)
        assert clock.now == 100

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_charge_uses_cost_model(self):
        clock = Clock()
        spent = clock.charge("vmread")
        assert clock.now == spent == clock.costs.cost("vmread")

    def test_charge_multiple(self):
        clock = Clock()
        clock.charge("vmread", times=3)
        assert clock.now == 3 * clock.costs.cost("vmread")

    def test_seconds_conversion(self):
        clock = Clock()
        clock.advance(3_600_000_000)
        assert clock.seconds() == pytest.approx(1.0)

    def test_rdtsc_charges_probe_cost(self):
        clock = Clock()
        value = clock.rdtsc()
        assert value == clock.costs.cost("rdtsc_probe")


def test_cloned_host_log_stamps_the_clones_tsc():
    """A deep-copied hypervisor's console ring reads its *own* clock
    (a lambda timestamp source would keep reading the original's)."""
    hv = Hypervisor()
    clone = copy.deepcopy(hv, {id(hv.clock.costs): hv.clock.costs})
    clone.clock.advance(12_345)
    clone.log.printk("on the clone")
    hv.log.printk("on the original")
    assert clone.log.tail(1) == ["(XEN) t=12345 on the clone"]
    assert hv.log.tail(1) == ["(XEN) t=0 on the original"]
