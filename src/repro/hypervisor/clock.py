"""Simulated time-stamp counter driven by the cost model.

All simulated time flows through one :class:`Clock` per host: guest
instruction streams, hardware context switches, handler blocks, IRIS
record/replay overheads.  Timing metrics (Fig. 9/10) are differences of
:attr:`Clock.now` readings, exactly like the RDTSC probes the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.x86.costs import CostModel, DEFAULT_COSTS


@dataclass
class Clock:
    """A monotonically increasing cycle counter."""

    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    now: int = 0

    def read(self) -> int:
        """The current TSC, free of charge (log and trace timestamps).

        A bound method rather than a closure so it can be handed out as
        a timestamp source: a deep-copied host rebinds it to the copy's
        own clock, where a lambda would keep reading the original's.
        """
        return self.now

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("the TSC cannot move backwards")
        self.now += cycles

    def charge(self, name: str, times: int = 1) -> int:
        """Advance by the cost of ``times`` named micro-operations."""
        cycles = self.costs.cost(name) * times
        self.advance(cycles)
        return cycles

    def seconds(self, cycles: int | None = None) -> float:
        """Convert cycles (default: the current reading) to seconds."""
        return self.costs.seconds(self.now if cycles is None else cycles)

    def rdtsc(self) -> int:
        """A guest-visible RDTSC: charges the probe cost, returns TSC."""
        self.charge("rdtsc_probe")
        return self.now
