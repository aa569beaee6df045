"""Extensions: the paper's §IX future-work items, implemented.

* **Batched seed submission** — "Submitting VM seeds in batch ...
  could increase the overall replay throughput": measures the gap to
  the ideal 50K exits/s with and without batching.
* **Intel PT coverage** — "Intel Processor Trace allows recording
  complete control flow with low-performance overhead": compares the
  inline cost of the gcov instrumentation vs the PT backend.
* **Coverage-guided fuzzing** — beyond the PoC's naive bit-flip: the
  same fuzz loop driving the smart engine's evolutionary queue,
  compared against the naive fuzzer at equal execution budget.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.analysis import ideal_throughput_gap, render_table
from repro.core.manager import IrisManager
from repro.fuzz.fuzzer import IrisFuzzer
from repro.fuzz.mutations import MutationArea
from repro.fuzz.testcase import FuzzTestCase, plan_test_cases
from repro.fuzz.triage import triage
from repro.vmx.exit_reasons import ExitReason


def test_extension_batched_replay(cpu_experiment, benchmark):
    manager = cpu_experiment.manager
    session = cpu_experiment.session
    seeds = session.trace.seeds()

    def run(batched: bool) -> float:
        replayer = manager.create_dummy_vm(
            from_snapshot=session.snapshot
        )
        start = manager.hv.clock.now
        if batched:
            replayer.submit_batch(seeds)
        else:
            for seed in seeds:
                replayer.submit(seed)
        seconds = manager.hv.clock.seconds(
            manager.hv.clock.now - start
        )
        return len(seeds) / seconds

    single = run(batched=False)
    batched = run(batched=True)
    benchmark.pedantic(lambda: run(batched=True), rounds=1,
                       iterations=1)

    ideal = 48_000.0
    print()
    print(render_table(
        ["submission", "throughput", "gap to ideal"],
        [
            ("one-by-one (paper's v1)", f"{single:,.0f} exits/s",
             f"{ideal_throughput_gap(ideal, single).percentage_difference:.0f}%"),
            ("batched (§IX extension)", f"{batched:,.0f} exits/s",
             f"{ideal_throughput_gap(ideal, batched).percentage_difference:.0f}%"),
        ],
        title="Extension — batched seed submission",
    ))
    assert batched > single * 1.2
    assert ideal_throughput_gap(ideal, batched).percentage_difference \
        < ideal_throughput_gap(ideal, single).percentage_difference


def test_extension_intel_pt_overhead(benchmark):
    def per_exit_median(backend: str) -> float:
        manager = IrisManager()
        manager.hv.coverage_backend = backend
        manager.hv.stats.keep_history = True
        manager.record_workload("cpu-bound", n_exits=500,
                                precondition=None)
        return statistics.median(
            cycles for _, cycles in manager.hv.stats.history
        )

    gcov = per_exit_median("gcov")
    intel_pt = per_exit_median("intel-pt")
    benchmark.pedantic(lambda: per_exit_median("intel-pt"),
                       rounds=1, iterations=1)

    print()
    print(render_table(
        ["coverage backend", "median cycles/exit", "vs gcov"],
        [
            ("gcov instrumentation (paper)", f"{gcov:.0f}", "-"),
            ("Intel PT (§IX extension)", f"{intel_pt:.0f}",
             f"{100 * (1 - intel_pt / gcov):.2f}% cheaper"),
        ],
        title="Extension — hardware-trace coverage inline overhead",
    ))
    assert intel_pt < gcov


def test_extension_coverage_guided(cpu_experiment, benchmark):
    manager = cpu_experiment.manager
    session = cpu_experiment.session
    cases = plan_test_cases(
        session.trace, [ExitReason.RDTSC],
        areas=(MutationArea.VMCS,), n_mutations=1,
        rng=random.Random(17),
    )
    case = cases[0]
    budget = 400

    def run(engine: str):
        return IrisFuzzer(manager, rng=random.Random(5)).run_test_case(
            FuzzTestCase(trace=case.trace, seed_index=case.seed_index,
                         area=case.area, n_mutations=budget,
                         engine=engine),
            from_snapshot=session.snapshot,
        )

    guided = run("smart")
    naive = run("poc")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    crash_report = triage(guided.failures)
    print()
    print(render_table(
        ["fuzzer", "executions", "new LOC", "crashes",
         "unique crashes"],
        [
            ("naive bit-flip (paper PoC)", naive.mutations_run,
             naive.new_loc,
             naive.vm_crashes + naive.hypervisor_crashes,
             len(triage(naive.failures).buckets)),
            ("coverage-guided (§IX extension)", guided.mutations_run,
             guided.new_loc,
             guided.vm_crashes + guided.hypervisor_crashes,
             crash_report.unique_crashes),
        ],
        title="Extension — coverage-guided vs naive fuzzing "
              f"(equal budget of {budget} executions)",
    ))
    print(render_table(
        ["kind", "cause", "count", "seed reasons", "example"],
        crash_report.rows(),
        title="Crash triage (guided campaign)",
    ))

    assert guided.new_loc >= naive.new_loc
    assert crash_report.unique_crashes >= 1
    assert crash_report.unique_crashes <= crash_report.total_failures