"""``iris-fuzz``: run the PoC fuzzing campaign (paper §VII).

Example::

    iris-fuzz -w cpu-bound -n 800 --mutations 500 \
        --reasons RDTSC,CPUID,VMCALL
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis import render_table
from repro.arch.backend import BACKEND_NAMES
from repro.core.manager import IrisManager
from repro.errors import CampaignStoreError, StoreMismatchError
from repro.fuzz.mutation_engine import ENGINE_NAMES
from repro.fuzz.mutations import MUTATION_RULES, MutationArea
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.testcase import plan_test_cases
from repro.guest.workloads import WorkloadName
from repro.obs import flight_summary
from repro.obs.cliobs import add_obs_options, cli_observability
from repro.vmx.exit_reasons import ExitReason

#: Default exit-reason grid: the rows of Table I.
DEFAULT_REASONS = (
    "EXTERNAL_INTERRUPT", "INTERRUPT_WINDOW", "CPUID", "HLT", "RDTSC",
    "VMCALL", "CR_ACCESS", "IO_INSTRUCTION", "EPT_VIOLATION",
)

#: Pinned exit-code contract (tests/fuzz/test_fuzz_cli.py).  A campaign
#: that *finds crashes* and one that *aborts mid-way* used to both be
#: indistinguishable from a clean run (everything returned 0); scripts
#: driving long campaigns need the distinction.
EXIT_OK = 0              # campaign finished, no crashes found
EXIT_NO_SEEDS = 1        # nothing to fuzz (no matching seeds)
EXIT_USAGE = 2           # bad arguments / store misuse
EXIT_CRASHES_FOUND = 3   # campaign finished and found crashes
EXIT_ABORTED = 4         # campaign stopped before completing its plan
EXIT_DIVERGENCES_FOUND = 5  # no crashes, but cross-arch divergences
#                             (crashes take precedence when both occur)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iris-fuzz",
        description="IRIS-based fuzzer prototype (paper Table I)",
    )
    parser.add_argument(
        "-w", "--workload", default="cpu-bound",
        choices=[w.value for w in WorkloadName],
    )
    parser.add_argument("-n", "--exits", type=int, default=1000,
                        help="trace length to record first")
    parser.add_argument("--mutations", type=int, default=1000,
                        help="mutations per test case (paper: 10000)")
    parser.add_argument(
        "--reasons", default=",".join(DEFAULT_REASONS),
        help="comma-separated ExitReason names to target",
    )
    parser.add_argument(
        "--area", choices=["vmcs", "gpr", "both"], default="both",
        help="seed area to mutate",
    )
    parser.add_argument(
        "--rule", choices=sorted(MUTATION_RULES), default=None,
        help="PoC mutator (default: bit-flip).  Only meaningful with "
             "--engine poc: the smart engine runs its own staged "
             "pipeline, so combining --rule with --engine smart is a "
             "usage error rather than a silently ignored flag.",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="poc",
        help="mutation engine: 'poc' (default) is the paper's flat "
             "single-rule stack; 'smart' is the structure-aware "
             "staged pipeline (dictionary/structural/havoc/splice "
             "with a cost-aware power schedule).  Both honor the "
             "same determinism contract: results are byte-identical "
             "for any --jobs value, transport, or --resume.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        # Explicit dest: the obs layer's --trace flag already claims
        # the derived name "trace_out" (add_obs_options).
        "--trace-out", dest="campaign_trace_out", metavar="FILE",
        default=None,
        help="also stream the recorded campaign-input trace to FILE "
             "in the seekable IRISTRC2 format (inspect later with "
             "`iris inspect`/`iris stats`, or re-fuzz without "
             "re-recording)",
    )
    parser.add_argument(
        "--arch", choices=list(BACKEND_NAMES), default="vmx",
        help="virtualization backend to fuzz on (paper §IX)",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="cross-arch differential oracle: replay every mutant on "
             "both backends (vmx natively, svm through the seed "
             "translation) and report behavioral divergences — "
             "disagreeing crash outcomes, echo-write sets, or "
             "noise-filtered coverage deltas.  Requires --arch vmx; "
             "exits 5 when divergences (and no crashes) are found.",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the campaign (default 1: shards "
             "run inline).  Results are independent of "
             "the worker count: each cell's RNG is derived from "
             "(campaign seed, cell index), so --jobs only changes "
             "wall-clock time.",
    )
    parser.add_argument(
        "--shards-per-cell", type=int, default=1,
        help="split each cell's mutation budget across this many "
             "shards (more pool parallelism for few-cell campaigns)",
    )
    remote = parser.add_argument_group(
        "remote workers",
        "ship waves to socket-attached iris-worker processes instead "
        "of the local worker pool; shards are hermetic, so the "
        "campaign output is byte-identical either way",
    )
    remote.add_argument(
        "--workers", metavar="HOST:PORT[,HOST:PORT,...]", default=None,
        help="comma-separated iris-worker addresses (start each with "
             "`iris-worker --port 0` and read the assigned port from "
             "its banner); --jobs is ignored while remote workers "
             "are attached",
    )
    group = parser.add_argument_group(
        "resumable campaigns",
        "persist per-wave checkpoints to a SQLite store and continue "
        "an interrupted campaign exactly where it left off",
    )
    group.add_argument(
        "--store", metavar="FILE", default=None,
        help="SQLite campaign store; every completed wave is "
             "checkpointed transactionally, so an interrupted "
             "campaign loses at most the wave in flight",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="continue the campaign held in --store from its last "
             "completed wave (recording parameters are restored from "
             "the store; the final output is byte-identical to an "
             "uninterrupted run)",
    )
    group.add_argument(
        "--wave-size", type=int, default=1,
        help="cells per checkpointed wave (default 1); purely a "
             "checkpoint-granularity knob — results are identical "
             "for any value",
    )
    group.add_argument(
        # Fault-injection hook for the crash-recovery test suite:
        # abort (after checkpointing) once wave N commits.
        "--crash-after-wave", type=int, default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--no-fast-reset", dest="fast_reset", action="store_false",
        help="disable the in-place dummy-VM reset and delta snapshot "
             "restore; every test case rebuilds the dummy VM from "
             "scratch (the pre-fast-reset behavior, kept as an escape "
             "hatch and for A/B measurements — results are identical "
             "either way, only slower)",
    )
    add_obs_options(parser)
    return parser


def _restore_stored_args(args: argparse.Namespace) -> bool | None:
    """Overwrite the request with the stored campaign's parameters.

    Resume must re-record the *identical* trace and re-plan the
    identical cells, so the stored config — not whatever flags this
    invocation happened to pass — is authoritative for everything in
    the campaign's deterministic identity.  Returns the stored
    ``collect_metrics`` flag.
    """
    from repro.campaign import CampaignStore
    from repro.errors import CorruptStoreError

    with CampaignStore(args.store) as probe:
        if not probe.initialized:
            raise StoreMismatchError(
                f"campaign store {args.store!r} holds no campaign "
                "to resume"
            )
        # Validate *up front*, before the expensive re-record: a torn
        # store used to sail through this probe and only explode
        # mid-wave, after minutes of recording.  Fail in the first
        # second instead, and say what to do about it.
        try:
            probe.validate()
        except CorruptStoreError as exc:
            raise CorruptStoreError(
                f"{exc} — resume refused before any work was done; "
                "restore the store file from a backup, or start a "
                "fresh campaign with a new --store path"
            ) from exc
        stored = probe.config()
    extra = dict(stored.extra)
    args.workload = extra["workload"]
    args.exits = int(extra["exits"])
    args.mutations = int(extra["mutations"])
    args.reasons = extra["reasons"]
    args.area = extra["area"]
    args.rule = extra["rule"]
    args.seed = int(extra["seed"])
    args.arch = stored.arch
    args.fast_reset = stored.fast_reset
    args.shards_per_cell = stored.shards_per_cell
    args.wave_size = stored.wave_size
    args.differential = stored.differential
    args.engine = stored.engine
    return stored.collect_metrics


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    if args.shards_per_cell < 1:
        print(
            f"--shards-per-cell must be >= 1, got "
            f"{args.shards_per_cell}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.mutations < 1:
        print(
            f"--mutations must be >= 1, got {args.mutations}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.wave_size < 1:
        print(
            f"--wave-size must be >= 1, got {args.wave_size}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.resume and args.store is None:
        print("--resume requires --store", file=sys.stderr)
        return EXIT_USAGE
    if args.engine == "smart" and args.rule is not None:
        # Reject rather than silently ignore: the smart engine runs
        # its staged pipeline, not a single PoC rule.
        print(
            "--rule selects the poc engine's single mutator and has "
            "no effect on the smart engine's staged pipeline; drop "
            "--rule or use --engine poc",
            file=sys.stderr,
        )
        return EXIT_USAGE
    worker_addresses: list[str] = []
    if args.workers:
        from repro.campaign import parse_worker_address

        worker_addresses = [
            spec.strip()
            for spec in args.workers.split(",") if spec.strip()
        ]
        if not worker_addresses:
            print("--workers got no addresses", file=sys.stderr)
            return EXIT_USAGE
        try:
            for spec in worker_addresses:
                parse_worker_address(spec)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE

    stored_collect_metrics: bool | None = None
    if args.resume:
        try:
            stored_collect_metrics = _restore_stored_args(args)
        except StoreMismatchError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        except CampaignStoreError as exc:
            print(f"campaign status: aborted — {exc}", file=sys.stderr)
            return EXIT_ABORTED
    # After the resume restore: a resumed differential campaign gets
    # its mode (and arch) from the store, not from this invocation.
    if args.differential and args.arch != "vmx":
        print(
            "--differential fuzzes the vmx backend natively and "
            "mirrors it on svm via the seed translation; it requires "
            f"--arch vmx (got --arch {args.arch})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.rule is None:
        args.rule = "bit-flip"

    reasons = []
    for name in args.reasons.split(","):
        name = name.strip().upper()
        try:
            reasons.append(ExitReason[name])
        except KeyError:
            print(f"unknown exit reason: {name}", file=sys.stderr)
            return EXIT_USAGE

    areas = {
        "vmcs": (MutationArea.VMCS,),
        "gpr": (MutationArea.GPR,),
        "both": (MutationArea.VMCS, MutationArea.GPR),
    }[args.area]

    from repro.campaign import (
        CampaignController,
        CampaignInterrupted,
        CampaignStore,
    )

    with cli_observability(args) as obs:
        precondition = (
            "bios" if args.workload in ("os-boot", "full-boot")
            else "boot"
        )
        print(f"recording {args.exits} exits of {args.workload}...")
        session = IrisManager(arch=args.arch).record_workload(
            args.workload, n_exits=args.exits,
            precondition=precondition,
        )
        if args.campaign_trace_out is not None:
            from repro.core.tracestore import write_trace

            write_trace(session.trace, args.campaign_trace_out)
            print(
                f"campaign input trace -> {args.campaign_trace_out}"
            )
        cases = plan_test_cases(
            session.trace, reasons, areas=areas,
            n_mutations=args.mutations, rng=random.Random(args.seed),
            engine=args.engine,
        )
        if not cases:
            print(
                "no seeds with the requested exit reasons in the trace"
            )
            return EXIT_NO_SEEDS
        for case in cases:
            if case.mutation_rule != args.rule:
                object.__setattr__(case, "mutation_rule", args.rule)

        def report(event):
            kind, payload = event
            if kind == "shard-completed":
                case = cases[payload.cell_index]
                print(
                    f"  [{payload.cell_index + 1}/{len(cases)}] "
                    f"{case.exit_reason.name}/{case.area.value} "
                    f"shard {payload.shard_index}: "
                    f"{payload.mutations_run} mutations in "
                    f"{payload.duration_seconds:.2f}s "
                    f"({payload.mutations_per_second:.0f} mut/s)"
                )
            else:
                print(f"  !! {kind}: {payload.describe()}")

        # Every run goes through the campaign engine, at any --jobs:
        # shards are hermetic and seeded per cell, so neither the
        # worker count nor observability can change a result.
        collect_metrics = (
            stored_collect_metrics
            if stored_collect_metrics is not None
            else obs is not None and obs.wants_metrics
        )
        transport = None
        if worker_addresses:
            from repro.campaign import SocketTransport

            transport = SocketTransport(worker_addresses)
            print(
                f"waves run on {transport.describe()} "
                "(results identical to a local run)"
            )
        engine = ParallelCampaign(
            session.trace, session.snapshot, cases,
            campaign_seed=args.seed, jobs=args.jobs,
            shards_per_cell=args.shards_per_cell, on_event=report,
            arch=args.arch,
            collect_metrics=collect_metrics,
            fast_reset=args.fast_reset,
            differential=args.differential,
            transport=transport,
        )
        store = (
            CampaignStore(args.store)
            if args.store is not None else None
        )
        controller = CampaignController(
            engine, store,
            wave_size=args.wave_size,
            config_extra=(
                ("area", args.area),
                ("exits", str(args.exits)),
                ("mutations", str(args.mutations)),
                ("reasons", ",".join(r.name for r in reasons)),
                ("rule", args.rule),
                ("seed", str(args.seed)),
                ("workload", args.workload),
            ),
            crash_after_wave=args.crash_after_wave,
        )
        try:
            outcome = controller.run(resume=args.resume)
        except CampaignInterrupted as exc:
            print(
                f"campaign status: aborted — {exc}; completed "
                f"waves are saved, continue with "
                f"--store {args.store} --resume"
            )
            return EXIT_ABORTED
        except StoreMismatchError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        except CampaignStoreError as exc:
            print(
                f"campaign status: aborted — {exc}",
                file=sys.stderr,
            )
            return EXIT_ABORTED
        finally:
            if store is not None:
                store.close()
        if outcome.waves_resumed:
            print(
                f"resumed: {outcome.waves_resumed}/"
                f"{outcome.waves_total} wave(s) restored from "
                f"{args.store}"
            )
        results = outcome.results
        if obs is not None:
            obs.add_snapshot(outcome.metrics)
        for cell_index in outcome.abandoned_cells:
            case = cases[cell_index]
            print(
                f"cell {case.exit_reason.name}/{case.area.value} "
                "abandoned after retry — excluded from the table",
                file=sys.stderr,
            )

    rows = []
    total_crashes = 0
    all_failures = []
    for result in results:
        total_crashes += result.vm_crashes + result.hypervisor_crashes
        all_failures.extend(result.failures)
        rows.append((
            result.exit_reason.name,
            result.area.value.upper(),
            f"+{result.coverage_increase_pct:.0f}%",
            f"{100 * result.vm_crash_rate:.1f}%",
            f"{100 * result.hypervisor_crash_rate:.1f}%",
            len(result.corpus),
        ))
    print(render_table(
        ["exit reason", "area", "new cov", "VM crash", "HV crash",
         "corpus"],
        rows,
        title=f"Fuzzing campaign: {args.workload} "
              f"({args.mutations} mutations/case, "
              f"engine={args.engine}"
              + (f", rule={args.rule})" if args.engine == "poc"
                 else ")"),
    ))
    print(f"total failures observed: {total_crashes}")
    print(f"campaign stats: {outcome.stats.describe()}")
    if obs is not None and obs.wants_metrics:
        # The whole run's counters: the recording beside the shards'.
        print()
        print(flight_summary(obs.final_snapshot()))
    if obs is not None:
        if obs.metrics_path:
            print(f"metrics snapshot -> {obs.metrics_path}")
        if obs.trace_path:
            print(f"trace events -> {obs.trace_path}")
    if all_failures:
        from repro.fuzz.triage import triage

        report = triage(all_failures)
        print()
        print(render_table(
            ["kind", "cause", "count", "seed reasons", "example"],
            report.rows(),
            title=f"Crash triage: {report.unique_crashes} distinct "
                  f"crashes from {report.total_failures} retained "
                  "failures",
        ))
    total_divergences = 0
    if args.differential:
        from repro.fuzz.differential import (
            iter_divergences,
            render_divergence_report,
        )

        all_divergences = list(iter_divergences(results))
        total_divergences = len(all_divergences)
        seeds_compared = sum(r.seeds_compared for r in results)
        untranslatable = sum(
            r.untranslatable_seeds for r in results
        )
        print()
        print(render_divergence_report(
            all_divergences,
            seeds_compared=seeds_compared,
            untranslatable_seeds=untranslatable,
        ))
        print(
            f"differential oracle: {total_divergences} divergence(s) "
            f"retained from {seeds_compared} seeds compared "
            f"({untranslatable} untranslatable)"
        )
    if total_crashes:
        print(
            f"campaign status: finished — {total_crashes} "
            "crash(es) found"
        )
        return EXIT_CRASHES_FOUND
    if total_divergences:
        print(
            f"campaign status: finished — {total_divergences} "
            "divergence(s) found"
        )
        return EXIT_DIVERGENCES_FOUND
    print("campaign status: finished — no crashes found")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
