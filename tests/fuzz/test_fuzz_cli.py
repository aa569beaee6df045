"""Unit tests for the ``iris-fuzz`` CLI."""

import json

import pytest

from repro.fuzz.cli import (
    EXIT_ABORTED,
    EXIT_CRASHES_FOUND,
    EXIT_DIVERGENCES_FOUND,
    EXIT_NO_SEEDS,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "cpu-bound"
        # None is the "not passed" sentinel (resolved to bit-flip for
        # the poc engine; a usage error with --engine smart).
        assert args.rule is None
        assert args.engine == "poc"
        assert args.area == "both"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["-w", "nope"])

    def test_unknown_rule_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--rule", "teleport"])

    def test_unknown_reason_is_a_clean_error(self, capsys):
        assert main(["--reasons", "WARP_DRIVE"]) == 2
        assert "unknown exit reason" in capsys.readouterr().err

    def test_jobs_defaults_to_serial(self):
        args = build_parser().parse_args([])
        assert args.jobs == 1
        assert args.shards_per_cell == 1

    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--shards-per-cell", "2"]
        )
        assert args.jobs == 4
        assert args.shards_per_cell == 2

    def test_nonpositive_jobs_is_a_clean_error(self, capsys):
        assert main(["--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert main(["--shards-per-cell", "-1"]) == 2
        assert "--shards-per-cell must be >= 1" in \
            capsys.readouterr().err


class TestEngineSelection:
    ARGS = [
        "-w", "cpu-bound", "-n", "150", "--mutations", "10",
        "--reasons", "RDTSC,CPUID",
    ]

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "telepathic"])

    def test_smart_engine_runs_end_to_end(self, capsys):
        code = main(self.ARGS + ["--engine", "smart"])
        assert code in (EXIT_OK, EXIT_CRASHES_FOUND)
        out = capsys.readouterr().out
        assert "engine=smart" in out
        # the smart pipeline ignores --rule, so the table omits it
        assert "rule=" not in out

    def test_poc_engine_table_still_names_the_rule(self, capsys):
        code = main(self.ARGS)
        assert code in (EXIT_OK, EXIT_CRASHES_FOUND)
        assert "engine=poc, rule=bit-flip" in capsys.readouterr().out

    def test_rule_with_smart_engine_is_usage_error(self, capsys):
        """The --rule flag used to be silently ignored whenever the
        engine didn't consume it; now it's an explicit usage error."""
        code = main(
            self.ARGS + ["--engine", "smart", "--rule", "byte-flip"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--rule selects the poc engine's single mutator" in err
        assert "--engine poc" in err

    def test_smart_campaign_is_jobs_invariant_via_cli(
        self, tmp_path, capsys
    ):
        # Worker count must never change a result byte, the store's
        # checkpointing included.
        outputs = []
        for jobs in ("1", "2"):
            main(self.ARGS + [
                "--engine", "smart", "--jobs", jobs,
                "--store", str(tmp_path / f"jobs{jobs}.db"),
            ])
            outputs.append("\n".join(
                line for line in
                capsys.readouterr().out.splitlines()
                if "mut/s" not in line and "recording" not in line
                and "campaign stats" not in line
            ))
        assert outputs[0] == outputs[1]

    def test_resume_restores_stored_engine(self, tmp_path, capsys):
        db = str(tmp_path / "smart.db")
        full = main(
            self.ARGS + ["--engine", "smart",
                         "--store", str(tmp_path / "ref.db")]
        )
        full_out = capsys.readouterr().out
        assert main(
            self.ARGS + ["--engine", "smart", "--store", db,
                         "--crash-after-wave", "0"]
        ) == EXIT_ABORTED
        capsys.readouterr()
        # no --engine on the resume side: the store is authoritative
        resumed = main(["--store", db, "--resume"])
        resumed_out = capsys.readouterr().out
        assert resumed == full
        assert "engine=smart" in resumed_out
        table = lambda text: "\n".join(  # noqa: E731
            line for line in text.splitlines()
            if "mut/s" not in line and "recording" not in line
            and "campaign stats" not in line
            and not line.startswith("resumed:")
        )
        assert table(resumed_out) == table(full_out)


def campaign_result(out: str) -> str:
    """The deterministic part of ``iris-fuzz`` output: drop timings,
    worker counts, the flight recorder and file pointers."""
    lines = out.splitlines()
    if "== campaign flight recorder ==" in lines:
        # The block sits between a blank line and its metrics pointer.
        start = lines.index("== campaign flight recorder ==") - 1
        end = next(
            i for i, line in enumerate(lines)
            if line.startswith("metrics snapshot ->")
        )
        lines = lines[:start] + lines[end + 1:]
    return "\n".join(
        line for line in lines
        if "mut/s" not in line and "recording" not in line
        and "campaign stats" not in line
    )


def test_cli_output_is_invariant_to_jobs_and_observability(
    tmp_path, capsys
):
    """Bare, ``--jobs 2`` and ``--metrics`` runs of one campaign report
    the same exit code, result table and crash triage."""
    args = [
        "-w", "cpu-bound", "-n", "200", "--mutations", "40",
        "--reasons", "RDTSC,CPUID",
    ]
    runs = []
    for extra in ([], ["--jobs", "2"],
                  ["--metrics", str(tmp_path / "m.json")]):
        code = main(args + extra)
        runs.append((code, campaign_result(capsys.readouterr().out)))
    assert runs[0][0] == EXIT_CRASHES_FOUND
    assert "Crash triage" in runs[0][1]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_resumed_metrics_are_invariant_to_jobs(tmp_path, capsys):
    """Resuming a store that ran without metrics, with ``--metrics``,
    writes the same metric keys at ``--jobs 1`` and ``--jobs 2``.

    Such shards do not collect hermetically; they must still run under
    a scope of their own, or the inline transport leaks their counters
    into the CLI's registry while pool workers do not.
    """
    args = [
        "-w", "cpu-bound", "-n", "150", "--mutations", "10",
        "--reasons", "RDTSC,CPUID",
    ]
    snapshots = []
    for jobs in ("1", "2"):
        db = str(tmp_path / f"jobs{jobs}.db")
        assert main(
            args + ["--store", db, "--crash-after-wave", "0"]
        ) == EXIT_ABORTED
        metrics = tmp_path / f"jobs{jobs}.json"
        main(["--store", db, "--resume", "--jobs", jobs,
              "--metrics", str(metrics)])
        capsys.readouterr()
        snapshots.append(json.loads(metrics.read_text()))
    keys = [
        (sorted(s["counters"]), sorted(s["histograms"]))
        for s in snapshots
    ]
    assert keys[0] == keys[1]
    assert snapshots[0]["counters"] == snapshots[1]["counters"]


class TestExitCodeContract:
    """The pinned exit-code contract: scripts driving long campaigns
    must be able to tell 'finished clean', 'finished with findings',
    and 'aborted mid-way' apart (they used to all return 0)."""

    def test_codes_are_pinned(self):
        assert EXIT_OK == 0
        assert EXIT_NO_SEEDS == 1
        assert EXIT_USAGE == 2
        assert EXIT_CRASHES_FOUND == 3
        assert EXIT_ABORTED == 4
        assert EXIT_DIVERGENCES_FOUND == 5

    def test_crashes_found_returns_distinct_code(self, capsys):
        # this deterministic barrage is known to find crashes
        code = main([
            "-w", "cpu-bound", "-n", "200", "--mutations", "40",
            "--reasons", "RDTSC,CPUID",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_CRASHES_FOUND
        assert "campaign status: finished" in out
        assert "crash(es) found" in out

    def test_clean_finish_returns_zero(self, capsys):
        # a single mutation on a short trace: deterministic, no crash
        code = main([
            "-w", "idle", "-n", "60", "--mutations", "1",
            "--reasons", "HLT", "--area", "gpr", "--seed", "3",
        ])
        out = capsys.readouterr().out
        if "no crashes" in out:
            assert code == EXIT_OK
        else:  # the one mutation happened to crash: still pinned
            assert code == EXIT_CRASHES_FOUND

    def test_divergences_found_returns_distinct_code(self, capsys):
        """This pinned configuration is known to find exactly one
        cross-arch divergence and zero crashes — the one scenario
        where exit 5 (not 0, not 3) is the contract."""
        code = main([
            "-w", "cpu-bound", "-n", "200", "--mutations", "2",
            "--reasons", "RDTSC", "--area", "vmcs",
            "--differential", "--seed", "42",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_DIVERGENCES_FOUND
        assert "campaign status: finished" in out
        assert "divergence(s) found" in out
        assert "Differential oracle:" in out
        assert "echo-write-divergence" in out

    def test_crashes_take_precedence_over_divergences(self, capsys):
        """When the same campaign finds crashes *and* divergences, the
        exit code reports the crashes; the divergence report still
        prints."""
        code = main([
            "-w", "cpu-bound", "-n", "200", "--mutations", "30",
            "--reasons", "RDTSC,CPUID", "--differential",
            "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_CRASHES_FOUND
        assert "crash(es) found" in out
        assert "Differential oracle:" in out

    def test_differential_requires_vmx_primary(self, capsys):
        assert main(["--differential", "--arch", "svm"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--differential fuzzes the vmx backend natively" in err

    def test_abort_returns_distinct_code(self, tmp_path, capsys):
        db = str(tmp_path / "abort.db")
        code = main([
            "-w", "cpu-bound", "-n", "150", "--mutations", "10",
            "--reasons", "RDTSC,CPUID", "--store", db,
            "--crash-after-wave", "0",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_ABORTED
        assert "campaign status: aborted" in out
        assert "--resume" in out  # tells the operator how to continue


class TestSmallCampaign:
    def test_end_to_end_run(self, capsys):
        code = main([
            "-w", "cpu-bound", "-n", "200", "--mutations", "40",
            "--reasons", "RDTSC,CPUID", "--area", "both",
        ])
        assert code == EXIT_CRASHES_FOUND
        out = capsys.readouterr().out
        assert "RDTSC" in out
        assert "VMCS" in out and "GPR" in out
        assert "total failures observed" in out

    def test_parallel_run_prints_table_and_stats(self, capsys):
        code = main([
            "-w", "cpu-bound", "-n", "200", "--mutations", "30",
            "--reasons", "RDTSC,CPUID", "--jobs", "2",
        ])
        assert code in (EXIT_OK, EXIT_CRASHES_FOUND)
        out = capsys.readouterr().out
        assert "RDTSC" in out and "CPUID" in out
        assert "campaign stats" in out
        assert "0 worker fault(s)" in out
        assert "mut/s" in out  # per-shard progress lines

    def test_missing_reasons_reported(self, capsys):
        code = main([
            "-w", "cpu-bound", "-n", "100", "--mutations", "10",
            "--reasons", "HLT",  # absent from CPU-bound traces
        ])
        assert code == EXIT_NO_SEEDS
        assert "no seeds" in capsys.readouterr().out


class TestResumableCampaignCli:
    ARGS = [
        "-w", "cpu-bound", "-n", "150", "--mutations", "10",
        "--reasons", "RDTSC,CPUID",
    ]

    def _table_of(self, out: str) -> str:
        """The deterministic part of the output (drop wall-clock and
        progress lines)."""
        return "\n".join(
            line for line in out.splitlines()
            if "mut/s" not in line and "recording" not in line
            and "campaign stats" not in line
            and not line.startswith("resumed:")
        )

    def test_interrupt_then_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        full = main(self.ARGS + ["--store", str(tmp_path / "a.db")])
        full_out = capsys.readouterr().out
        assert full in (EXIT_OK, EXIT_CRASHES_FOUND)

        db = str(tmp_path / "b.db")
        assert main(
            self.ARGS + ["--store", db, "--crash-after-wave", "1"]
        ) == EXIT_ABORTED
        capsys.readouterr()

        # resume restores every parameter from the store: no
        # recording flags needed (or trusted) on the resume side
        resumed = main(["--store", db, "--resume"])
        resumed_out = capsys.readouterr().out
        assert resumed == full
        assert "wave(s) restored" in resumed_out
        assert self._table_of(resumed_out) == self._table_of(full_out)

    def test_store_reuse_without_resume_is_usage_error(
        self, tmp_path, capsys
    ):
        db = str(tmp_path / "c.db")
        assert main(
            self.ARGS + ["--store", db, "--crash-after-wave", "0"]
        ) == EXIT_ABORTED
        capsys.readouterr()
        assert main(self.ARGS + ["--store", db]) == EXIT_USAGE
        assert "already holds" in capsys.readouterr().err

    def test_resume_without_store_is_usage_error(self, capsys):
        assert main(["--resume"]) == EXIT_USAGE
        assert "--resume requires --store" in capsys.readouterr().err

    def test_resume_of_missing_store_is_usage_error(
        self, tmp_path, capsys
    ):
        db = str(tmp_path / "missing.db")
        assert main(["--store", db, "--resume"]) == EXIT_USAGE
        assert "no campaign" in capsys.readouterr().err

    def test_corrupt_store_aborts_with_diagnostic(
        self, tmp_path, capsys
    ):
        db = str(tmp_path / "garbage.db")
        with open(db, "wb") as fh:
            fh.write(b"not sqlite\x00" * 64)
        assert main(["--store", db, "--resume"]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert "campaign status: aborted" in err

    def test_tampered_store_is_refused_before_any_work(
        self, tmp_path, capsys
    ):
        """Damage below SQLite's radar (a deleted cell row) is caught
        by the automatic validate() *before* the expensive re-record,
        with an actionable message."""
        import sqlite3

        db = str(tmp_path / "tampered.db")
        assert main(
            self.ARGS + ["--store", db, "--crash-after-wave", "1"]
        ) == EXIT_ABORTED
        capsys.readouterr()
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "DELETE FROM cells WHERE rowid = "
                "(SELECT MIN(rowid) FROM cells)"
            )
        conn.close()
        assert main(["--store", db, "--resume"]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert "resume refused before any work was done" in err
        assert "fresh campaign with a new --store path" in err

    def test_bad_wave_size_is_usage_error(self, capsys):
        assert main(["--wave-size", "0"]) == EXIT_USAGE
        assert "--wave-size must be >= 1" in capsys.readouterr().err

    def test_bad_worker_address_is_usage_error(self, capsys):
        assert main(["--workers", "nope"]) == EXIT_USAGE
        assert "host:port" in capsys.readouterr().err

    def test_empty_workers_list_is_usage_error(self, capsys):
        assert main(["--workers", ","]) == EXIT_USAGE
        assert "no addresses" in capsys.readouterr().err
