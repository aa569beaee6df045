"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

A tiny-size smoke run of every workload, untraced and traced, must
print every metric ``BENCHMARK.json`` declares, with its unit, and pass
its correctness checks.  A tampered pinned digest must fail the run,
and so must a start outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args: str, cwd: Path = ROOT,
          bench_dir: Path = ROOT / "perfbench") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"),
         "--seed", "0", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    done = bench("--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_every_per_layer_metric_says_what_it_moves():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from run import PER_LAYER
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert list(PER_LAYER) == [m["name"] for m in DECLARED["per_layer"]]


def test_tampered_pin_fails_the_run(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    pins = json.loads((copy / "pins.json").read_text())
    pins["tiny"]["record_replay"] = "0" * 16
    (copy / "pins.json").write_text(json.dumps(pins))
    done = bench("--workload", "record_replay", bench_dir=copy)
    assert done.returncode != 0
    assert result_of(done)["correct"] is False
    assert "differs from the pinned" in done.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = bench("--workload", "fuzz_deep", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
