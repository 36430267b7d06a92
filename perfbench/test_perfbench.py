"""Tests of the benchmark itself: every workload at a tiny size, and the gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int, seconds: str = "0.3"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc, result = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_golden_record_fails_the_gate(tmp_path):
    for part in ("src", "perfbench", "tests/data"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests" / "oracles.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    expected = tmp_path / "tests" / "data" / "golden_vl_session.expected.jsonl"
    text = expected.read_text()
    tampered = text.replace('"value": "aleph(2)"', '"value": "aleph(3)"', 1)
    assert tampered != text
    expected.write_text(tampered)
    proc, result = run(tmp_path, "batch_session", 0)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    info = json.loads(proc.stdout.strip().splitlines()[-2])["run"]
    assert info["fail_share"] > 0 and "golden record" in info["problems"][0]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = run(tmp_path, "engine_sweep", 0)
    assert proc.returncode != 0
    assert result is None


def test_printer_matches_canonical_dsl():
    sweep = workloads.EngineSweep(3)
    rng = random.Random(3)
    for _ in range(2000):
        card = sweep.card(rng)
        assert reference.card_text(card) == str(card)
        tail = rng.choice(sweep.tails)
        assert reference.ord_text(tail) == str(tail)


def test_same_seed_same_inputs():
    a, b = workloads.BatchSession(5), workloads.BatchSession(5)
    assert [[x.text for _, lines, _ in group for x in lines] for group in a.groups] == \
        [[x.text for _, lines, _ in group for x in lines] for group in b.groups]
    assert workloads.EngineSweep(5).next_round() == workloads.EngineSweep(5).next_round()
    assert [c.argv() for c in workloads.CliOneshot(5).calls] == \
        [c.argv() for c in workloads.CliOneshot(5).calls]
