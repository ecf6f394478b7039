"""Self-checks of the benchmark: run with ``python3 -m pytest perfbench``.

Each workload runs at smoke size: twice traced, to show that the exact
counts repeat for a seed, and once untraced, to show that every end-to-end
metric is printed by name with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Counts that depend only on the seed's inputs, never on timing.
EXACT = (
    ".calls",
    ".in_bytes",
    ".out_bytes",
    ".errors",
    "tron_codec.batch_out_bytes",
    "tron_codec.classes",
    "tokens.count.",
    "agent.turns",
    "agent.cascades",
    "agent.aborts",
    "agent.fail.",
)


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py") -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int) -> tuple[dict, list[str]]:
    code, lines = bench(workload, trace)
    assert code == 0, lines
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    return out, lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, _ = result(workload, 1)
    second, _ = result(workload, 1)
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(first["metrics"]) == names
    exact = [k for k in names if any(k.endswith(s) or k.startswith(s) for s in EXACT)]
    assert "agent.fail.decode" in exact and "tokens.count.bpe" in exact
    for k in exact:
        assert first["metrics"][k] == second["metrics"][k], k


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    out, table = result(workload, 0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    header = table[0]
    for name, unit in want.items():
        assert f"{name} ({unit})" in header
        assert isinstance(out["metrics"][name]["value"], float)
    assert "failed_share" in header
    assert any(line.startswith(workload) for line in table[1:])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert not lines


def test_references_keep_literals_and_key_order():
    sys.path.insert(0, str(HERE))
    import refs

    assert refs.canonical('{"b": 7.50, "a": [1E3, -0, "x\\u00e9"]}') == '{"b":7.50,"a":[1E3,-0,"xé"]}'
    assert refs.canonical('{"a": 1, "b": 2}') != refs.canonical('{"b": 2, "a": 1}')
    assert refs.count_words('{"a-b": 12}') == 9
