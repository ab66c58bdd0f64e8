"""Self-tests of the benchmark: seeded generation, references that are
alive where queries use them, answer checks, and small end-to-end runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _build(workload: str, seed: int, rounds: int = 2):
    data = gen.make_dataset(WORKLOADS[workload].scale, seed)
    return data, gen.make_ops(workload, data, seed, rounds)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    data_a, ops_a = _build(workload, 5)
    data_b, ops_b = _build(workload, 5)
    data_c, ops_c = _build(workload, 6)
    assert data_a.lines() == data_b.lines()
    assert [op.text for r in ops_a for op in r] == [op.text for r in ops_b for op in r]
    assert data_a.lines() != data_c.lines()
    assert [op.text for r in ops_a for op in r] != [op.text for r in ops_c for op in r]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dataset_matches_its_scale(workload):
    scale = WORKLOADS[workload].scale
    data = gen.make_dataset(scale, 3)
    assert len(data.lifetimes) == scale.nodes
    assert len(data.edges) == scale.edges
    assert sum(len(iv) == 2 for iv in data.lifetimes.values()) == scale.nodes // 10
    for src, dst, s, e in data.edges.values():
        assert src != dst
        assert all(data.alive(src, t) and data.alive(dst, t) for t in range(s, e + 1))
    times = {rec.get("t", rec.get("start")) for rec in data.records()}
    assert times >= set(range(scale.times))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_reference_is_alive_where_the_query_uses_it(workload):
    data, rounds = _build(workload, 7, rounds=3)
    checked = 0
    for op in (op for r in rounds for op in r):
        for node, first, last in op.alive:
            assert all(data.alive(node, t) for t in range(first, last + 1)), op.text
            checked += 1
        for key in ("node", "a", "b"):
            if key in op.args and "t" in op.args:
                assert data.alive(op.args[key], op.args["t"]), op.text
    assert checked > 0


def test_reference_records_the_mixes():
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"]
    for name, wl in WORKLOADS.items():
        _, rounds = _build(name, 1, rounds=1)
        recorded = {k: v["ops"] for k, v in ref[name]["mix_per_round"].items()}
        assert recorded == Counter(op.shape for op in rounds[0]), name
        assert ref[name]["tail_percentile"] == wl.tail_pct


def test_oracle_rejects_a_wrong_answer():
    data, rounds = _build("values", 2, rounds=1)
    op = next(op for op in rounds[0] if op.shape == "lookup")
    right = [{"t": op.args["t"], "element": f"node:{op.args['node']}", "attr": "w",
              "value": data.value(op.args["node"], op.args["t"]), "aggregated": False}]
    assert oracle.agrees(op, data, right)
    wrong = [dict(right[0], value=right[0]["value"] + 0.01)]
    assert not oracle.agrees(op, data, wrong)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "0.1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_scale(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 176
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert set(runs[0]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            assert runs[0][m["name"]] == runs[1][m["name"]], m["name"]


def test_all_runs_every_workload_in_its_own_process():
    proc = _run("all", 0)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(WORKLOADS)
    assert all(r["correct"] for r in results.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("structure", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
