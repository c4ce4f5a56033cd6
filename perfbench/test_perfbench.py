"""Smoke tests of the benchmark: a tiny run of every workload, untraced and
traced, plus the contract checks on ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as trc  # noqa: E402
import workloads as wls  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def test_benchmark_json_lists_every_emitted_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == wls.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == trc.per_layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(wls.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(wls.WORKLOADS)


def test_predictions_cite_only_defined_names():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        preds = json.load(fh)["predictions"]
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer = {m["name"] for m in BENCH["per_layer"]}
    assert len({p["id"] for p in preds}) == len(preds)
    for p in preds:
        assert set(p["per_layer"]) <= layer, p["id"]
        for table in (p["moves"], p["no_change"]):
            assert set(table) <= e2e, p["id"]
            for names in table.values():
                assert set(names) <= workloads, p["id"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wls.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    correct, attempted, failed, metrics, report = wls.run(
        name, seed=3, seconds=0, trace=trace, import_s=0.0, env={},
        out_root=str(tmp_path), size=wls.TINY)
    assert correct and failed == 0 and attempted >= 1
    assert report["failed_frac"] == 0.0
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in expected}
    assert all(math.isfinite(v) for v in metrics.values())
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]
    if name.startswith("gate5-"):
        assert metrics["policies.topk_project.calls"] == 0
        assert metrics["trainer.theta_gradients.frozen_frac"] > 0
    else:
        assert metrics["policies.topk_project.calls"] > 0
        assert metrics["trainer.theta_gradients.frozen_frac"] == 0
    assert os.path.exists(tmp_path / f"spans-{name}.jsonl")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate5-explicit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
