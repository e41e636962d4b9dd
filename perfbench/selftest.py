"""Tests of the benchmark itself (not collected by the package's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc, res = _bench(workload)
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(name) and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines())
        assert res["metrics"][name]["value"] > 0


def test_traced_run_prints_every_layer_metric():
    proc, res = _bench("nodes", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spans.METRICS
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["debranges.tilt_calls"] > 0
    assert values["kernel.eval_points"] >= values["kernel.eval_calls"] > 0
    assert values["pcbounds.m_selberg_calls"] == 0


def test_perturbed_reference_counts_as_failed(tmp_path):
    refs = W.load_refs()
    refs["gaps_profile"]["total"][3] *= 1.0 + 1e-6
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs), encoding="utf-8")
    proc, res = _bench("analytic", "--refs", str(path))
    assert proc.returncode == 1
    assert not res["correct"] and res["failed"] == 1
    assert "FAILED gaps_profile" in proc.stderr


def test_layer_self_times_sum_within_traced_wall():
    from pcx import cli, debranges
    debranges.build_E()
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        debranges.lambda_values(0.9)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gaps", "--profile", "--beta", "0.6:0.7:0.05"]) == 0
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m, top = tracer.metrics()
    self_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < self_total <= wall
    assert m["debranges.tilt_calls"] == 1 and m["gaps.profile_calls"] == 3
    assert m["numerics.root_evals"] > m["numerics.root_calls"] > 0
    assert {s["span"] for s in top} >= {"cli.main", "debranges.tilt"}


def test_every_binding_is_wrapped_and_leftovers_are_found():
    from pcx import gaps, numerics, pcbounds
    original = numerics.find_root
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pcbounds.find_root is numerics.find_root is gaps.find_root
        assert numerics.find_root is not original
        assert spans.unwrapped_bindings([original]) == []
        gaps.find_root = original
        assert spans.unwrapped_bindings([original]) == ["pcx.gaps.find_root"]
    finally:
        tracer.uninstall()
    assert gaps.find_root is original and pcbounds.find_root is original


def test_plans_follow_the_seed():
    refs = W.load_refs()
    for workload in W.WORKLOADS:
        a = W.plan(workload, 1, 0, "full", refs)
        assert a == W.plan(workload, 1, 0, "full", refs)
        assert a != W.plan(workload, 2, 0, "full", refs)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.METRICS
