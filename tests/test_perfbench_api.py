"""The benchmark's calls into pcx still work: each workload's tiny plan
runs and passes its reference checks, and the span tracer covers every
binding of a pcx function.  The benchmark's modules are loaded by path,
without writing bytecode next to them."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plan(W, workload, tmp_path, dataset, scale="tiny"):
    """The seed-1 plan of a workload at a scale and a context to run it
    in, with the zero-table prefixes it needs written under tmp_path."""
    refs = W.load_refs()
    ops = W.plan(workload, 1, 0, scale, refs)
    shipped = ROOT / W.SHIPPED
    files = {"10000": str(shipped)}
    for n in W.prefix_sizes(ops):
        files[str(n)] = str(tmp_path / f"zeros_{n}.txt")
        W.write_prefix(shipped, files[str(n)], n)
    return ops, refs, W.Context(files, refs, dataset)


def _failed_checks(workload, scale, tmp_path, monkeypatch, dataset):
    """The (name, error) of every operation of the seed-1 plan that fails
    its reference check."""
    W = _load("workloads", monkeypatch)
    ops, refs, ctx = _plan(W, workload, tmp_path, dataset, scale)
    assert ops
    return [(op["name"], err) for op in ops
            if (err := W.check(op, W.execute(op, ctx), refs)) is not None]


@pytest.mark.parametrize("workload", ["analytic", "nodes", "pairs"])
def test_tiny_plan_passes_its_checks(workload, tmp_path, monkeypatch, dataset):
    assert _failed_checks(workload, "tiny", tmp_path, monkeypatch, dataset) == []


@pytest.mark.parametrize("workload", ["analytic", "nodes", "pairs"])
def test_full_plan_passes_its_checks(workload, tmp_path, monkeypatch, dataset):
    # the benchmark's own sizes: the n = 2,000 pair sum and F at n = 10^4
    assert _failed_checks(workload, "full", tmp_path, monkeypatch, dataset) == []


def test_tracer_covers_every_binding(monkeypatch):
    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer()
    tracer.install()  # raises TraceError when a binding escapes the wrappers
    tracer.uninstall()


def test_tracer_sees_the_quadrature(tmp_path, monkeypatch, dataset):
    # the two quadrature_check ops of the nodes plan integrate through
    # numerics.integrate_real_line, the name the quadrature metrics count
    W = _load("workloads", monkeypatch)
    spans = _load("spans", monkeypatch)
    ops, _, ctx = _plan(W, "nodes", tmp_path, dataset)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            W.execute(op, ctx)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics()
    assert metrics["numerics.quad_calls"] >= 2
    assert metrics["numerics.quad_s"] > 0.0


def test_tracer_sees_the_root_solves(tmp_path, monkeypatch, dataset):
    # the lambda_values ops of the nodes plan solve their nodes through
    # numerics.find_root(f, ...), the name and argument the root metrics
    # count
    W = _load("workloads", monkeypatch)
    spans = _load("spans", monkeypatch)
    ops, _, ctx = _plan(W, "nodes", tmp_path, dataset)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            if "lambda" in op["name"]:
                W.execute(op, ctx)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics()
    assert metrics["numerics.root_calls"] >= 1
    assert metrics["numerics.root_evals"] > 0
