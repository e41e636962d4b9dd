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


@pytest.mark.parametrize("workload", ["analytic", "nodes", "pairs"])
def test_tiny_plan_passes_its_checks(workload, tmp_path, monkeypatch, dataset):
    W = _load("workloads", monkeypatch)
    refs = W.load_refs()
    ops = W.plan(workload, 1, 0, "tiny", refs)
    shipped = ROOT / W.SHIPPED
    files = {"10000": str(shipped)}
    for n in W.prefix_sizes(ops):
        files[str(n)] = str(tmp_path / f"zeros_{n}.txt")
        W.write_prefix(shipped, files[str(n)], n)
    ctx = W.Context(files, refs, dataset)
    failed = [(op["name"], err) for op in ops
              if (err := W.check(op, W.execute(op, ctx), refs)) is not None]
    assert ops and failed == []


def test_tracer_covers_every_binding(monkeypatch):
    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer()
    tracer.install()  # raises TraceError when a binding escapes the wrappers
    tracer.uninstall()
