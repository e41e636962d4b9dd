"""The benchmark's calls into pcx still work: each workload's tiny plan
runs and passes its reference checks, every name its scripts take from
pcx exists, and the span tracer covers every binding of a pcx function.
The benchmark's modules are loaded by path, without writing bytecode next
to them, or read with ast."""

import ast
import importlib
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


def _module(name):
    """The module of a dotted name, or None if it is no module."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return inner and f"{inner}.{node.attr}"
    return None


def _pcx_references(tree):
    """(module, name) for every name a script takes from pcx in code: each
    `from pcx... import name`, and each attribute of a name (or a chain of
    attributes) that an import binds to a pcx module.  Names in strings,
    such as those the span tracer looks up, are not code references."""
    bound = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import pcx.cli` binds pcx, `import pcx.cli as c` binds c
                if alias.name.split(".")[0] == "pcx":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["pcx"] = "pcx"
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "pcx"):
            for alias in node.names:
                refs.add((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        base = isinstance(node, ast.Attribute) and _dotted(node.value)
        if base and base.split(".")[0] in bound:
            head, _, rest = base.partition(".")
            module = ".".join(filter(None, (bound[head], rest)))
            if _module(module) is not None:
                refs.add((module, node.attr))
    return refs


def test_benchmark_names_in_pcx_resolve():
    # make_refs.py, which no test runs, is why count_pairs_brute and
    # quadrature_check's E argument stay in src: a name it or another
    # script takes from pcx that is gone fails here, not in the benchmark
    missing, found = [], 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for module, name in sorted(_pcx_references(
                ast.parse(path.read_text(encoding="utf-8")))):
            found += 1
            # a submodule resolves whether or not pcx has imported it yet
            if (_module(f"{module}.{name}") is None
                    and not hasattr(_module(module), name)):
                missing.append(f"{path.name}: {module}.{name}")
    assert found >= 40
    assert missing == []
