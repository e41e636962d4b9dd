"""The package holds what a run of pcx reads.

Every public top-level function of src/pcx is referenced outside its own
body, in src or in the benchmark's scripts (perfbench/*.py, read only),
so that none is kept for its own unit test alone.  The cmd_* functions
of pcx.cli, which main looks up by name, and the paper quantities in
_PAPER_QUANTITIES, which no module calls yet, are exempt.  Every private
top-level function, class and constant is referenced in src outside its
own definition, so that none is left behind when its last user goes.
pcx.zerodata reads nothing from pcx but its numerics and the Selberg
functions.  The checks read the sources with ast and import nothing."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcx"

# quantities of the paper with no caller in src yet
_PAPER_QUANTITIES = {("beurling", "eval_H0"), ("debranges", "tilt")}


def _names(node):
    """How often each name is used under node: as a variable, as an
    attribute, or as an imported name."""
    counts = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name.rsplit(".", 1)[-1]] += 1
    return counts


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_has_a_caller():
    modules = _modules()
    scripts = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = collections.Counter()
    for tree in list(modules.values()) + scripts:
        used += _names(tree)
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")
                    or module == "cli" and node.name.startswith("cmd_")
                    or (module, node.name) in _PAPER_QUANTITIES):
                continue
            # the def itself names nothing; a call from its own body
            # (recursion) does not count
            if used[node.name] - _names(node)[node.name] == 0:
                unused.append(f"{module}.{node.name}")
    assert unused == []


def _defined(node):
    """The names a top-level statement defines: a function's or a class's,
    or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [sub.id for target in node.targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)]
    return []


def test_every_private_name_has_a_use():
    modules = _modules()
    used = collections.Counter()
    for tree in modules.values():
        used += _names(tree)
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            for name in _defined(node):
                # a private name is used by its module or another in src,
                # not by its own definition (a target or a recursion)
                if (name.startswith("_") and not name.startswith("__")
                        and used[name] - _names(node)[name] == 0):
                    unused.append(f"{module}.{name}")
    assert unused == []


def _pcx_imports(tree):
    """The pcx modules a module imports, relatively or by the name pcx."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "pcx":
                    continue
                module = module[len("pcx."):]
            found.update([module] if module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(alias.name[len("pcx."):] for alias in node.names
                         if alias.name.startswith("pcx."))
    return found


def test_zerodata_imports_only_numerics_and_beurling():
    assert _pcx_imports(_modules()["zerodata"]) == {"numerics", "beurling"}
