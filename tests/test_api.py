"""The package's public names, and the names the benchmark imports."""

import ast
import importlib
from pathlib import Path

import labelalign


def test_public_names_resolve_once():
    names = labelalign.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(labelalign, name) for name in names)
    namespace = {}
    exec("from labelalign import *", namespace)
    assert set(names) <= set(namespace)


def test_benchmark_imports_resolve():
    """Every ``from labelalign.<module> import <name>`` in the benchmark
    scripts, set-up functions included, names something that exists."""
    imports = [
        (node.module, alias.name)
        for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "labelalign"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


# Public names that no caller reaches yet, each with the open item that gives
# it one.
UNCALLED = {
    "SynthDataset.expected_covariance",  # ROADMAP item 2's diagnostics call it
}


def public_definitions(tree):
    """The public module-level functions and the public methods of the
    module-level classes of ``tree``, as (qualified name, bare name, node)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def referenced_names(tree, outside=None):
    """The identifiers that ``tree`` reads as a name or an attribute, except
    within the definition ``outside``, and those that a benchmark hook target
    (``"labelalign.<module>:<path>"``) ends with."""
    skip = set() if outside is None else {id(n) for n in ast.walk(outside)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("labelalign.") and ":" in node.value):
            names.add(node.value.rsplit(".", 1)[-1].rsplit(":", 1)[-1])
    return names


def test_every_public_function_and_method_has_a_caller():
    """A public function or method of ``src/labelalign`` is read from
    ``src/`` outside its own definition, from the benchmark in
    ``perfbench/`` (its imports and hook targets), or exported through
    ``labelalign.__all__``. One that only tests reach is dead code."""
    root = Path(__file__).parents[1]
    trees = {path: ast.parse(path.read_text())
             for path in sorted((root / "src" / "labelalign").glob("*.py"))}
    benchmark = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        benchmark |= referenced_names(tree)
        benchmark |= {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
    elsewhere = set(labelalign.__all__) | benchmark
    uncalled = []
    for path, tree in trees.items():
        for qualified, name, node in public_definitions(tree):
            if name in elsewhere or any(name in referenced_names(other, node)
                                        for other in trees.values()):
                continue
            uncalled.append(qualified)
    assert sorted(uncalled) == sorted(UNCALLED)
