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
