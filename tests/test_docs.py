"""The docstrings and the README keep to what the code and the tests say:
every Sphinx role in ``src/`` resolves, every test named in ``src/`` exists,
each module docstring is short, and the README names every command."""

import argparse
import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

from labelalign.cli import build_parser

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "labelalign").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("test_*.py"))
MAX_MODULE_DOCSTRING = 25  # lines

ANY_ROLE = re.compile(r":\w+:`[^`]*`")
ROLE = re.compile(r":(?:func|meth|class|mod|data|attr|exc):`~?([\w.]+)`")
TEST_NAME = re.compile(r"``((?:Test\w+(?:\.test_\w+)?)|test_\w+)``")


def docstrings(path):
    """``(line, docstring, class)`` of each docstring of the module at ``path``,
    ``class`` the name of the class that it documents or sits in, else None."""

    def walk(node, cls):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield node.body[0].lineno, doc, cls
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                yield from walk(child, cls)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def resolve(module, cls, target: str):
    """The object that the role target ``target`` names in ``module``: a dotted
    path from ``labelalign``, or a name (or ``Class.attribute``) of the module,
    of the class ``cls`` of the docstring or of the builtins."""
    parts = target.split(".")
    if parts[0] == "labelalign":
        for i in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                continue
            parts = parts[i:]
            break
    else:
        scopes = [module, *([getattr(module, cls)] if cls else []), builtins]
        obj = next((scope for scope in scopes if hasattr(scope, parts[0])), module)
    for name in parts:
        obj = getattr(obj, name)
    return obj


def named_tests():
    """``Class``, ``Class.test_method`` and ``test_function`` of every test module."""
    names = set()
    for path in TESTS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                names.add(node.name)
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return names


def test_every_sphinx_role_resolves():
    roles, unresolved = 0, []
    for path in MODULES:
        module = importlib.import_module(f"labelalign.{path.stem}".replace(".__init__", ""))
        for line, doc, cls in docstrings(path):
            for role in ANY_ROLE.findall(doc):
                roles += 1
                target = ROLE.fullmatch(role)
                try:
                    resolve(module, cls, target[1])
                except (TypeError, AttributeError):  # TypeError: a role that ROLE does not read
                    unresolved.append(f"{path.name}:{line}: {role}")
    assert roles > 50
    assert unresolved == []


def test_every_test_that_the_source_names_exists():
    known, named, missing = named_tests(), 0, []
    for path in MODULES:
        for name in TEST_NAME.findall(path.read_text(encoding="utf-8")):
            named += 1
            if name not in known:
                missing.append(f"{path.name}: {name}")
    assert named > 20
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_a_module_docstring_is_short(path):
    first = ast.parse(path.read_text(encoding="utf-8")).body[0]
    assert first.end_lineno - first.lineno + 1 <= MAX_MODULE_DOCSTRING


def test_the_readme_names_every_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert commands
    assert [c for c in commands if f"labelalign {c} " not in readme] == []
