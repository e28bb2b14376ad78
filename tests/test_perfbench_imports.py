"""The benchmark harness under perfbench/ imports latcoset at module top, so
a name it imports that the package no longer has fails every benchmark run.
This reads those imports without running the harness."""

import ast
import importlib
from pathlib import Path

import latcoset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports():
    """(file, module, name) of every ``from latcoset... import name``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latcoset":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_harness_imports_are_public_and_resolve():
    found = list(_imports())
    assert found  # the harness still imports latcoset by name
    public = set(latcoset.__all__)
    for file, module, name in found:
        assert hasattr(importlib.import_module(module), name), (file, module, name)
        if module == "latcoset":
            assert name in public, (file, name)
