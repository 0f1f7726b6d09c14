"""Smoke checks that every example script parses and imports cleanly.

The examples run for minutes (they train models), so the test suite only
compiles them and verifies their imports resolve; the benchmark run and
documentation exercise them for real.
"""

import ast
import importlib
import py_compile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every `from repro...` / `import repro...` target must exist."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


def test_examples_exist_and_have_mains():
    assert len(EXAMPLES) >= 10  # quickstart + domain + resilience scenarios
    for path in EXAMPLES:
        text = path.read_text()
        assert "__main__" in text, f"{path.name} is not runnable"
        assert text.startswith("#!/usr/bin/env python"), path.name
