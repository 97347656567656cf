"""Offline lint gates on the wgfusion sources.

Every name a module imports is read in it (__init__.py is exempt because it
imports names to re-export them), no function imports from the package:
package-internal imports sit at module top, and the runtime loads only NumPy
(SciPy is a test-only reference).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wgfusion"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - read)


def test_gate_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_relative_imports(source: str) -> list[str]:
    """Names of the functions whose body imports relatively (from the package)."""
    tree = ast.parse(source)
    return sorted(
        {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        }
    )


def test_gate_flags_a_function_local_relative_import():
    src = "def f():\n    from .x import y\n    from scipy import z\n\ndef g():\n    import os\n"
    assert local_relative_imports(src) == ["f"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    assert local_relative_imports(path.read_text()) == []


def test_runtime_loads_no_scipy():
    code = (
        "import sys, wgfusion, wgfusion.cli, wgfusion.verify as v\n"
        "v.check_hyperbola(quick=True)\n"
        "v.check_generalized_oracle(quick=True)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
