"""The package's imports: numpy stays its only runtime dependency, and
each module imports on its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrewrite

PACKAGE = Path(qrewrite.__file__).parent


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = {"numpy", "qrewrite", *sys.stdlib_module_names}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    for path in modules:
        foreign = imported_roots(path) - allowed
        assert not foreign, f"{path.relative_to(PACKAGE)} imports {sorted(foreign)}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_each_module_imports_alone(module):
    # a fresh interpreter, so no module is already loaded by another
    done = subprocess.run([sys.executable, "-c", f"import qrewrite.{module}"],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
