"""Every third-party module that the package or its tests import is
declared in pyproject.toml, in ``dependencies`` or the ``test`` extra.

The check itself needs the standard library only.  A module's
distribution name comes from importlib.metadata where the module is
installed, and is the module's own name where it is not."""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def _declared() -> set:
    """The normalized distribution names of the runtime and test requirements."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {_normalize(re.match(r"[A-Za-z0-9._-]+", r).group()) for r in requirements}


def _imports(path: Path):
    """(top-level module, line) of each absolute import of a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_declared_requirements_are_read():
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= _declared()


def test_third_party_imports_are_declared():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    local = {"hermgeo"} | {path.stem for path in files}
    distributions = importlib.metadata.packages_distributions()
    declared = _declared()
    undeclared = [
        f"{path.relative_to(ROOT)}:{line} imports {module}"
        for path in files for module, line in _imports(path)
        if module not in sys.stdlib_module_names and module not in local
        and not {_normalize(d) for d in distributions.get(module, [module])} & declared]
    assert not undeclared


def test_package_imports_only_numpy_and_the_standard_library():
    """The package's runtime needs numpy alone: mpmath, hypothesis and
    pytest stay test-only, and importing hermgeo loads nothing more."""
    found = [f"{path.relative_to(ROOT)}:{line} imports {module}"
             for path in sorted((ROOT / "src" / "hermgeo").glob("*.py"))
             for module, line in _imports(path)
             if module != "numpy" and module not in sys.stdlib_module_names]
    assert not found


def test_references_stay_independent_of_the_package():
    """tests/reference.py imports no hermgeo name, and no other test module imports mpmath."""
    assert "mpmath" in dict(_imports(ROOT / "tests" / "reference.py"))
    found = [f"{path.relative_to(ROOT)}:{line} imports {module}"
             for path in sorted((ROOT / "tests").glob("*.py")) for module, line in _imports(path)
             if module == ("hermgeo" if path.stem == "reference" else "mpmath")]
    assert not found
