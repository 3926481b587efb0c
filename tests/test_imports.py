"""The package's runtime imports: scipy only for the ODE integrator."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tumordyn"


def imported_names(path):
    """Every module or `module.name` an absolute import in the file reaches."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_radial_imports_scipy_and_nothing_imports_optimize():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    scipy_users = set()
    for path in modules:
        names = set(imported_names(path))
        assert not any(
            n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names
        ), path.name
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            scipy_users.add(path.name)
    assert scipy_users == {"radial.py"}
