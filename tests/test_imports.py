"""The package's runtime imports: numpy only; scipy is a test oracle."""

import ast
import os
import subprocess
import sys
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


def test_no_module_imports_scipy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        names = set(imported_names(path))
        assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, tumordyn.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _calls_and_defs(path):
    """(called names, defined function names) in one module."""
    called, defined = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
    return called, defined


def test_one_home_for_quadrature_and_schedule_statistics():
    """The Gauss-Legendre rule is built only in stability.py, and a schedule's
    period statistics are attributes, with no stats()/_stats() accessor."""
    for path in sorted(SRC.glob("*.py")):
        called, defined = _calls_and_defs(path)
        if path.name != "stability.py":
            assert "leggauss" not in called, path.name
        assert not {"stats", "_stats"} & (called | defined), path.name
    assert "leggauss" in _calls_and_defs(SRC / "stability.py")[0]


def test_no_module_uses_numpy_linalg():
    """LAPACK results depend on the BLAS thread count, and artifacts must not."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "linalg" not in attrs, path.name
        assert not any("linalg" in name for name in imported_names(path)), path.name


def _names(path):
    """Every identifier and attribute name a module references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_one_home_for_p0_and_phi_formulas():
    """The solver kernel binds P0's and Phi's float paths from specfun and
    nutrient; it holds no second copy of either, and nutrient writes each
    schedule's Phi once, in its _value (sin and cos appear nowhere else but
    in the Fourier slope)."""
    for name in ("radial.py", "dopri.py"):
        assert not {"tanh", "sin", "cos"} & _names(SRC / name), name
    for path in sorted(SRC.glob("*.py")):
        assert ("tanh" in _names(path)) == (path.name == "specfun.py"), path.name
    tree = ast.parse((SRC / "nutrient.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name not in ("_value", "_slope"):
            body = ast.Module(body=node.body, type_ignores=[])
            nested = {"sin", "cos"} & {
                n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)
            }
            assert not nested, node.name


def test_dopri_solve_has_one_caller():
    """radial.integrate is the only caller of dopri.solve."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dopri":
                assert "solve" not in {alias.name for alias in node.names}, path.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "solve"
                        and getattr(call.func.value, "id", None) == "dopri"
                    ):
                        callers.append((path.name, node.name))
    assert callers == [("radial.py", "integrate")]


def _params(fn):
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [f"*{p.arg}" for p in (a.vararg, a.kwarg) if p is not None]


def test_one_spelling_per_quantity():
    """P0' is pn_derivative(0, .), a solve is read on a grid only by
    Trajectory.resample, mu_star(params) is the self-consistent root, and
    functions on an orbit take no mu or params beside it."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fns = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert "p0_derivative" not in {fn.name for fn in fns}, path.name
        defs.update({(path.name, fn.name): fn for fn in fns})
    assert not {"t_eval", "t0"} & set(_params(defs["radial.py", "integrate"]))
    assert _params(defs["stability.py", "mu_star"]) == ["params"]
    for name in ("mode_exponent", "mode_decay_bound_check", "analyze"):
        assert not {"mu", "self_consistent"} & set(_params(defs["stability.py", name])), name
    assert _params(defs["periodic.py", "convergence_rate"])[:2] == ["orbit", "R0"]
