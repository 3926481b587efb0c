"""The package's runtime imports: numpy only; scipy is a test oracle."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from tumordyn import radial, specfun, stability

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


def test_no_run_loads_numpy_polynomial():
    """No package path imports numpy.polynomial (nor runs its LAPACK
    eigvalsh): not the import, a collocated analysis, a rate fit, a solve, a
    fractional window or a shot orbit's analysis, whose integrals take the
    Gauss-Legendre panels."""
    code = """
import json, sys
import tumordyn.cli
from tumordyn import (
    ModelParams, PiecewiseLinearSchedule, SinusoidSchedule, analyze, convergence_rate, evolve_mode,
    integrate,
)

seen = ["numpy.polynomial" in sys.modules]
schedule = SinusoidSchedule(period=1.0, mean_level=1.0, amplitude=0.5)
params = ModelParams(mu=1.0, sigma_tilde=0.9, gamma=1.0, schedule=schedule)
orbit = analyze(params, n_max=8).orbit
convergence_rate(orbit, 2.0 * orbit.R_star0, 40)
integrate(params, 1.0, 10.0)
seen.append("numpy.polynomial" in sys.modules)
evolve_mode(orbit, 2, 0, 1.0, 0.5)
seen.append("numpy.polynomial" in sys.modules)
knotted = PiecewiseLinearSchedule(
    period=1.0, knot_times=(0.0, 0.3, 0.55, 1.0), knot_values=(1.0, 1.8, 0.4, 1.0)
)
shot = analyze(ModelParams(mu=1.0, sigma_tilde=0.5, gamma=1.0, schedule=knotted), n_max=8).orbit
seen.append("numpy.polynomial" in sys.modules)
print(json.dumps([orbit.method, shot.method, seen]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert json.loads(out.stdout) == ["collocation", "shooting", [False, False, False, False]]


def test_cli_import_loads_no_process_pool():
    """Only a parallel sweep needs concurrent.futures and multiprocessing."""
    code = "import sys, tumordyn.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def _called(tree):
    """The names of the functions and methods called anywhere in a syntax tree."""
    return {
        c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None)
        for c in ast.walk(tree)
        if isinstance(c, ast.Call)
    }


def _calls_and_defs(path):
    """(called names, defined function names) in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return _called(tree), defined


def _float_constants(path):
    """Every float literal in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float}


def test_one_home_for_quadrature_and_schedule_statistics():
    """The Gauss-Legendre rule's constants appear only in stability.py, no
    module names leggauss or numpy.polynomial, and a schedule's period
    statistics are attributes, with no stats()/_stats() accessor."""
    rule = set(stability._GAUSS_X + stability._GAUSS_W)
    for path in sorted(SRC.glob("*.py")):
        called, defined = _calls_and_defs(path)
        names = _names(path) | set(imported_names(path))
        assert not {n for n in names if "leggauss" in n or "polynomial" in n}, path.name
        assert not {"stats", "_stats"} & (called | defined), path.name
        assert rule & _float_constants(path) == (rule if path.name == "stability.py" else set()), path.name


def test_no_module_uses_numpy_linalg():
    """LAPACK results depend on the BLAS thread count, and artifacts must not:
    no numpy.linalg, and no polyfit or lstsq, which call it; periodic reads
    whether to collocate from the schedule's breakpoints, not its class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "linalg" not in attrs, path.name
        assert not any("linalg" in name for name in imported_names(path)), path.name
        assert not {"polyfit", "lstsq"} & _called(tree), path.name
    tree = ast.parse((SRC / "periodic.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not {n for n in imported | _names(SRC / "periodic.py") if n.endswith("Schedule")}


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


def test_no_second_spelling_of_a_ratio_a_read_a_slope_or_theta2():
    """One Bessel-ratio recurrence (specfun._ratios, for a float and an array),
    one read of a solve (Trajectory.resample), find_periodic's Newton slope
    from _collocate's own Green step (no Phi or _diagonal of its own), and
    theta_2 only as theta_n(orbit, 2)."""
    assert not hasattr(specfun, "_recur")
    assert "__call__" not in vars(radial.Trajectory)
    assert not {"_diagonal", "schedule"} & _called(_function(SRC / "periodic.py", "find_periodic"))
    assert "theta2" not in {f.name for f in dataclasses.fields(stability.DecayBoundReport)}


def _function(path, name, cls=None):
    """The definition of function name (a method of class cls, if given) in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if cls is not None:
        tree = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_dense_read_formula():
    """A dense read is one elementwise formula: no grouped or one-row dot
    products, no sort and no float-only bisect; find_periodic reads R(T)
    directly, not through a grid's last step."""
    read = _called(_function(SRC / "dopri.py", "__call__", cls="DenseSolution"))
    assert not {"dot", "argsort", "bisect_left"} & read
    assert "linspace" not in _called(_function(SRC / "periodic.py", "find_periodic"))


def test_collocation_builds_no_jacobian_matrix():
    """Each collocation step is the periodic Green's function of the
    linearisation: periodic defines no matrix inverse, and _collocate forms
    no diagonal matrix D - diag(a)."""
    assert "_inverse" not in _calls_and_defs(SRC / "periodic.py")[1]
    assert "diag" not in _called(_function(SRC / "periodic.py", "_collocate"))
