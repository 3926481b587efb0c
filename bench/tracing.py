"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.installed()`` replaces each traced function at every module that
looks it up at call time, including names bound by ``from .x import y``
(``radial.p0``, ``periodic.integrate``, ...), and ``NutrientSchedule.__call__``.
Each call records one span: name, start, end, parent span and op id.  The
package itself is not modified; leaving the context restores every original.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name): every import site of each traced function.
SITES = [
    ("specfun", "p0", "specfun.p0"),
    ("specfun", "pn", "specfun.pn"),
    ("specfun", "pn_derivative", "specfun.pn_derivative"),
    ("specfun", "p0_inverse", "specfun.p0_inverse"),
    ("nutrient", "schedule_from_spec", "nutrient.schedule_from_spec"),
    ("radial", "p0", "specfun.p0"),
    ("radial", "integrate", "radial.integrate"),
    ("radial", "rhs", "radial.rhs"),
    ("radial", "classify_radial", "radial.classify_radial"),
    ("radial", "extinction_diagnostics", "radial.extinction_diagnostics"),
    ("periodic", "p0_inverse", "specfun.p0_inverse"),
    ("periodic", "pn_derivative", "specfun.pn_derivative"),
    ("periodic", "integrate", "radial.integrate"),
    ("periodic", "bracket", "periodic.bracket"),
    ("periodic", "poincare_map", "periodic.poincare_map"),
    ("periodic", "find_periodic", "periodic.find_periodic"),
    ("periodic", "convergence_rate", "periodic.convergence_rate"),
    ("stability", "pn", "specfun.pn"),
    ("stability", "find_periodic", "periodic.find_periodic"),
    ("stability", "theta_n", "stability.theta_n"),
    ("stability", "mode_exponent", "stability.mode_exponent"),
    ("stability", "mu_star", "stability.mu_star"),
    ("stability", "analyze", "stability.analyze"),
    ("stability", "evolve_mode", "stability.evolve_mode"),
    ("stability", "mode_decay_bound_check", "stability.mode_decay_bound_check"),
    ("fields", "p0", "specfun.p0"),
    ("fields", "pn", "specfun.pn"),
    ("fields", "rhs", "radial.rhs"),
    ("fields", "sigma_star", "fields.sigma_star"),
    ("fields", "p_star", "fields.p_star"),
    ("fields", "boundary_derivatives", "fields.boundary_derivatives"),
    ("fields", "spherical_harmonic", "fields.spherical_harmonic"),
    ("fields", "perturbed_surface", "fields.perturbed_surface"),
    ("cli", "schedule_from_spec", "nutrient.schedule_from_spec"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_periodic", "cli.cmd_periodic"),
    ("cli", "cmd_stability", "cli.cmd_stability"),
    ("cli", "cmd_sweep", "cli.cmd_sweep"),
]
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.rhs_evals = 0
        self.steps = 0
        self.pn_points = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        opener, closer = self._open, self._close

        if name == "radial.integrate":
            def traced(*args, **kwargs):
                idx = opener(name_id)
                try:
                    traj = fn(*args, **kwargs)
                finally:
                    closer(idx)
                self.rhs_evals += traj.nfev
                self.steps += len(traj._interp.ts) - 1
                return traj
        elif name == "specfun.pn":
            def traced(n, r, *args, **kwargs):
                self.pn_points += np.size(r)
                idx = opener(name_id)
                try:
                    return fn(n, r, *args, **kwargs)
                finally:
                    closer(idx)
        else:
            def traced(*args, **kwargs):
                idx = opener(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closer(idx)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        import tumordyn
        from tumordyn import cli, fields, nutrient, periodic, radial, specfun, stability

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (cli, fields, nutrient, periodic, radial, specfun, stability)}
        saved = []
        try:
            for mod_name, attr, span in SITES:
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, span))
            call = tumordyn.NutrientSchedule.__call__
            saved.append((tumordyn.NutrientSchedule, "__call__", call))
            tumordyn.NutrientSchedule.__call__ = self._wrap(call, "nutrient.schedule")
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        A span's self time is its duration minus the durations of its
        direct children; calls are sequential, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
