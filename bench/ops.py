"""Run one generated op against the package and check its outputs.

CLI ops call ``tumordyn.cli.main`` in-process with ``--workers 1``; study ops
call the library.  Either way the op's artifacts (the files the CLI writes,
or the benchmark's own JSON dump of a study) are read back as bytes, checked
against the paper's invariants and against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

# Relative tolerances against the recorded reference: the ones the repo's
# tests use for the same quantities (R*_0 1e-9, theta_2 1e-6, Lambda_n 1e-4,
# delta_hat 1e-2); the final radius uses R*_0's, with the CLI's atol as floor.
REF_RTOL = {
    "R_star0": 1e-9,
    "theta2": 1e-6,
    "lambda2": 1e-4,
    "mu_star_sc": 1e-6,
    "delta_hat": 1e-2,
    "final_radius": 1e-9,
}
FINAL_RADIUS_ATOL = 1e-12
LAMBDA1_ATOL = 1e-11
ENVELOPE_RTOL = 1e-9
MARGINAL_BAND = 1e-8
ORBIT_TOL = 1e-11


def mean_phi(spec: dict) -> float:
    """Period mean of a schedule spec, computed independently of the package."""
    form = spec["form"]
    if form == "constant":
        return float(spec["value"])
    if form in ("sinusoid", "fourier"):
        return float(spec["mean"])
    t, v = spec["times"], spec["values"]
    area = sum(0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i]) for i in range(len(t) - 1))
    return area / float(spec.get("period", 1.0))


class Outcome:
    """What one op did: latency, status, artifacts and check failures."""

    def __init__(self, op: dict):
        self.op = op
        self.seconds = 0.0
        self.exit_code: int | None = None
        self.error = ""
        self.artifacts: dict[str, bytes] = {}
        self.failures: list[str] = []
        self.values: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def out_bytes(self) -> int:
        return sum(len(b) for b in self.artifacts.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.artifacts):
            h.update(name.encode() + b"\0" + self.artifacts[name] + b"\0")
        return h.hexdigest()

    def record(self) -> dict:
        return {
            "id": self.op["id"],
            "key": self.op["key"],
            "command": self.op["command"],
            "known_failure": self.op["known_failure"],
            "seconds": self.seconds,
            "exit_code": self.exit_code,
            "error": self.error,
            "ok": self.ok,
            "failures": self.failures,
            "out_bytes": self.out_bytes,
        }


def execute(op: dict, config_path: Path, workdir: Path) -> Outcome:
    """Run the op; time only the call into the package."""
    from tumordyn import cli

    out = Outcome(op)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    stderr = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            if op["kind"] == "cli":
                argv = [op["command"], "--config", str(config_path), "--out", str(workdir), "--workers", "1"]
                t0 = perf_counter()
                out.exit_code = cli.main(argv)
                out.seconds = perf_counter() - t0
            else:
                t0 = perf_counter()
                result = run_study(config_path)
                out.seconds = perf_counter() - t0
                out.exit_code = 0
                (workdir / "study.json").write_text(json.dumps(result, sort_keys=True) + "\n")
    except Exception as exc:  # an exception out of the package is an op failure
        out.seconds = perf_counter() - t0
        out.error = f"{type(exc).__name__}: {exc}"
        out.failures.append(f"exception: {out.error}")
        return out
    out.error = stderr.getvalue().strip()
    if out.exit_code != 0:
        out.failures.append(f"exit code {out.exit_code}: {out.error}")
        return out
    out.artifacts = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    try:
        out.values = CHECKS[op["command"]](op, out.artifacts, out.failures)
    except (KeyError, ValueError, IndexError) as exc:
        out.failures.append(f"malformed artifacts: {type(exc).__name__}: {exc}")
    return out


def check_reference(out: Outcome, reference: dict) -> None:
    """Compare the op's extracted values with the recorded ones."""
    if out.failures or out.op["known_failure"]:
        return
    ref = reference.get(out.op["key"])
    if ref is None:
        out.failures.append("no reference recorded for this op")
        return
    if set(ref) != set(out.values):
        out.failures.append(f"reference has {sorted(ref)}, op gave {sorted(out.values)}")
        return
    for name, want in ref.items():
        got = out.values[name]
        kind = name.rsplit(".", 1)[-1]
        atol = FINAL_RADIUS_ATOL if kind == "final_radius" else 0.0
        if not math.isclose(got, want, rel_tol=REF_RTOL[kind], abs_tol=atol):
            out.failures.append(f"{name} = {got!r}, reference {want!r} (rtol {REF_RTOL[kind]})")


# ----------------------------------------------------------------------
# library study (mode_spectrum)


def run_study(config_path: Path) -> dict:
    """analyze + evolve_mode + decay bound + perturbed surface + field grid."""
    from tumordyn import cli, fields, stability

    config = cli.load_config(config_path)
    study = config.options["study"]
    params = config.params
    n_max = study["n_max"]
    report = stability.analyze(params, n_max=n_max)
    orbit = report.orbit
    T = orbit.period
    rho0 = study["rho0"]
    evolve = [
        [stability.evolve_mode(orbit, n, 0, rho0, t * T) for t in study["evolve_times"]]
        for n in range(n_max + 1)
    ]
    decay = None
    if report.verdict is stability.Verdict.LINEARLY_STABLE:
        d = stability.mode_decay_bound_check(orbit, n_range=range(2, n_max + 1))
        decay = {"ok": bool(d.ok), "delta_hat": d.delta_hat, "floor": d.candidate_floor}
    n_theta, n_phi = study["surface_grid"]
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    epsilon = 0.01 * orbit.R_min
    surfaces = [
        fields.perturbed_surface(orbit, study["surface_modes"], epsilon, t * T, thetas, phis).ravel().tolist()
        for t in study["surface_times"]
    ]
    n_r, n_t = study["field_grid"]
    grid = []
    for t in np.linspace(0.0, T, n_t, endpoint=False):
        t = float(t)
        R = orbit(t)
        b = fields.boundary_derivatives(orbit, t)
        grid.append({
            "t": t,
            "R": R,
            "phi": params.schedule(t),
            "sigma": [fields.sigma_star(orbit, float(x) * R, t) for x in np.linspace(0.0, 1.0, n_r)],
            "p": [fields.p_star(orbit, float(x) * R, t) for x in np.linspace(0.0, 1.0, n_r)],
            "boundary": [b.dsigma_dr, b.d2sigma_dr2, b.dp_dr, b.d2p_dr2],
        })
    return {
        "R_star0": orbit.R_star0,
        "residual": orbit.residual,
        "period": T,
        "verdict": report.verdict.value,
        "thresholds": report.thresholds.tolist(),
        "lambdas": [e.lambda_bar for e in report.exponents],
        "evolve": evolve,
        "decay": decay,
        "surfaces": surfaces,
        "fields": grid,
    }


# ----------------------------------------------------------------------
# checks; each returns the values compared against the reference


def _params(op):
    p = op["config"]["params"]
    return p["mu"], p["sigma_tilde"], p["gamma"], mean_phi(op["config"]["schedule"])


def _check_spectrum(mu, thresholds, lambdas, verdict, fail, band=MARGINAL_BAND):
    if abs(lambdas[1]) > LAMBDA1_ATOL:
        fail.append(f"Lambda_1 = {lambdas[1]!r}, not 0")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        fail.append("theta_n not strictly increasing")
    theta2 = thresholds[0]
    if abs(mu - theta2) <= band * theta2:
        want = "Marginal"
    else:
        want = "LinearlyStable" if mu < theta2 else "LinearlyUnstable"
    if verdict != want:
        fail.append(f"verdict {verdict} but mu={mu!r}, theta2={theta2!r}")
    for n, theta in enumerate(thresholds, start=2):
        if abs(mu - theta) > band * theta and (lambdas[n] > 0) != (mu < theta):
            fail.append(f"sign of Lambda_{n} disagrees with mu vs theta_{n}")
            break


def _check_orbit(r_star0, residual, fail, tol=ORBIT_TOL):
    if not r_star0 > 0:
        fail.append(f"R*_0 = {r_star0!r} not positive")
    if not residual <= tol * min(1.0, r_star0):
        fail.append(f"orbit residual {residual!r} exceeds tol {tol} * min(1, R*_0)")


def _csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_sweep(op, art, fail):
    _, _, _, mean = _params(op)
    rows = _csv(art["sweep.csv"])
    grid = op["config"]["sweep"]
    if len(rows) != len(grid["mu_grid"]) * len(grid["sigma_grid"]):
        fail.append(f"sweep.csv has {len(rows)} rows")
    values = {}
    for i, row in enumerate(rows):
        mu, sigma, verdict = float(row["mu"]), float(row["sigma_tilde"]), row["verdict"]
        if verdict == "Error":
            fail.append(f"row {i} (mu={mu:g}): {row['error']}")
            continue
        if (verdict == "Extinction") != (sigma >= mean):
            fail.append(f"row {i}: verdict {verdict} but sigma_tilde/mean = {sigma / mean:.6g}")
            continue
        if verdict == "Extinction":
            continue
        r0, theta2, lambda2 = float(row["R_star0"]), float(row["theta2"]), float(row["lambda2"])
        want = "LinearlyStable" if mu < theta2 else "LinearlyUnstable" if mu > theta2 else "Marginal"
        if verdict != want:
            fail.append(f"row {i}: verdict {verdict} but mu={mu!r}, theta2={theta2!r}")
        if mu != theta2 and (lambda2 > 0) != (mu < theta2):
            fail.append(f"row {i}: sign of Lambda_2 disagrees with mu vs theta_2")
        if not r0 > 0:
            fail.append(f"row {i}: R*_0 = {r0!r}")
        values.update({f"row{i}.R_star0": r0, f"row{i}.theta2": theta2, f"row{i}.lambda2": lambda2})
    return values


def check_stability(op, art, fail):
    mu, _, _, _ = _params(op)
    rep = json.loads(art["report.json"])
    lambdas = [e["lambda_bar"] for e in rep["exponents"]]
    if [e["n"] for e in rep["exponents"]] != list(range(len(lambdas))):
        fail.append("exponents not indexed 0..n_max")
    _check_spectrum(mu, rep["thresholds"], lambdas, rep["verdict"], fail)
    if rep["mu_star"] != rep["thresholds"][0]:
        fail.append("mu_star differs from theta_2")
    modes = _csv(art["modes.csv"])
    if len(modes) != len(lambdas):
        fail.append(f"modes.csv has {len(modes)} rows for {len(lambdas)} modes")
    values = {"theta2": rep["thresholds"][0], "lambda2": lambdas[2]}
    sc = rep["self_consistent_mu_star"]
    if op["config"]["stability"].get("self_consistent"):
        if not (isinstance(sc, float) and sc > 0):
            fail.append(f"self-consistent mu_star = {sc!r}")
        else:
            values["mu_star_sc"] = sc
    return values


def check_periodic(op, art, fail):
    _, sigma, _, mean = _params(op)
    if sigma >= mean:
        fail.append("periodic orbit reported although sigma_tilde >= mean(Phi)")
    s = json.loads(art["summary.json"])
    _check_orbit(s["R_star0"], s["residual"], fail, op["config"].get("periodic", {}).get("tol", ORBIT_TOL))
    if not s["R_min"] <= s["R_star0"] <= s["R_max"]:
        fail.append("R*_0 outside [R_min, R_max]")
    if not s["delta_hat"] >= 0.95 * s["delta_bound"]:
        fail.append("fitted rate below 95% of the analytic bound")
    rows = _csv(art["orbit.csv"])
    if float(rows[0]["R_star"]) != s["R_star0"]:
        fail.append("orbit.csv does not start at R*_0")
    if abs(float(rows[-1]["R_star"]) - s["R_star0"]) > s["residual"] * (1 + 1e-12):
        fail.append("orbit.csv does not close within the residual")
    return {"R_star0": s["R_star0"], "delta_hat": s["delta_hat"]}


def check_simulate(op, art, fail):
    _, sigma, _, mean = _params(op)
    s = json.loads(art["summary.json"])
    extinct = sigma >= mean
    if (s["verdict"] == "Extinction") != extinct:
        fail.append(f"verdict {s['verdict']} but sigma_tilde/mean = {sigma / mean:.6g}")
    if extinct:
        chk = s.get("extinction_check", {})
        if not (chk.get("nonincreasing_ok") is True and chk.get("within_period_cap_ok") is True):
            fail.append(f"extinction_check flags false: {chk.get('violations')}")
    elif "extinction_check" in s:
        fail.append("extinction_check on a persistence run")
    sim = op["config"]["simulate"]
    rows = _csv(art["trajectory.csv"])
    if len(rows) != sim["n_periods"] * sim["samples_per_period"] + 1:
        fail.append(f"trajectory.csv has {len(rows)} rows")
    if float(rows[-1]["R"]) != s["final_radius"]:
        fail.append("final_radius differs from the last trajectory row")
    if not all(float(r["R"]) > 0 for r in rows):
        fail.append("non-positive radius in trajectory.csv")
    return {"final_radius": s["final_radius"]}


def check_study(op, art, fail):
    mu, _, gamma, _ = _params(op)
    st = op["config"]["study"]
    s = json.loads(art["study.json"])
    lambdas, T, rho0 = s["lambdas"], s["period"], st["rho0"]
    _check_orbit(s["R_star0"], s["residual"], fail)
    _check_spectrum(mu, s["thresholds"], lambdas, s["verdict"], fail)
    for n, row in enumerate(s["evolve"]):
        for t, got in zip(st["evolve_times"], row):
            if t == int(t):
                want = rho0 * math.exp(-lambdas[n] * int(t) * T)
                if not math.isclose(got, want, rel_tol=ENVELOPE_RTOL, abs_tol=1e-300):
                    fail.append(f"evolve_mode(n={n}, t={t}T) = {got!r}, exp envelope {want!r}")
    if s["verdict"] == "LinearlyStable" and not (s["decay"] and s["decay"]["ok"]):
        fail.append(f"cubic decay floor check failed: {s['decay']}")
    n_surface = st["surface_grid"][0] * st["surface_grid"][1]
    if any(len(v) != n_surface or not all(math.isfinite(x) for x in v) for v in s["surfaces"]):
        fail.append("perturbed surface malformed")
    for g in s["fields"]:
        if not math.isclose(g["sigma"][-1], g["phi"], rel_tol=1e-13):
            fail.append(f"sigma*(R*, t={g['t']}) != Phi(t)")
        if not math.isclose(g["p"][-1], gamma / g["R"], rel_tol=1e-12):
            fail.append(f"p*(R*, t={g['t']}) != gamma/R*")
    return {"R_star0": s["R_star0"], "theta2": s["thresholds"][0], "lambda2": lambdas[2]}


CHECKS = {
    "sweep": check_sweep,
    "stability": check_stability,
    "periodic": check_periodic,
    "simulate": check_simulate,
    "study": check_study,
}
