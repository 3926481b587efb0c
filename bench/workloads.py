"""Seeded generator of benchmark ops.

A workload is an endless sequence of blocks.  Every block holds the same
slots in the same order (command, sigma band, schedule form, horizon); the
seed picks one of ``VARIANTS`` jitter variants for each op: sigma_tilde
inside its band, the schedule's amplitude or coefficients, gamma, R0 and a
shift of mu by at most 4%.  The draw is stratified (see ``generate``), so
runs of whole cycles do the same work in a seed-dependent order, and every
generated op lies on a finite lattice whose outputs are recorded in
``reference.json`` (``record_reference.py``).

Every block ends with one input that is known to fail at the commit that
defined the benchmark (ROADMAP: mu = 1e3 and 1e4, sigma_tilde = 1e-9,
n_max = 100; and two defects found with this benchmark: orbit solves on
piecewise-linear supplies, extinction diagnostics under a constant supply).
Those ops are flagged ``known_failure`` and count in ``error_rate``.

Ops are plain JSON-serialisable dicts:
  kind      "cli" (tumordyn.cli.main in-process) or "study" (library calls)
  command   CLI command, or "study"
  config    version-1 CLI config (a study reads params/schedule and "study")
"""

from __future__ import annotations

import hashlib
import json
import math
import random

VARIANTS = 3
MAX_SLOTS = 16

# The ROADMAP's probes run on its default config.
PROBE_BASE = {
    "version": 1,
    "params": {"mu": 1.0, "sigma_tilde": 0.9, "gamma": 1.0},
    "schedule": {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": 0.5},
}

# sigma_tilde / mean(Phi) per band; variant j picks the j-th of VARIANTS
# evenly spaced points inside the band.
BANDS = {
    "tiny": (0.8e-3, 1.2e-3),
    "low": (0.25, 0.32),
    "mid": (0.55, 0.65),
    "near": (0.95, 0.99),
    "ext": (1.01, 1.2),
}


def _lerp(lo: float, hi: float, j: int) -> float:
    return lo + (hi - lo) * (j + 0.5) / VARIANTS


def _round(x: float) -> float:
    # configs carry 12 significant digits so they read back exactly
    return float(f"{x:.12g}")


def schedule(form: str, j: int) -> tuple[dict, float]:
    """Schedule spec of the given form and variant, with its period mean."""
    s = _lerp(0.9, 1.05, j)
    if form == "constant":
        value = _round(_lerp(0.9, 1.1, j))
        return {"form": "constant", "period": 1.0, "value": value}, value
    if form == "sinusoid":
        return {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": _round(0.5 * s)}, 1.0
    if form == "fourier":
        spec = {
            "form": "fourier",
            "period": 1.0,
            "mean": 1.0,
            "cos": [_round(0.25 * s), _round(0.08 * s)],
            "sin": [_round(0.15 * s), _round(-0.05 * s)],
        }
        return spec, 1.0
    if form == "piecewise":
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = [1.0, _round(1.0 + 0.4 * s), _round(1.0 - 0.3 * s), _round(1.0 - 0.1 * s), 1.0]
        mean = sum((values[i] + values[i + 1]) * 0.125 for i in range(4))
        return {"form": "piecewise", "period": 1.0, "times": times, "values": values}, mean
    raise ValueError(form)


def _config(form: str, j: int, band: str, mu: float, **sections) -> dict:
    spec, mean = schedule(form, j)
    cfg = {
        "version": 1,
        "params": {
            "mu": _round(mu * (1.0 + 0.02 * (j - 1))),
            "sigma_tilde": _round(_lerp(*BANDS[band], j) * mean),
            "gamma": _round(sections.pop("gamma", 1.0) * _lerp(0.8, 1.25, j)),
        },
        "schedule": spec,
    }
    cfg.update(sections)
    return cfg


def _op(command: str, config: dict, known_failure: str | None = None) -> dict:
    return {
        "kind": "study" if command == "study" else "cli",
        "command": command,
        "config": config,
        "known_failure": known_failure,
    }


def _probe(command: str, name: str, params=None, **sections) -> dict:
    cfg = dict(PROBE_BASE, **sections)
    if params:
        cfg["params"] = dict(PROBE_BASE["params"], **params)
    return _op(command, cfg, known_failure=name)


def _piecewise_orbit(command: str, **sections) -> dict:
    # find_periodic misses its 1e-11 residual on this piecewise supply
    cfg = dict(PROBE_BASE, **sections)
    cfg["params"] = dict(PROBE_BASE["params"], sigma_tilde=0.3)
    cfg["schedule"] = {"form": "piecewise", "period": 1.0, "times": [0.0, 0.25, 0.5, 0.75, 1.0],
                       "values": [1.0, 1.36, 0.73, 0.91, 1.0]}
    if command == "sweep":
        cfg["sweep"] = {"mu_grid": [1.0], "sigma_grid": [0.3]}
    return _op(command, cfg, known_failure="piecewise orbit")


# ----------------------------------------------------------------------
# sweep_grid: orbit solving (periodic, radial, nutrient, scalar p0)

MU_ROW = (0.1, 100.0**0.5 * 0.1**0.5, 100.0)  # log-spaced over [0.1, 100]


def _sweep_row(band: str, form: str, j: int) -> dict:
    cfg = _config(form, j, band, 1.0)
    shift = 1.0 - 0.02 * j  # keeps the row inside [0.1, 100]
    cfg["sweep"] = {"mu_grid": [_round(m * shift) for m in MU_ROW], "sigma_grid": [cfg["params"]["sigma_tilde"]]}
    return _op("sweep", cfg)


def _sweep_probe(b: int) -> dict:
    k = b % 3
    if k == 2:
        return _piecewise_orbit("sweep")
    mu_bad = (1e3, 1e4)[k]
    return _probe("sweep", f"mu={mu_bad:g}", sweep={"mu_grid": [0.1, mu_bad], "sigma_grid": [0.9]})


def _sweep_block(b: int, pick) -> list[dict]:
    return [
        _sweep_row("tiny", "sinusoid", pick()),
        _sweep_row("low", "fourier", pick()),
        _sweep_row("mid", "sinusoid", pick()),
        _sweep_row("near", "constant", pick()),
        _sweep_row("ext", "piecewise", pick()),
        _sweep_row("ext", "fourier", pick()),
        # low band: mu = theta_2(orbit(mu)) has a root there
        _op("stability", _config("sinusoid", pick(), "low", 1.0, stability={"self_consistent": True})),
        _sweep_probe(b),
    ]


# ----------------------------------------------------------------------
# mode_spectrum: vector pn, stability, fields

STUDY = {
    "n_max": 64,
    "rho0": 1e-3,
    "evolve_times": [1.0, 2.0, 2.37],
    "surface_modes": [[2, 0, 1.0], [3, 1, 0.5], [4, -2, 0.25], [6, 3, 0.1]],
    "surface_grid": [16, 32],
    "surface_times": [0.5, 1.5],
    "field_grid": [8, 8],
}


def _study(band: str, form: str, j: int, mu: float, gamma: float) -> dict:
    return _op("study", _config(form, j, band, mu, gamma=gamma, study=STUDY))


def _spectrum_block(b: int, pick) -> list[dict]:
    probe = (
        _piecewise_orbit("study", study=STUDY)
        if b % 2
        else _probe("stability", "n_max=100", stability={"n_max": 100})
    )
    return [
        _study("low", "sinusoid", pick(), mu=1.0, gamma=1.0),
        _study("mid", "fourier", pick(), mu=3.0, gamma=0.05),
        _study("near", "constant", pick(), mu=0.5, gamma=0.5),
        _study("mid", "sinusoid", pick(), mu=2.0, gamma=2.0),
        _op("stability", _config("fourier", pick(), "mid", 1.5, stability={"n_max": 64})),
        _op("stability", _config("sinusoid", pick(), "near", 1.0, stability={"n_max": 32})),
        _op("stability", _config("constant", pick(), "low", 1.0, stability={"n_max": 64})),
        probe,
    ]


# ----------------------------------------------------------------------
# long_trajectory: many periods in one radial.integrate, large CSVs


def _simulate(band: str, form: str, j: int, mu: float, n_periods: int, samples: int) -> dict:
    sim = {"R0": _round(_lerp(0.5, 1.5, j)), "n_periods": n_periods, "samples_per_period": samples}
    return _op("simulate", _config(form, j, band, mu, simulate=sim))


def _periodic(band: str, form: str, j: int, mu: float, rate_periods: int) -> dict:
    per = {"tol": 1e-11, "rate_R0_factor": _round(_lerp(1.5, 2.5, j)), "rate_n_periods": rate_periods}
    return _op("periodic", _config(form, j, band, mu, periodic=per))


def _trajectory_probe(b: int) -> dict:
    k = b % 5
    if k == 3:
        return _piecewise_orbit("periodic", periodic={"rate_n_periods": 40})
    if k == 4:
        # constant supply below sigma_tilde: extinction_diagnostics' growth cap
        # exp(mu*(Phi_max - sigma_tilde)*T/3) < 1 flags the starting radius
        cfg = _config("constant", 1, "ext", 1.0, simulate={"n_periods": 30})
        return _op("simulate", cfg, known_failure="constant-supply extinction check")
    mu, sigma = [(1e3, 0.9), (1e4, 0.9), (1.0, 1e-9)][k]
    name = f"mu={mu:g}" if k < 2 else "sigma_tilde=1e-9"
    return _probe("periodic", name, params={"mu": mu, "sigma_tilde": sigma})


def _trajectory_block(b: int, pick) -> list[dict]:
    return [
        _simulate("low", "sinusoid", pick(), mu=1.0, n_periods=60, samples=64),
        _simulate("ext", "fourier", pick(), mu=1.0, n_periods=30, samples=64),
        _periodic("mid", "sinusoid", pick(), mu=0.5, rate_periods=40),
        _simulate("near", "piecewise", pick(), mu=2.0, n_periods=60, samples=128),
        _simulate("ext", "sinusoid", pick(), mu=0.5, n_periods=40, samples=32),
        _periodic("low", "fourier", pick(), mu=1.0, rate_periods=40),
        _simulate("mid", "fourier", pick(), mu=1.0, n_periods=40, samples=32),
        _trajectory_probe(b),
    ]


WORKLOADS = {
    "sweep_grid": _sweep_block,
    "mode_spectrum": _spectrum_block,
    "long_trajectory": _trajectory_block,
}


def generate(workload: str, seed: int, n_blocks: int) -> list[list[dict]]:
    """The first n_blocks blocks of a workload; same seed, same ops.

    The draw is stratified: within each cycle of VARIANTS blocks every slot
    takes every variant once, in an order drawn from the seed, so runs of
    whole cycles differ in op order and placement but not in work.
    """
    rng = random.Random(f"{workload}:{seed}")
    blocks = []
    for b in range(n_blocks):
        if b % VARIANTS == 0:
            orders = [rng.sample(range(VARIANTS), VARIANTS) for _ in range(MAX_SLOTS)]
        slots = iter(orders)
        ops = WORKLOADS[workload](b, lambda: next(slots)[b % VARIANTS])
        for k, op in enumerate(ops):
            op["id"] = f"{workload}-b{b:03d}-{k}"
            op["key"] = op_key(op)
        blocks.append(ops)
    return blocks


def op_key(op: dict) -> str:
    """Identity of an op's inputs; keys reference.json."""
    body = json.dumps([op["command"], op["config"]], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def lattice(workload: str) -> list[dict]:
    """Every distinct non-probe op the generator can emit for a workload."""
    seen = {}
    for j in range(VARIANTS):  # every block holds the same non-probe slots
        for op in WORKLOADS[workload](0, lambda: j):
            if op["known_failure"] is None:
                op["id"] = f"{workload}-lattice"
                op["key"] = op_key(op)
                seen.setdefault(op["key"], op)
    return list(seen.values())
