"""Batch driver: simulate / periodic / stability / sweep commands.

Runs are described by a single versioned JSON config file and emit
deterministic CSV/JSON artifacts (17 significant digits, sorted JSON keys,
LF line endings), so identical configs reproduce byte-identical outputs.

Exit codes: 0 success, 1 runtime/solver failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import periodic as periodic_mod
from . import radial, stability
from .errors import ScheduleError, TumordynError
from .nutrient import schedule_from_spec
from .radial import Classification, ModelParams

CONFIG_VERSION = 1
# the keys each section may hold; other top-level sections are ignored
SECTION_KEYS = {
    "params": ("mu", "sigma_tilde", "gamma"),
    "simulate": ("R0", "n_periods", "samples_per_period"),
    "periodic": ("tol", "rate_R0_factor", "rate_n_periods"),
    "stability": ("n_max", "self_consistent"),
    "sweep": ("mu_grid", "sigma_grid"),
}
# Work limits, with costs measured for a sinusoid supply on a 2-core x86-64
# machine.  analyze evaluates every order up to n_max (~0.15 s at the limit on
# a collocated orbit, ~0.45 s on a shot one); simulate and the periodic rate
# fit integrate every period they are given (~0.7 ms per period at mu = 1, ~4
# ms at mu = 100 at simulate's tolerances, at most ~1.5x that in the rate fit's
# deviation solve); and
# simulate writes ~30 bytes per sample (~2 us each).  So every count is bounded.
_N_MAX_LIMIT = 10_000
_PERIODS_LIMIT = 10_000
_ROWS_LIMIT = 1_000_000


class ConfigError(ValueError):
    pass


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' pool, imported by a parallel sweep only."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


class NonFiniteError(TumordynError, ValueError):
    """A result to be written is NaN or infinite: a failure, not bad input."""


# ----------------------------------------------------------------------
# deterministic serialization


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise NonFiniteError(f"cannot serialize non-finite number {v}")
    return f"{v:.17g}"


def _json_dumps(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{inner}{_json_dumps(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv(header: list[str], rows) -> str:
    """None is an empty cell, a str is written as is, any other cell goes
    through _fmt; a pair of finite floats takes _fmt's format in one
    %-format, which writes the same digits as its f-string."""
    isfinite = math.isfinite
    lines = [",".join(header)]
    for row in rows:
        if len(row) == 2:
            a, b = row
            if type(a) is float and type(b) is float and isfinite(a) and isfinite(b):
                lines.append("%.17g,%.17g" % (a, b))
                continue
        lines.append(",".join("" if v is None else (v if isinstance(v, str) else _fmt(v)) for v in row))
    return "\n".join(lines) + "\n"


def _write_all(out: Path, artifacts: dict[str, str]) -> None:
    """Each file is written under a hidden temporary name in out and renamed
    over its own, so a reader never sees half a file."""
    for name, text in artifacts.items():
        tmp = out / f".{name}.tmp"
        try:
            out.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8", newline="\n")
            os.replace(tmp, out / name)
        except OSError as exc:
            raise ConfigError(f"cannot write {out / name}: {exc}") from exc


# ----------------------------------------------------------------------
# config


@dataclass
class RunConfig:
    params: ModelParams
    options: dict


def load_config(path: Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("the config must be a JSON object")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {raw.get('version')!r}; expected {CONFIG_VERSION}"
        )
    if "schedule" not in raw or "params" not in raw:
        raise ConfigError("config requires 'params' and 'schedule' sections")
    for section, keys in SECTION_KEYS.items():
        opts = raw.get(section, {})
        if not isinstance(opts, dict):
            raise ConfigError(f"the {section} section must be a JSON object")
        for key in opts:
            if key not in keys:
                raise ConfigError(f"unknown config key {section}.{key}")
    schedule = schedule_from_spec(raw["schedule"])
    p = raw["params"]
    for key in SECTION_KEYS["params"]:
        if not _is_real(p.get(key)):
            raise ConfigError(f"params.{key} must be a finite JSON number, got {p.get(key)!r}")
    try:
        params = ModelParams(
            mu=float(p["mu"]),
            sigma_tilde=float(p["sigma_tilde"]),
            gamma=float(p["gamma"]),
            schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid params section: {exc}") from exc
    return RunConfig(params=params, options=raw)


def _is_real(x) -> bool:
    """A JSON number that fits a float; a bool is not a number here."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _positive(opts: dict, section: str, key: str, default: float) -> float:
    x = opts.get(key, default)
    if not (_is_real(x) and x > 0.0):
        raise ConfigError(f"{section}.{key} must be a positive number, got {x!r}")
    return float(x)


def _count(opts: dict, section: str, key: str, default: int, low: int, high: int | None = None) -> int:
    n = opts.get(key, default)
    if not (type(n) is int and _is_real(n) and n >= low):
        raise ConfigError(f"{section}.{key} must be an integer >= {low} within float range, got {n!r}")
    if high is not None and n > high:
        raise ConfigError(f"{section}.{key} must be at most {high}, got {n}")
    return n


def _span(params: ModelParams, key: str, n_periods: int) -> float:
    """The time n_periods * T, which must be a float."""
    if not math.isfinite(t1 := n_periods * params.period):
        raise ConfigError(f"{key} * period = {n_periods} * {params.period!r} is past the float range")
    return t1


def _params_summary(params: ModelParams) -> dict:
    return {
        "mu": params.mu,
        "sigma_tilde": params.sigma_tilde,
        "gamma": params.gamma,
        "period": params.period,
    }


# ----------------------------------------------------------------------
# commands


def cmd_simulate(config: RunConfig) -> dict[str, str]:
    opts = config.options.get("simulate", {})
    R0 = _positive(opts, "simulate", "R0", 1.0)
    n_periods = _count(opts, "simulate", "n_periods", 10, 1, _PERIODS_LIMIT)
    samples = _count(opts, "simulate", "samples_per_period", 64, 1)
    if n_periods * samples > _ROWS_LIMIT:
        raise ConfigError(
            f"simulate.n_periods * simulate.samples_per_period must be at most {_ROWS_LIMIT}, "
            f"got {n_periods * samples}"
        )
    params = config.params
    t1 = _span(params, "simulate.n_periods", n_periods)
    t_eval = np.linspace(0.0, t1, n_periods * samples + 1)
    traj = radial.integrate(params, R0, t1).resample(t_eval)
    trajectory = _csv(["t", "R"], zip(traj.times.tolist(), traj.radii.tolist()))

    verdict = radial.classify_radial(params)
    summary = {
        "params": _params_summary(params),
        "R0": R0,
        "n_periods": n_periods,
        "verdict": verdict.value,
        "final_radius": float(traj.radii[-1]),
    }
    if verdict is Classification.EXTINCTION:
        report = radial.extinction_diagnostics(params, traj)
        summary["extinction_check"] = {
            "period_radii": list(report.period_radii),
            "nonincreasing_ok": report.nonincreasing_ok,
            "within_period_cap_ok": report.cap_ok,
            "violations": list(report.violations),
        }
    return {"trajectory.csv": trajectory, "summary.json": _json_dumps(summary) + "\n"}


def cmd_periodic(config: RunConfig) -> dict[str, str]:
    opts = config.options.get("periodic", {})
    tol = _positive(opts, "periodic", "tol", periodic_mod.DEFAULT_TOL)
    rate_factor = _positive(opts, "periodic", "rate_R0_factor", 2.0)
    least = periodic_mod.RATE_BURN_IN + periodic_mod.RATE_FIT_MARKS - 1
    rate_periods = _count(opts, "periodic", "rate_n_periods", 30, least, _PERIODS_LIMIT)
    params = config.params
    _span(params, "periodic.rate_n_periods", rate_periods)
    orbit = periodic_mod.find_periodic(params, tol=tol)
    orbit_csv = _csv(["t", "R_star"], zip(orbit.times.tolist(), orbit.radii.tolist()))

    R0 = rate_factor * orbit.R_star0
    if not math.isfinite(R0):
        raise TumordynError("the rate fit's start rate_R0_factor * R*(0) left the floating-point range")
    fit = periodic_mod.convergence_rate(orbit, R0, rate_periods)
    summary = {
        "params": _params_summary(params),
        "R_star0": orbit.R_star0,
        "R_min": orbit.R_min,
        "R_max": orbit.R_max,
        "residual": orbit.residual,
        "delta_hat": fit.delta_hat,
        "delta_bound": fit.delta_bound,
    }
    return {"orbit.csv": orbit_csv, "summary.json": _json_dumps(summary) + "\n"}


def cmd_stability(config: RunConfig) -> dict[str, str]:
    opts = config.options.get("stability", {})
    n_max = _count(opts, "stability", "n_max", stability.DEFAULT_N_MAX, 2, _N_MAX_LIMIT)
    self_consistent = opts.get("self_consistent", False)
    if type(self_consistent) is not bool:
        raise ConfigError(f"stability.self_consistent must be true or false, got {self_consistent!r}")
    params = config.params
    report = stability.analyze(params, n_max=n_max)
    for e in report.exponents:
        if math.isinf(e.floquet_multiplier):
            x = -e.lambda_bar * params.period
            raise TumordynError(f"Floquet multiplier of mode {e.mode} overflows: -Lambda_n T = {x:.6g} "
                                "is past the float range")
    exponents = [
        {"n": e.mode, "lambda_bar": e.lambda_bar, "multiplier": e.floquet_multiplier}
        for e in report.exponents
    ]
    summary = {
        "params": _params_summary(params),
        "mu_star": report.thresholds[0],
        "self_consistent_mu_star": stability.mu_star(params) if self_consistent else None,
        "thresholds": list(report.thresholds),
        "exponents": exponents,
        "verdict": report.verdict.value,
    }
    rows = [(e.mode, report.thresholds[e.mode - 2] if e.mode >= 2 else None, e.lambda_bar)
            for e in report.exponents]
    return {"report.json": _json_dumps(summary) + "\n", "modes.csv": _csv(["n", "theta_n", "lambda_n"], rows)}


SWEEP_COLUMNS = ["mu", "sigma_tilde", "verdict", "R_star0", "theta2", "lambda2", "error"]


def _sweep_row(args) -> tuple:
    """One sweep.csv row, in SWEEP_COLUMNS order."""
    params, mu, sigma = args
    try:
        trial = replace(params, mu=mu, sigma_tilde=sigma)
        if radial.classify_radial(trial) is Classification.EXTINCTION:
            return (mu, sigma, Classification.EXTINCTION.value, None, None, None, "")
        report = stability.analyze(trial, n_max=2)
    except TumordynError as exc:
        return (mu, sigma, "Error", None, None, None, str(exc))
    return (
        mu, sigma, report.verdict.value, report.orbit.R_star0,
        report.thresholds[0], report.exponents[2].lambda_bar, "",
    )


def cmd_sweep(config: RunConfig, workers: int) -> dict[str, str]:
    opts = config.options.get("sweep", {})
    grids = [opts.get("mu_grid", [config.params.mu]), opts.get("sigma_grid", [config.params.sigma_tilde])]
    if not all(type(g) is list and g and all(map(_is_real, g)) for g in grids):
        raise ConfigError("sweep grids must be non-empty lists of finite numbers")
    mu_grid, sigma_grid = ([float(x) for x in g] for g in grids)
    if min(mu_grid) <= 0.0 or min(sigma_grid) < 0.0:
        raise ConfigError("sweep grids need mu > 0 and sigma_tilde >= 0")
    if any(b <= a for a, b in zip(mu_grid, mu_grid[1:])) or any(
        b <= a for a, b in zip(sigma_grid, sigma_grid[1:])
    ):
        raise ConfigError("sweep grids must be strictly increasing")

    jobs = [(config.params, mu, sigma) for sigma in sigma_grid for mu in mu_grid]
    # the pool forks all its workers at once, so never more than rows or cores
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]

    if all(r[2] == "Error" for r in rows):
        raise TumordynError("every sweep row failed")
    return {"sweep.csv": _csv(SWEEP_COLUMNS, rows)}


# ----------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumordyn",
        description="Periodic tumor-radius dynamics and linear stability driver",
    )
    parser.add_argument("command", choices=["simulate", "periodic", "stability", "sweep"])
    parser.add_argument("--config", required=True, type=Path, help="JSON run config")
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="sweep worker count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = load_config(args.config)
        # each command is looked up at call time, so a wrapper set on the
        # module (as a tracer does) takes effect
        if args.command == "simulate":
            artifacts = cmd_simulate(config)
        elif args.command == "periodic":
            artifacts = cmd_periodic(config)
        elif args.command == "stability":
            artifacts = cmd_stability(config)
        else:
            artifacts = cmd_sweep(config, args.workers)
        # nothing reaches disk until the command has returned every artifact
        _write_all(args.out, artifacts)
    except (ConfigError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TumordynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
