import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tumordyn import cli, periodic, radial, specfun, stability
from tumordyn.cli import main

BASE = {
    "version": 1,
    "params": {"mu": 1.0, "sigma_tilde": 0.9, "gamma": 1.0},
    "schedule": {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": 0.5},
}


def write_config(tmp_path, extra=None, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(extra or {})
    for key, val in overrides.items():
        cfg["params"][key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(command, config, out):
    return main([command, "--config", str(config), "--out", str(out)])


class TestSimulate:
    def test_persistence_run(self, tmp_path):
        cfg = write_config(tmp_path, extra={"simulate": {"R0": 1.0, "n_periods": 5}})
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,R"
        assert len(rows) == 5 * 64 + 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "Persistence"
        assert summary["final_radius"] > 0.0
        assert "extinction_check" not in summary

    def test_extinction_run_has_diagnostics(self, tmp_path):
        cfg = write_config(
            tmp_path, extra={"simulate": {"R0": 1.0, "n_periods": 20}}, sigma_tilde=1.2
        )
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "Extinction"
        check = summary["extinction_check"]
        assert check["nonincreasing_ok"] is True
        assert check["within_period_cap_ok"] is True
        assert check["violations"] == []

    def test_extinction_run_integrates_once(self, tmp_path, monkeypatch):
        calls = []
        inner = radial.integrate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(radial, "integrate", counted)
        cfg = write_config(
            tmp_path, extra={"simulate": {"R0": 1.0, "n_periods": 8}}, sigma_tilde=1.2
        )
        assert run("simulate", cfg, tmp_path / "out") == 0
        assert "extinction_check" in json.loads((tmp_path / "out" / "summary.json").read_text())
        assert calls == [1.0]

    @pytest.mark.parametrize("params, schedule", [({"mu": 1e308}, {}), ({}, {"period": 1e300})])
    def test_stalled_solve_one_line_exit_1(self, tmp_path, capsys, params, schedule):
        """A solve that would crawl at its minimum step fails at the step cap."""
        cfg = json.loads(json.dumps(BASE))
        cfg["params"].update(params)
        cfg["schedule"].update(schedule)
        cfg["simulate"] = {"R0": 1.0, "n_periods": 1, "samples_per_period": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        start = time.perf_counter()
        assert run("simulate", path, tmp_path / "out") == 1
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err == "error: integration failed: more than 100000 steps\n"

    def test_cap_past_the_float_range_bounds_nothing(self, tmp_path, capsys):
        # a spike to 50 at mu = 50 puts the cap exp(mu (Phi_max - sigma_tilde) T / 3) =
        # exp(816.7) past the float range: it is inf, bounds nothing, and the check holds
        spike = {"form": "piecewise", "period": 1.0, "times": [0.0, 0.49, 0.5, 0.51, 1.0],
                 "values": [0.5, 0.5, 50.0, 0.5, 0.5]}
        cfg = write_config(tmp_path, {"schedule": spike, "simulate": {"R0": 1.0, "n_periods": 2}},
                           mu=50.0, sigma_tilde=1.0)
        assert run("simulate", cfg, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdict"] == "Extinction"
        assert summary["extinction_check"]["within_period_cap_ok"] is True


class TestPeriodic:
    def test_summary_fields(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("periodic", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual"] <= 1e-11
        assert summary["R_min"] <= summary["R_star0"] <= summary["R_max"]
        assert summary["delta_hat"] >= 0.95 * summary["delta_bound"]
        orbit_rows = (out / "orbit.csv").read_text().splitlines()
        assert orbit_rows[0] == "t,R_star"

    def test_tiny_sigma_tilde_finishes(self, tmp_path):
        # R* ~ 3e9, where the rate bound's P0' is past the recurrence's depth cap
        cfg = write_config(tmp_path, sigma_tilde=1e-9)
        out = tmp_path / "out"
        assert run("periodic", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["R_star0"] > 1e9
        assert summary["residual"] <= 1e-11
        assert summary["delta_hat"] >= 0.95 * summary["delta_bound"] > 0.0

    def test_motionless_rate_start_one_line_exit_1(self, tmp_path, capsys):
        # from 1e-300 R*(0) the marks do not move and the rate bound underflows to 0
        cfg = write_config(tmp_path, {"periodic": {"rate_R0_factor": 1e-300}}, sigma_tilde=0.5)
        assert run("periodic", cfg, tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: the period marks did not approach R*(0): fitted rate -0\n"
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_huge_rate_start_writes_nothing_to_stderr(self, tmp_path):
        # the rate bound reads P0' at R_max * 1e200, where r^3 overflows to inf
        cfg = write_config(tmp_path, {"periodic": {"rate_R0_factor": 1e200}})
        proc = subprocess.run(
            [sys.executable, "-m", "tumordyn.cli", "periodic", "--config", str(cfg), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_no_periodic_solution_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, sigma_tilde=1.5)
        assert run("periodic", cfg, tmp_path / "out") == 1

    @pytest.mark.parametrize("command", ["periodic", "stability"])
    def test_no_periodic_solution_message_once(self, tmp_path, capsys, command):
        # the error's own line, not wrapped in a second copy of its text
        cfg = write_config(tmp_path, sigma_tilde=1.2)
        assert run(command, cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "error: no positive periodic solution: sigma_tilde >= mean nutrient supply\n"

    def test_rate_fit_failure_one_line_exit_1(self, tmp_path, capsys):
        # period marks ~1e-300 apart: R(kT) does not move, so the fitted rate is 0
        cfg = write_config(tmp_path, {"schedule": {**BASE["schedule"], "period": 1e-300}})
        assert run("periodic", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "error: fitted rate -0 fell below 95% of the analytic bound 0.0286456\n"

    def test_rate_fit_stops_at_rounding_floor(self, tmp_path, capsys):
        # at mu = 30 |R(kT) - R*(0)| falls below 1e-12 R*(0) at period 8, before the burn-in ends
        cfg = write_config(tmp_path, mu=30.0, sigma_tilde=0.6)
        assert run("periodic", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |R(kT) - R*(0)| fell to the rounding floor 1e-12 R*(0) at period 8, ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBlasThreads:
    """No artifact depends on the BLAS thread count: no package path calls
    LAPACK, neither the orbit solve nor the Gauss-Legendre rule of a shot
    orbit's integrals, a table of constants; each run gives the same bytes
    at one and two threads."""

    @staticmethod
    def _runs(tmp_path, command, config):
        """(exit code, stderr, artifact bytes) of one CLI run under each of
        OPENBLAS_NUM_THREADS = 1 and 2."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "tumordyn.cli", command, "--config", str(cfg), "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
                     "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=120,
            )
            runs.append((proc.returncode, proc.stderr, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        return runs

    @pytest.mark.parametrize("params, schedule", [
        ({"mu": 100.0, "sigma_tilde": 0.6}, BASE["schedule"]),
        ({"mu": 3.16, "sigma_tilde": 0.3},
         {"form": "fourier", "period": 1.0, "mean": 1.0, "cos": [0.25, 0.08], "sin": [0.15, -0.05]}),
    ], ids=["sinusoid-mu100", "fourier"])
    def test_periodic_bytes(self, tmp_path, params, schedule):
        config = dict(BASE, params=dict(BASE["params"], **params), schedule=schedule)
        runs = self._runs(tmp_path, "periodic", config)
        # at mu = 100 the rate fit fails (exit 1) after orbit.csv is written
        assert "orbit.csv" in runs[0][2]
        assert runs[0] == runs[1]

    def test_shot_stability_bytes(self, tmp_path):
        """A piecewise supply's orbit is shot, so its exponents take the
        Gauss-Legendre panels, whose rule is a table of constants."""
        config = dict(
            BASE,
            params={"mu": 1.0, "sigma_tilde": 0.5, "gamma": 1.0},
            schedule={"form": "piecewise", "period": 1.0,
                      "times": [0.0, 0.3, 0.55, 1.0], "values": [1.0, 1.8, 0.4, 1.0]},
            stability={"n_max": 8},
        )
        runs = self._runs(tmp_path, "stability", config)
        assert runs[0][0] == 0 and "report.json" in runs[0][2]
        assert runs[0] == runs[1]


class TestStability:
    def test_report(self, tmp_path):
        cfg = write_config(tmp_path, extra={"stability": {"n_max": 6}})
        out = tmp_path / "out"
        assert run("stability", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "LinearlyStable"
        assert report["mu_star"] == pytest.approx(64.0499443, rel=1e-6)
        assert len(report["thresholds"]) == 5
        assert report["self_consistent_mu_star"] is None
        assert report["params"]["mu"] == 1.0 and "mu" not in report
        modes = (out / "modes.csv").read_text().splitlines()
        assert modes[0] == "n,theta_n,lambda_n"
        # modes 0 and 1 carry no threshold column entry
        assert modes[1].split(",")[1] == ""


    def test_self_consistent_mu_star(self, tmp_path):
        cfg = write_config(
            tmp_path, extra={"stability": {"n_max": 2, "self_consistent": True}}, sigma_tilde=0.5
        )
        out = tmp_path / "out"
        assert run("stability", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["self_consistent_mu_star"] == stability.mu_star(cli.load_config(cfg).params)

    def test_self_consistent_walk_failure_one_line_exit_1(self, tmp_path, capsys):
        # the README's sigma_tilde = 0.9 has orbits, so the failure is not
        # "no positive periodic solution": it names where the walk stopped
        cfg = write_config(tmp_path, extra={"stability": {"n_max": 2, "self_consistent": True}})
        assert run("stability", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: self-consistent mu_star not bracketed in [1e-6, 1e6]: ")
        assert err.count("\n") == 1 and "no positive periodic solution" not in err

    def test_high_n_max(self, tmp_path):
        cfg = write_config(tmp_path, extra={"stability": {"n_max": 100}})
        out = tmp_path / "out"
        assert run("stability", cfg, out) == 0
        assert len((out / "modes.csv").read_text().splitlines()) == 1 + 101

    def test_multiplier_overflow_one_line_exit_1(self, tmp_path, capsys):
        # -Lambda_5 T = 842 puts mode 5's Floquet multiplier past the float range
        cfg = write_config(
            tmp_path,
            extra={
                "schedule": {"form": "constant", "period": 5.286, "value": 1.8587749795474482},
                "stability": {"n_max": 8},
                "sweep": {"mu_grid": [338.9]},
            },
            mu=338.9, sigma_tilde=0.7578, gamma=0.588,
        )
        assert run("stability", cfg, tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: Floquet multiplier of mode 5 overflows: "
            "-Lambda_n T = 842.354 is past the float range\n"
        )
        assert not (tmp_path / "out").exists()
        # a sweep row reads only Lambda_2, which the full analysis has too
        assert run("sweep", cfg, tmp_path / "sweep") == 0
        row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
        report = stability.analyze(cli.load_config(cfg).params, n_max=8)
        assert row[2] == report.verdict.value == "LinearlyUnstable"
        assert float(row[5]) == report.exponents[2].lambda_bar

    def test_n_max_limit_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra={"stability": {"n_max": 10_001}})
        assert run("stability", cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: stability.n_max must be at most 10000, got 10001\n"

    @pytest.mark.parametrize("n_max", [1, 0, 2.5, "abc", True])
    def test_bad_n_max(self, tmp_path, capsys, n_max):
        cfg = write_config(tmp_path, extra={"stability": {"n_max": n_max}})
        assert run("stability", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSweep:
    SWEEP = {
        "sweep": {
            "mu_grid": [0.1, 0.5, 1.0],
            "sigma_grid": [0.5, 0.9, 1.1],
        }
    }

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.SWEEP)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("sweep", cfg, out1) == 0
        assert run("sweep", cfg, out2) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_verdict_flips(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.SWEEP)
        out = tmp_path / "out"
        assert run("sweep", cfg, out) == 0
        rows = [
            line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()[1:]
        ]
        by = {(float(r[0]), float(r[1])): r[2] for r in rows}
        # sigma crossing the mean supply (1.0) flips to Extinction
        assert by[(1.0, 0.9)] != "Extinction"
        assert by[(1.0, 1.1)] == "Extinction"
        # mu crossing theta_2 (~0.426 at sigma=0.5) flips the stability verdict
        assert by[(0.1, 0.5)] == "LinearlyStable"
        assert by[(0.5, 0.5)] == "LinearlyUnstable"
        assert by[(1.0, 0.5)] == "LinearlyUnstable"

    def test_marginal_band_matches_stability(self, tmp_path):
        # constant supply: theta_2 does not move with mu, so mu = theta_2*(1+1e-9)
        # lies inside the marginal band for both commands
        constant = {"schedule": {"form": "constant", "period": 1.0, "value": 1.0}}
        cfg = write_config(tmp_path, extra=constant, name="base.json")
        assert run("stability", cfg, tmp_path / "base") == 0
        theta2 = json.loads((tmp_path / "base" / "report.json").read_text())["mu_star"]
        mu = theta2 * (1.0 + 1e-9)
        cfg = write_config(
            tmp_path,
            extra={**constant, "stability": {"n_max": 2}, "sweep": {"mu_grid": [mu]}},
            mu=mu,
        )
        assert run("stability", cfg, tmp_path / "stab") == 0
        assert run("sweep", cfg, tmp_path / "sweep") == 0
        report = json.loads((tmp_path / "stab" / "report.json").read_text())
        row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
        assert report["verdict"] == "Marginal"
        assert row[2] == "Marginal"

    def test_bad_grid_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, extra={"sweep": {"mu_grid": [2.0, 1.0]}})
        assert run("sweep", cfg, tmp_path / "out") == 2

    def test_overflowing_row_keeps_the_others(self, tmp_path, capsys):
        # at mu = 1e308 the radius leaves the float range within one period
        cfg = write_config(tmp_path, extra={"sweep": {"mu_grid": [1.0, 1e308]}}, sigma_tilde=0.5)
        assert run("sweep", cfg, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        rows = [r.split(",") for r in (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["LinearlyUnstable", "Error"]
        assert rows[1][-1] == "integration failed: the radius left the floating-point range"

    def test_stalled_row_keeps_the_others(self, tmp_path, capsys):
        # at mu = 1e308, sigma_tilde = 0.9 the radius stays finite but the
        # step size sits at its floor: the step cap ends the row's solve
        cfg = write_config(tmp_path, extra={"sweep": {"mu_grid": [1.0, 1e308]}})
        assert run("sweep", cfg, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        rows = [r.split(",") for r in (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["LinearlyStable", "Error"]
        assert rows[1][-1] == "integration failed: more than 100000 steps"

    def test_workers_write_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.SWEEP)
        for workers in ("1", "2"):
            argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / workers)]
            assert main(argv + ["--workers", workers]) == 0
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (tmp_path / "2" / "sweep.csv").read_bytes()

    def test_workers_capped_by_rows(self, tmp_path, monkeypatch):
        # a stand-in pool: no process is started, only max_workers is recorded
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        cfg = write_config(tmp_path, extra={"sweep": {"mu_grid": [0.1, 0.5], "sigma_grid": [0.5]}})
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "64"]
        assert main(argv) == 0
        assert seen == [2]


class TestValidation:
    def test_missing_config(self, tmp_path):
        assert run("simulate", tmp_path / "nope.json", tmp_path / "out") == 2

    def test_wrong_version(self, tmp_path):
        cfg = write_config(tmp_path, extra={"version": 99})
        assert run("simulate", cfg, tmp_path / "out") == 2

    def test_malformed_schedule(self, tmp_path):
        cfg = write_config(
            tmp_path,
            extra={"schedule": {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": 2.0}},
        )
        assert run("simulate", cfg, tmp_path / "out") == 2

    def test_unknown_schedule_form(self, tmp_path):
        cfg = write_config(tmp_path, extra={"schedule": {"form": "square"}})
        assert run("simulate", cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "schedule",
        [
            {"form": "constant", "period": 1.0, "value": float("nan")},
            {"form": "constant", "period": float("inf"), "value": 1.0},
            {"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": float("nan")},
            {"form": "fourier", "period": 1.0, "mean": 1.0, "cos": [float("inf")]},
            {"form": "piecewise", "period": 1.0, "times": [0.0, 1.0], "values": [float("nan")] * 2},
            {"form": "sinusoid", "period": "x", "mean": 1.0, "amplitude": 0.5},
            {"form": "sinusoid", "period": 1.0, "mean": 10**400, "amplitude": 0.5},
            {"form": "fourier", "period": 1.0, "mean": 1.0, "cos": [10**400]},
        ],
    )
    def test_non_finite_schedule(self, tmp_path, capsys, schedule):
        cfg = write_config(tmp_path, extra={"schedule": schedule})
        assert run("simulate", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "schedule, name",
        [
            ({"form": "sinusoid", "period": True, "mean": True, "amplitude": False}, "period"),
            ({"form": "sinusoid", "period": 1.0, "mean": True, "amplitude": 0.5}, "mean"),
            ({"form": "sinusoid", "period": 1.0, "mean": 1.0, "amplitude": False}, "amplitude"),
            ({"form": "constant", "period": 1.0, "value": True}, "value"),
            ({"form": "fourier", "period": 1.0, "mean": 1.0, "sin": [0.1, True]}, "sin_coeffs[1]"),
            ({"form": "piecewise", "period": 1.0, "times": [0.0, 1.0], "values": [True, True]}, "knot_values[0]"),
        ],
    )
    def test_bool_schedule_number(self, tmp_path, capsys, schedule, name):
        """A JSON true or false is not a schedule number (params' are already
        rejected the same way)."""
        cfg = write_config(tmp_path, extra={"schedule": schedule})
        assert run("periodic", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" {name} must be a finite number, got " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("stability", {**BASE, "stability": {"self_consistent": "false"}}),
            ("stability", {**BASE, "stability": {"self_consistent": 1}}),
            ("sweep", {**BASE, "sweep": {"mu_grid": [-1, 1.0]}}),
            ("sweep", {**BASE, "sweep": {"mu_grid": [0.5, float("inf")]}}),
            ("sweep", {**BASE, "sweep": {"sigma_grid": [-0.5, 0.5]}}),
            ("sweep", {**BASE, "sweep": {"mu_grid": "abc"}}),
            ("simulate", {**BASE, "simulate": {"R0": "abc"}}),
            ("simulate", {**BASE, "simulate": {"samples_per_period": 0}}),
            ("simulate", {**BASE, "simulate": [1.0]}),
            ("simulate", [BASE]),
            ("periodic", {**BASE, "periodic": {"tol": -1}}),
            ("periodic", {**BASE, "periodic": {"rate_n_periods": 2}}),
            ("simulate", {**BASE, "params": {**BASE["params"], "mu": True}}),
            ("simulate", {**BASE, "params": {**BASE["params"], "sigma_tilde": "0.9"}}),
            ("simulate", {**BASE, "params": {**BASE["params"], "gamma": None}}),
            ("simulate", {**BASE, "params": [1.0, 0.9, 1.0]}),
            ("simulate", {**BASE, "simulate": {"n_perods": 5}}),
            ("periodic", {**BASE, "simulate": {"n_perods": 5}}),
            ("simulate", {**BASE, "params": {**BASE["params"], "sigma": 0.5}}),
            ("stability", {**BASE, "stability": {"nmax": 6}}),
            ("sweep", {**BASE, "sweep": {"mu_grid": [1.0], "sigma": [0.5]}}),
            ("periodic", {**BASE, "periodic": {"rtol": 1e-10}}),
            ("simulate", {**BASE, "simulate": {"n_periods": 10**400}}),
            ("stability", {**BASE, "stability": {"n_max": 10_001}}),
            ("stability", {**BASE, "stability": {"n_max": 10**7}}),
            ("simulate", {**BASE, "simulate": {"n_periods": 10_001}}),
            ("simulate", {**BASE, "simulate": {"n_periods": 10_000, "samples_per_period": 101}}),
            ("simulate", {**BASE, "simulate": {"samples_per_period": 10**15}}),
            ("periodic", {**BASE, "periodic": {"rate_n_periods": 10_001}}),
        ],
    )
    def test_bad_input_one_line_exit_2(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run(command, path, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # a rejected config leaves no output directory behind
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, message",
        [
            ("simulate", {"n_periods": 10_001}, "simulate.n_periods must be at most 10000, got 10001"),
            (
                "simulate",
                {"n_periods": 20, "samples_per_period": 50_001},
                "simulate.n_periods * simulate.samples_per_period must be at most 1000000, got 1000020",
            ),
            ("periodic", {"rate_n_periods": 10_001}, "periodic.rate_n_periods must be at most 10000, got 10001"),
        ],
    )
    def test_work_limits_named(self, tmp_path, capsys, monkeypatch, command, section, message):
        # the limit is checked before anything is solved or allocated
        def never(*args, **kwargs):
            raise AssertionError("a rejected config reached the solver")

        monkeypatch.setattr(radial, "integrate", never)
        monkeypatch.setattr(periodic, "find_periodic", never)
        cfg = write_config(tmp_path, extra={command: section})
        assert run(command, cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra={"simulate": {"n_perods": 5}})
        assert run("simulate", cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: unknown config key simulate.n_perods\n"

    def test_extra_top_level_section_is_ignored(self, tmp_path):
        cfg = write_config(tmp_path, extra={"notes": {"anything": [1, "x"]}})
        assert run("simulate", cfg, tmp_path / "out") == 0

    @pytest.mark.parametrize("flag", ["--n-max", "--tol-rtol", "--tol-atol"])
    def test_removed_flag_unrecognised(self, tmp_path, capsys, flag):
        argv = ["stability", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solver_failure_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        # a Bessel-ratio continued fraction that does not converge
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2)
        assert run("periodic", write_config(tmp_path), tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "continued fraction" in err

    def test_invalid_params(self, tmp_path):
        cfg = write_config(tmp_path, mu=-1.0)
        assert run("simulate", cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unwritable_out_one_line_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("taken", encoding="utf-8")
        assert run("simulate", write_config(tmp_path), tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / out / 'trajectory.csv'}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text(encoding="utf-8") == "taken"


class TestFloatRange:
    """Schedules at the float range's edge end in one line, with exit 1 or 2."""

    SIN, CONST = BASE["schedule"], {"form": "constant", "period": 1.0, "value": 1.0}
    LEVELS = {
        "sinusoid-mean": {**SIN, "mean": 1e308},
        "fourier-mean": {"form": "fourier", "period": 1.0, "mean": 1e308, "cos": [0.1]},
        "constant-value": {**CONST, "value": 1e308},
        "piecewise-value": {"form": "piecewise", "period": 1.0, "times": [0, 0.5, 1], "values": [1, 1e308, 1]},
    }

    @pytest.mark.parametrize("command", ["periodic", "stability", "sweep"])
    @pytest.mark.parametrize("schedule", LEVELS.values(), ids=LEVELS)
    def test_level_whose_orbit_leaves_the_floats(self, tmp_path, capsys, command, schedule):
        # 3 Phi_max overflows, so the bracket's R* <= 3 Phi_max / sigma_tilde is past the floats
        assert run(command, write_config(tmp_path, {"schedule": schedule}), tmp_path / "out") == 1
        err = capsys.readouterr().err
        want = ("every sweep row failed" if command == "sweep"
                else "sigma_tilde / (3 Phi_max) = 0 puts R* past the floating-point range")
        assert err == f"error: {want}\n"

    @pytest.mark.parametrize("command", ["simulate", "periodic", "stability", "sweep"])
    @pytest.mark.parametrize("schedule", [
        {"form": "fourier", "period": 1e308, "mean": 1.0, "cos": [0.1]},
        {**CONST, "period": 1e308},
        {**SIN, "period": 1e308},
        {**SIN, "period": 5e-324},
    ], ids=["fourier-1e308", "constant-1e308", "sinusoid-1e308", "sinusoid-subnormal"])
    def test_period_outside_the_range_exit_2(self, tmp_path, capsys, command, schedule):
        assert run(command, write_config(tmp_path, {"schedule": schedule}), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: period must be within [2.2e-308, float max / (2 pi)], got ")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [("simulate", "simulate.n_periods"), ("periodic", "periodic.rate_n_periods")])
    def test_span_past_the_floats_exit_2(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path, {"schedule": {**self.CONST, "period": 1e307},
                                      "simulate": {"n_periods": 30}})
        assert run(command, cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {key} * period = 30 * 1e+307 is past the float range\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "periodic", "stability", "sweep"])
    @pytest.mark.parametrize("schedule, name", [
        ({"form": "piecewise", "period": 1.0, "times": ["0", "0.5", "1"], "values": [1, 2, 1]}, "knot_times[0]"),
        ({"form": "piecewise", "period": 1.0, "times": [0, 0.5, 1], "values": [1, "2", 1]}, "knot_values[1]"),
        ({"form": "fourier", "period": 1.0, "mean": 1.0, "cos": [0.1, "0.1"]}, "cos_coeffs[1]"),
        ({"form": "fourier", "period": 1.0, "mean": 1.0, "sin": ["0.1"]}, "sin_coeffs[0]"),
    ], ids=["times", "values", "cos", "sin"])
    def test_string_element_exit_2(self, tmp_path, capsys, command, schedule, name):
        """A numeric string in a schedule tuple is rejected by its index."""
        assert run(command, write_config(tmp_path, {"schedule": schedule}), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" {name} must be a finite number, got '" in err
        assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# fuzz of the CLI boundary: a cheap valid config of any schedule form with up
# to two fields, sections or list elements replaced by junk

# finite extremes for every numeric field: the float range's ends, its
# smallest subnormal and a tiny normal float
EXTREMES = [1e308, -1e308, 5e-324, 1e-300]
JUNK = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -3, 10**400]),
    st.sampled_from(EXTREMES),
)


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


def _grid(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=2, unique=True).map(sorted)


@st.composite
def _piecewise(draw):
    inner = sorted(draw(st.lists(st.floats(0.1, 0.9), max_size=2, unique=True)))
    values = draw(st.lists(st.floats(0.5, 1.5), min_size=len(inner) + 1, max_size=len(inner) + 1))
    return {"form": "piecewise", "period": 1.0, "times": [0.0, *inner, 1.0], "values": [*values, values[0]]}


PERIOD = st.floats(0.5, 2.0)
COEFFS = st.lists(st.floats(-0.1, 0.1), max_size=2)
SCHEDULE = st.one_of(
    _section({"form": st.just("constant"), "value": st.floats(0.8, 1.2)}, period=PERIOD),
    _section({"form": st.just("sinusoid"), "mean": st.floats(0.8, 1.2), "amplitude": st.floats(0.0, 0.5)},
             period=PERIOD),
    _section({"form": st.just("fourier"), "mean": st.floats(0.8, 1.2)}, period=PERIOD, cos=COEFFS, sin=COEFFS),
    _piecewise(),
)
VALID_CONFIG = _section(
    {
        "version": st.just(1),
        "params": _section(
            {"mu": st.floats(0.1, 10.0), "sigma_tilde": st.floats(0.05, 1.5), "gamma": st.floats(0.5, 2.0)}
        ),
        "schedule": SCHEDULE,
    },
    simulate=_section(R0=st.floats(0.5, 2.0), n_periods=st.integers(1, 2), samples_per_period=st.integers(1, 8)),
    periodic=_section(
        tol=st.floats(1e-11, 1e-9), rate_R0_factor=st.floats(1.5, 2.5), rate_n_periods=st.integers(13, 14)
    ),
    stability=_section(n_max=st.integers(2, 6), self_consistent=st.just(False)),
    sweep=_section(mu_grid=_grid(0.1, 10.0), sigma_grid=_grid(0.05, 1.5)),
    notes=JUNK,
)


@st.composite
def fuzz_configs(draw):
    """A valid config with up to two fields, sections or list elements
    (cos, sin, times, values, the sweep grids) replaced by junk."""
    config = draw(VALID_CONFIG)
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(sorted(config)))
        keys = [None]  # None replaces the whole section
        if isinstance(config[section], dict):
            keys += ["typo", *sorted(config[section])]
        key = draw(st.sampled_from(keys))
        if key is None:
            config[section] = draw(JUNK)
        elif isinstance(config[section].get(key), list) and config[section][key] and draw(st.booleans()):
            items = config[section][key]
            items[draw(st.integers(0, len(items) - 1))] = draw(JUNK)
        else:
            config[section][key] = draw(JUNK)
    return config


LOW_SIGMA = {**BASE, "params": {**BASE["params"], "sigma_tilde": 0.5}}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["simulate", "periodic", "stability", "sweep"]), config=fuzz_configs())
# a radius or a result past the float range is a solver failure (R*(0) is
# ~1.3 at BASE, so the rate fit starts finite there, and ~4.7 at LOW_SIGMA),
# and so is a rate fit on period marks too close to scale
@example(command="simulate", config={**BASE, "simulate": {"R0": 1e308}})
@example(command="periodic", config={**BASE, "periodic": {"rate_R0_factor": 1e308}})
@example(command="periodic", config={**LOW_SIGMA, "periodic": {"rate_R0_factor": 1e308}})
@example(command="sweep", config={**LOW_SIGMA, "sweep": {"mu_grid": [1e308]}})
@example(command="stability", config={**BASE, "params": {**BASE["params"], "gamma": 1e308}})
# the period marks of a 1e-300 period do not move: the rate gate fails
@example(command="periodic", config={**BASE, "schedule": {**BASE["schedule"], "period": 1e-300}})
# a level whose 3 Phi_max overflows, a phase 2 pi t / T that overflows, and
# a simulated span n T past the float range
@example(command="periodic", config={**BASE, "schedule": {**BASE["schedule"], "mean": 1e308}})
@example(command="sweep", config={**BASE, "schedule": {"form": "constant", "period": 1.0, "value": 1e308}})
@example(command="simulate", config={**BASE, "schedule": {"form": "fourier", "period": 1e308, "mean": 1.0}})
@example(command="periodic", config={**BASE, "schedule": {"form": "constant", "period": 1e308, "value": 1.0}})
@example(command="simulate", config={**BASE, "schedule": {"form": "constant", "period": 1e307, "value": 1.0},
                                     "simulate": {"n_periods": 30}})
def test_fuzz_cli_boundary(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out), "--workers", "1"])
        err = err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
        if code == 2:
            assert not out.exists()


class TestCsvWriter:
    def test_float_pairs_match_cell_by_cell(self, tmp_path):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.uniform(-1e3, 1e3, 50), rng.lognormal(0.0, 30.0, 50),
                                 [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]])
        rows = list(zip(values.tolist(), values[::-1].tolist()))
        mixed = [(True, 3), (np.int64(2), None), ("x", 1.5), (np.float64(0.25), 2.0), (1, 2, 3.5)]
        cli._write_csv(tmp_path / "a.csv", ["t", "R"], rows + mixed)
        want = ["t,R"] + [
            ",".join("" if v is None else (v if isinstance(v, str) else cli._fmt(v)) for v in row)
            for row in rows + mixed
        ]
        assert (tmp_path / "a.csv").read_bytes() == ("\n".join(want) + "\n").encode()
        assert want[-5:] == ["true,3", "2,", "x,1.5", "0.25,2", "1,2,3.5"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, tmp_path, bad):
        for row in ((0.5, bad), (bad, 0.5), (bad,), (0.5, 1.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                cli._write_csv(tmp_path / "b.csv", ["t", "R"], [(0.0, 1.0), row])
