#!/usr/bin/env python3
"""tumordyn benchmark: seeded workloads driven through the CLI and library.

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Generated configs,
per-op results and (traced runs) the spans are written under
``bench/out/<workload>/seed-<seed>[-trace]/``.  ``--workload all`` runs every
workload in its own process and prints one table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ops
from tracing import Tracer
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Nominal duration of one block at the commit that defined the benchmark
# (7.5-10.5 s on a 2-core x86-64 machine, Python 3.11).  A run measures
# ceil(--seconds / BLOCK_SECONDS) whole blocks, so its op count, op mix and
# error share are fixed by the arguments; it stops early, on a block end,
# once 2 * --seconds have passed.
BLOCK_SECONDS = 8.0
# traced runs replay a fixed window of blocks, so their counters repeat exactly
TRACE_BLOCKS = {"sweep_grid": 1, "mode_spectrum": 2, "long_trajectory": 1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _use_source_tree() -> None:
    if not (SRC / "tumordyn" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'tumordyn'}")
    sys.path.insert(0, str(SRC))


def n_blocks(workload: str, seconds: float, trace: bool) -> int:
    return TRACE_BLOCKS[workload] if trace else math.ceil(seconds / BLOCK_SECONDS)


def probe_setup(workload: str, seed: int, seconds: float) -> None:
    """Body of one set-up sample: import the package and generate the ops."""
    _use_source_tree()
    import tumordyn  # noqa: F401
    import tumordyn.cli  # noqa: F401

    for block in generate(workload, seed, n_blocks(workload, seconds, False)):
        for op in block:
            json.dumps(op["config"])
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """Wall time from spawning a fresh interpreter until its first op is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code})")
        samples.append(t1 - t0)
    return samples


class Session:
    """Runs ops for one workload run and remembers each op's artifacts."""

    def __init__(self, run_dir: Path, reference: dict):
        self.run_dir = run_dir
        self.reference = reference
        self.digests: dict[str, str] = {}
        (run_dir / "configs").mkdir(parents=True)

    def run(self, op: dict, tracer=None, index: int = 0):
        path = self.run_dir / "configs" / f"{op['id']}.json"
        if not path.exists():
            bench = {"command": op["command"], "known_failure": op["known_failure"]}
            path.write_text(json.dumps({**op["config"], "bench": bench}, indent=1, sort_keys=True) + "\n")
        workdir = self.run_dir / "work"
        if tracer is None:
            out = ops.execute(op, path, workdir)
        else:
            with tracer.op_span(index):
                out = ops.execute(op, path, workdir)
        ops.check_reference(out, self.reference)
        if out.ok:
            digest = out.digest()
            if self.digests.setdefault(op["key"], digest) != digest:
                out.failures.append("artifacts differ from an earlier run of the same op")
        return out


def traced_window(session: Session, window: list[dict]):
    """Run the window untraced, then again traced; the second run of each op
    must reproduce the first one's artifacts byte for byte."""
    plain = [session.run(op) for op in window]
    tracer = Tracer()
    with tracer.installed():
        traced = [session.run(op, tracer, i) for i, op in enumerate(window)]
    return tracer, plain, traced


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcomes, setup_samples) -> tuple[dict, dict]:
    lat = [o.seconds for o in outcomes]
    n_ok = sum(o.ok for o in outcomes)
    tail, pct = _tail(lat)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n_ok / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "error_rate": (len(lat) - n_ok) / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_tail_s": {"percentile": pct, "samples": len(lat)}, "setup_s": {"samples": setup_samples}}
    return values, detail


def per_layer(tracer, outcomes, overhead_s: float) -> dict:
    """Per-layer metrics of a traced window: name -> (value, unit)."""
    tot = tracer.totals()

    def calls(*names):
        return sum(tot.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(tot.get(n, (0, 0.0))[1] for n in names)

    pointwise = ("fields.sigma_star", "fields.p_star", "fields.boundary_derivatives")
    commands = ("cli.cmd_simulate", "cli.cmd_periodic", "cli.cmd_stability", "cli.cmd_sweep")
    m = {}
    for name in ("specfun.p0", "specfun.pn", "specfun.pn_derivative", "specfun.p0_inverse"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["specfun.pn.points"] = (tracer.pn_points, "count")
    m["nutrient.schedule.calls"] = (calls("nutrient.schedule"), "count")
    m["nutrient.schedule.self_s"] = (self_s("nutrient.schedule"), "s")
    m["radial.integrate.calls"] = (calls("radial.integrate"), "count")
    m["radial.integrate.self_s"] = (self_s("radial.integrate"), "s")
    m["radial.rhs_evals"] = (tracer.rhs_evals, "count")
    m["radial.steps"] = (tracer.steps, "count")
    m["radial.evals_per_step"] = (tracer.rhs_evals / max(tracer.steps, 1), "evals/step")
    m["radial.extinction_diagnostics.self_s"] = (self_s("radial.extinction_diagnostics"), "s")
    solves = calls("periodic.find_periodic")
    m["periodic.find_periodic.calls"] = (solves, "count")
    m["periodic.find_periodic.self_s"] = (self_s("periodic.find_periodic"), "s")
    m["periodic.map_evals"] = (calls("periodic.poincare_map"), "count")
    m["periodic.maps_per_solve"] = (calls("periodic.poincare_map") / max(solves, 1), "maps/solve")
    m["periodic.bracket.self_s"] = (self_s("periodic.bracket"), "s")
    m["periodic.convergence_rate.self_s"] = (self_s("periodic.convergence_rate"), "s")
    m["stability.analyze.self_s"] = (self_s("stability.analyze"), "s")
    for name in ("stability.theta_n", "stability.mode_exponent", "stability.evolve_mode"):
        m[f"{name}.calls"] = (calls(name), "count")
    m["stability.evolve_mode.self_s"] = (self_s("stability.evolve_mode"), "s")
    m["stability.mode_decay_bound_check.self_s"] = (self_s("stability.mode_decay_bound_check"), "s")
    m["stability.mu_star.self_s"] = (self_s("stability.mu_star"), "s")
    m["fields.perturbed_surface.self_s"] = (self_s("fields.perturbed_surface"), "s")
    m["fields.spherical_harmonic.calls"] = (calls("fields.spherical_harmonic"), "count")
    m["fields.spherical_harmonic.self_s"] = (self_s("fields.spherical_harmonic"), "s")
    m["fields.pointwise.calls"] = (calls(*pointwise), "count")
    m["fields.pointwise.self_s"] = (self_s(*pointwise), "s")
    m["cli.load_config.self_s"] = (self_s("cli.load_config"), "s")
    m["cli.command.self_s"] = (self_s(*commands), "s")
    m["cli.out_bytes"] = (sum(o.out_bytes for o in outcomes if o.op["kind"] == "cli"), "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _use_source_tree()
    setup_samples = [] if trace else measure_setup(workload, seed, seconds)

    run_dir = OUT / workload / f"seed-{seed}{'-trace' if trace else ''}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    reference = json.loads((BENCH / "reference.json").read_text())["values"]
    session = Session(run_dir, reference)
    blocks = generate(workload, seed, n_blocks(workload, seconds, trace))

    results = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        window = [op for block in blocks for op in block]
        tracer, plain, traced = traced_window(session, window)
        overhead = sum(o.seconds for o in traced) - sum(o.seconds for o in plain)
        layer = per_layer(tracer, traced, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.save(run_dir / "spans.npz")
        outcomes = plain + traced
    else:
        outcomes, block_times = [], []
        t_start = perf_counter()
        for block in blocks:
            t_block = perf_counter()
            outcomes += [session.run(op) for op in block]
            block_times.append(perf_counter() - t_block)
            if perf_counter() - t_start >= 2.0 * seconds:
                break
        values, detail = end_to_end(outcomes, setup_samples)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        results.update(detail=detail, blocks=len(block_times), block_seconds=block_times)

    failed = [o for o in outcomes if not o.ok and not o.op["known_failure"]]
    results.update(metrics=metrics, ops=[o.record() for o in outcomes])
    (run_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    for o in failed:
        print(f"FAILED {o.op['id']}: {'; '.join(o.failures)}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak RSS does not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            print(f"{workload:16s} {name:40s} {m['value']:>14.6g} {m['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.seconds)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for name, m in result["metrics"].items():
            print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
