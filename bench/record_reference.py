#!/usr/bin/env python3
"""Record the reference values every generated op is checked against.

    python3 bench/record_reference.py [workload ...]

Runs each distinct op the generator can emit (every slot, schedule form and
variant; the known-failing probes excepted) and writes the values the checks
extract (R*_0, theta_2, Lambda_2, final radius, delta_hat, self-consistent
mu*) to bench/reference.json.  Re-record only when a change to the package
is meant to change those values, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import ops
from run import BENCH, OUT, _use_source_tree
from workloads import WORKLOADS, lattice


def main(argv: list[str]) -> int:
    _use_source_tree()
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {"values": {}}
    work = OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    failed = 0
    for workload in argv or list(WORKLOADS):
        for op in lattice(workload):
            config = work / f"{workload}.json"
            config.write_text(json.dumps(op["config"]))
            out = ops.execute(op, config, work / workload)
            status = "ok" if out.ok else "FAILED " + "; ".join(out.failures)
            print(f"{workload} {op['key']} {op['command']:9s} {out.seconds:7.3f}s {status}", flush=True)
            if out.ok:
                reference["values"][op["key"]] = out.values
            else:
                failed += 1
    if path.exists():  # merge with what a concurrent recording wrote meanwhile
        reference["values"] = {**json.loads(path.read_text())["values"], **reference["values"]}
    current = {op["key"] for workload in WORKLOADS for op in lattice(workload)}
    reference["values"] = {k: v for k, v in reference["values"].items() if k in current}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
