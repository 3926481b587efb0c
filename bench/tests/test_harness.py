"""Self-tests of the benchmark harness (not of the package).

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

run._use_source_tree()

# one quick op per workload: tiny-band sweep row, CLI stability, simulate
SHORT_OP = {"sweep_grid": 0, "mode_spectrum": 4, "long_trajectory": 0}
DETERMINISTIC = ("calls", "points", "radial.rhs_evals", "periodic.map_evals")


def _traced(workload, tmp_path, name):
    reference = json.loads((BENCH / "reference.json").read_text())["values"]
    session = run.Session(tmp_path / name, reference)
    window = [generate(workload, 7, 1)[0][SHORT_OP[workload]]]
    tracer, plain, traced = run.traced_window(session, window)
    layer = run.per_layer(tracer, traced, 0.0)
    return session, plain, traced, layer


@pytest.fixture(scope="module", params=list(WORKLOADS))
def two_runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, _traced(request.param, tmp, "a"), _traced(request.param, tmp, "b")


def test_counters_repeat_exactly(two_runs):
    _, (_, _, _, a), (_, _, _, b) = two_runs
    counters = {k for k in a if k.endswith(DETERMINISTIC)}
    assert counters
    assert {k: a[k] for k in counters} == {k: b[k] for k in counters}


def test_traced_artifacts_identical_to_untraced(two_runs):
    _, (_, plain, traced, _), _ = two_runs
    for p, t in zip(plain, traced):
        assert p.ok and t.ok, p.failures + t.failures
        assert p.artifacts and p.artifacts == t.artifacts


def test_every_named_metric_present(two_runs):
    _, (_, plain, _, layer), _ = two_runs
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
    values, _ = run.end_to_end(plain, [1.0])
    assert set(values) == {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
        assert math.isfinite(values[m["name"]]) and values[m["name"]] >= 0


def test_same_seed_same_ops():
    for workload in WORKLOADS:
        assert generate(workload, 3, 4) == generate(workload, 3, 4)
        assert generate(workload, 3, 4) != generate(workload, 4, 4)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(40)]
    value, pct = run._tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 75.0
