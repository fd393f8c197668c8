"""Self-tests of the benchmark: gates, input determinism, trace counts.

Run from the root of a checkout:  PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _ready(name):
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    return wl


def _first_ok(wl, seed=3):
    for inp in wl.inputs(np.random.default_rng([seed, 0])):
        try:
            out = wl.call(inp)
        except np.linalg.LinAlgError:
            continue
        if wl.check(inp, out)[1] == 0:
            return inp, out
    raise AssertionError("unreachable")


@pytest.mark.parametrize("shift", [1e-6, -1e-3])
def test_gate_rejects_perturbed_xi(shift):
    wl = _ready("graph")
    y, (res, text) = _first_ok(wl)
    bad = dataclasses.replace(res, xi=res.xi + shift * np.abs(y).max(),
                              xi_h=res.xi_h + shift)
    with pytest.raises(workloads.GateError):
        wl.check(y, (bad, workloads.render_json(bad)))


def test_gate_rejects_perturbed_xi_on_the_stratum():
    wl = _ready("graph")
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.6, -0.2, 0.8]) * 1e40
    res = workloads.fg.solve_geodesic_graph(wl.metric, y)
    assert not res.unique and wl.check_solve(y, res)
    xi = res.xi.copy()
    xi[7:] += 1e-6 * 1e40
    bad = dataclasses.replace(res, xi=xi)
    with pytest.raises(workloads.GateError):
        wl.check_solve(y, bad)


def test_gate_rejects_wrong_residual_and_orbit_points():
    wl = _ready("orbit")
    y, (res, points) = _first_ok(wl)
    with pytest.raises(workloads.GateError):
        wl.check(y, (dataclasses.replace(res, residual_norm=1e-6), points))
    with pytest.raises(workloads.GateError):
        wl.check(y, (res, points * (1.0 + 1e-8)))


def test_gate_rejects_rendering_that_differs():
    wl = _ready("scan")
    seed, (report, text) = _first_ok(wl)
    lines = text.splitlines()
    lines[5] = lines[5][:-1] + ("1" if lines[5][-1] != "1" else "2")
    with pytest.raises(workloads.GateError):
        wl.check(seed, (report, "\n".join(lines) + "\n"))


def test_non_finite_results_count_as_failed_not_wrong():
    wl = _ready("graph")
    y, (res, text) = _first_ok(wl)
    nan = dataclasses.replace(res, residual_norm=float("nan"))
    assert wl.check(y, (nan, text)) == (0, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]()

    def take(seed, child):
        gen = wl.inputs(np.random.default_rng([seed, child]))
        return [np.asarray(x) for x in itertools.islice(gen, 300)]

    a, b, c = take(7, 0), take(7, 0), take(8, 0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert not all(np.array_equal(x, y) for x, y in zip(a, take(7, 1)))


def test_graph_block_fails_a_fixed_share():
    wl = _ready("graph")
    inputs = wl.inputs(np.random.default_rng([5, 0]))
    failed = 0
    for y in itertools.islice(inputs, 2 * len(workloads.GRAPH_BLOCK)):
        try:
            failed += wl.check(y, wl.call(y))[1]
        except np.linalg.LinAlgError:
            failed += 1
    assert failed == 4


def _traced_scan(seed, samples=40):
    wl = _ready("scan")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root(workloads.fg.go_property_scan, "bench.call")(
            wl.metric, samples, seed)
    finally:
        tracer.uninstall()
    return tracer


def test_trace_count_ratios_repeat_exactly():
    first, second = _traced_scan(1), _traced_scan(2)
    counts = [{n: s["calls"] for n, s in t.aggregate().items()}
              for t in (first, second)]
    assert counts[0] == counts[1]
    solves = counts[0]["geodesic.solve_geodesic_graph"]
    assert solves == 40
    assert counts[0]["homogeneous_space.coerce_m"] == 5 * solves
    assert counts[0]["geodesic.geodesic_residual"] == solves
    assert counts[0]["homogeneous_space.weighted_alpha_gram"] == 2 * solves + 1
    assert first.rank_counts == {4: 40}


def test_self_times_account_for_the_root_span():
    tracer = _traced_scan(3)
    name_id, parent, start, end = tracer.arrays()
    root = parent < 0
    total_self = sum(s["self_s"] for s in tracer.aggregate().values())
    assert total_self == pytest.approx(float((end - start)[root].sum()),
                                       rel=1e-9)


def test_uninstall_restores_every_binding():
    import finslergo
    from finslergo import cli, geodesic, homogeneous_space, s7_catalog

    before = [geodesic.solve_geodesic_graph, s7_catalog.solve_geodesic_graph,
              cli.solve_geodesic_graph, finslergo.solve_geodesic_graph,
              homogeneous_space.ReductiveSpace.__dict__["coerce_m"],
              finslergo.FinslerMetric.__init__, geodesic.np,
              s7_catalog.build_s7_space]
    tracer = Tracer()
    tracer.install()
    assert cli.solve_geodesic_graph is s7_catalog.solve_geodesic_graph
    assert cli.solve_geodesic_graph is not before[0]
    tracer.uninstall()
    after = [geodesic.solve_geodesic_graph, s7_catalog.solve_geodesic_graph,
             cli.solve_geodesic_graph, finslergo.solve_geodesic_graph,
             homogeneous_space.ReductiveSpace.__dict__["coerce_m"],
             finslergo.FinslerMetric.__init__, geodesic.np,
             s7_catalog.build_s7_space]
    assert all(a is b for a, b in zip(before, after))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(10**6) == run.TAIL_CAP
    for n in (20, 57, 400, 999):
        assert n * (1 - run.tail_percentile(n) / 100) >= 10 - 1e-9


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        run.per_layer_units()
