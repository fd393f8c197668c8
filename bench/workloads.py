"""The benchmark workloads: inputs, timed calls, output gates, CLI checks.

Each workload is a closed loop with one client: the next call starts only
after the previous one has returned and its output has been checked.  The
inputs of a process come from ``numpy.random.default_rng([seed, child])``;
the library sees only the generated inputs.  The calls are the public
functions that the matching ``finslergo`` command calls, with the same
arguments.

A call that raises, or returns a non-finite result, counts its operations as
failed.  A finite result that is wrong raises :class:`GateError`, which
fails the whole benchmark run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np

import finslergo as fg
from finslergo import geodesic, s7_catalog

RESIDUAL_TOL = 1e-9      # solver residual over |y|^2
CLOSED_FORM_TOL = 1e-8   # max |xi/|y| - closed_form_xi(y/|y|, C(y))|
UNIT_NORM_TOL = 1e-9     # distance of orbit points from the unit sphere

QUICK_START = ("sq_sum:1,3", "1,1,1;2,1,4")   # README quick-start metric
SCAN_CONFIG = ("sq_sum:1,1", "1,1,1;2,1,4")   # README scan example
CLI_DEFAULT = ("sum_sq:1", None)              # finslergo defaults

SCAN_SAMPLES = 1000          # README scan example
VERIFY_SAMPLES = 1000        # verify-s7 default --samples
SWEEP_SAMPLES = max(20, VERIFY_SAMPLES // 10)   # as verify-s7 derives it
ORBIT_STEPS = 200            # orbit default --steps
ORBIT_T_MAX = 2.0 * np.pi    # orbit default --t-max

# One graph block: the loop runs whole blocks, so the failing share is fixed.
GRAPH_BLOCK = (("generic",) * 88 + ("near_stratum",) * 8
               + ("on_stratum",) * 2 + ("overflow", "underflow"))


class GateError(Exception):
    """A finite output that is wrong."""


def render_csv(report) -> str:
    """The text ``finslergo scan`` writes for a report."""
    return "\n".join(report.to_csv_lines()) + "\n"


def render_json(result) -> str:
    """The text ``finslergo graph`` writes for a result, less the newline."""
    return json.dumps(result.to_json_dict(), indent=2)


def _coords_flag(y) -> str:
    return "--y=" + ",".join(repr(float(v)) for v in y)


def _seeds(rng):
    while True:
        yield int(rng.integers(2**31))


def _unit_vectors(rng):
    while True:
        v = rng.standard_normal(7)
        yield v / np.linalg.norm(v)


def _graph_vectors(rng):
    """Base vectors over 300 decades of scale, including the x = 0 stratum.

    Per block of 100: 88 generic directions; 8 with |x|/|y| log-uniform in
    [1e-6, 1e-2]; 2 with x = 0 exactly; one at 1e200 and one at 1e-200,
    whose squares overflow or underflow.
    """
    kinds = np.array(GRAPH_BLOCK)
    while True:
        for kind in rng.permutation(kinds):
            v = rng.standard_normal(7)
            if kind == "near_stratum":
                ratio = 10.0 ** rng.uniform(-6.0, -2.0)
                v[:4] *= ratio * np.linalg.norm(v[4:]) / np.linalg.norm(v[:4])
            elif kind == "on_stratum":
                v[:4] = 0.0
            scale = {"overflow": 1e200, "underflow": 1e-200}.get(
                kind, 10.0 ** rng.uniform(-150.0, 150.0))
            yield v / np.linalg.norm(v) * scale


class Workload:
    """A metric from a CLI spec plus one kind of timed call."""

    name = ""
    config = QUICK_START
    ops_per_call = 1
    calls_per_block = 1

    def setup(self):
        """Build the space and the metric as the CLI does."""
        self.s7 = fg.build_s7_space()
        l_spec, family = self.config
        lf = fg.l_function_from_spec(l_spec)
        if family is None:
            a = np.ones((lf.arity, self.s7.space.n_blocks))
        else:
            a = [[float(x) for x in row.split(",")]
                 for row in family.split(";")]
        self.metric = fg.FinslerMetric(fg.MetricFamily(self.s7.space, a), lf)

    def config_flags(self):
        l_spec, family = self.config
        flags = ["--l", l_spec]
        return flags if family is None else flags + ["--family", family]

    def check_solve(self, y, res) -> bool:
        """False for a non-finite result; GateError for a wrong finite one."""
        if not (np.all(np.isfinite(res.xi)) and math.isfinite(res.residual_norm)):
            return False
        n2 = float(y @ y)
        if not res.residual_norm <= RESIDUAL_TOL * n2:
            raise GateError(f"{self.name}: residual {res.residual_norm!r} "
                            f"exceeds {RESIDUAL_TOL} |y|^2 at y={y.tolist()}")
        if res.unique:
            n = math.sqrt(n2)
            ref = fg.closed_form_xi(y / n, self.metric.c_coefficients(y))
            dev = float(np.abs(res.xi / n - ref).max())
            if not dev <= CLOSED_FORM_TOL:
                raise GateError(f"{self.name}: xi/|y| is {dev!r} from the "
                                f"closed form at y={y.tolist()}")
        else:  # no closed form to compare: recompute the residual instead
            r = float(np.abs(fg.geodesic_residual(self.metric, y, res.xi)).max())
            if not r <= RESIDUAL_TOL * n2:
                raise GateError(f"{self.name}: recomputed residual {r!r} "
                                f"exceeds {RESIDUAL_TOL} |y|^2 at "
                                f"y={y.tolist()}")
        return True

    def cli_check(self, inp, out) -> float:
        """Run the matching command on one input; return its wall time.

        Raises GateError unless its output is what the benchmark computed.
        """
        argv, expected = self.cli_expectation(inp, out)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "finslergo", *argv],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not self.cli_matches(proc.stdout, expected):
            raise GateError(f"{self.name}: 'finslergo {' '.join(argv)}' "
                            f"exited {proc.returncode} or disagrees with the "
                            f"benchmark")
        return elapsed

    def cli_matches(self, stdout, expected) -> bool:
        return stdout == expected


class Scan(Workload):
    """``finslergo scan``: one op is one base vector."""

    name = "scan"
    config = SCAN_CONFIG
    ops_per_call = SCAN_SAMPLES

    def inputs(self, rng):
        return _seeds(rng)

    def call(self, seed):
        report = fg.go_property_scan(self.metric, SCAN_SAMPLES, seed)
        return report, render_csv(report)

    def check(self, seed, out):
        report, text = out
        samples, residuals = report.samples, report.residuals
        if samples.shape != (SCAN_SAMPLES, 7):
            raise GateError(f"scan: {samples.shape} samples")
        finite = np.isfinite(residuals)
        bound = RESIDUAL_TOL * np.einsum("ij,ij->i", samples, samples)
        if np.any(finite & ~(residuals <= bound)):
            raise GateError(f"scan: residual {np.nanmax(residuals)!r} over "
                            f"tolerance at seed {seed}")
        lines = text.splitlines()
        if lines[0] != ",".join([*report.labels, "residual"]):
            raise GateError(f"scan: CSV header {lines[0]!r}")
        table = np.array([[float(x) for x in line.split(",")]
                          for line in lines[1:]])
        if not np.array_equal(table, np.column_stack([samples, residuals]),
                              equal_nan=True):
            raise GateError(f"scan: CSV rows differ from the report at "
                            f"seed {seed}")
        worst = fg.solve_geodesic_graph(self.metric, report.worst_y)
        if self.check_solve(report.worst_y, worst) and \
                worst.residual_norm != report.max_residual:
            raise GateError(f"scan: worst residual is not reproducible at "
                            f"seed {seed}")
        n_ok = int(finite.sum())
        return n_ok, SCAN_SAMPLES - n_ok

    def cli_expectation(self, seed, out):
        argv = ["scan", "--samples", str(SCAN_SAMPLES), "--seed", str(seed),
                *self.config_flags()]
        return argv, out[1]


class Verify(Workload):
    """``finslergo verify-s7``: one op is one closed-form sample."""

    name = "verify"
    ops_per_call = VERIFY_SAMPLES

    def inputs(self, rng):
        return _seeds(rng)

    def call(self, seed):
        s7 = fg.build_s7_space()
        jac = s7.algebra.check_jacobi(tol=1e-12)
        dev = s7_catalog.ad_pattern_deviation(s7)
        ext = s7_catalog.extended_matrix_sweep(SWEEP_SAMPLES, seed, 1e-12)
        cf = s7_catalog.verify_closed_form(VERIFY_SAMPLES, seed, tol=1e-8)
        eq = s7_catalog.check_equivariance_sweep(SWEEP_SAMPLES, seed, 1e-8)
        return {"jacobi": (jac.max_violation, jac.tol),
                "ad_patterns": (dev, 1e-12),
                "extended_matrix": (ext["worst"], ext["tol"]),
                "closed_form_residual": (cf.max_residual, 1e-9),
                "closed_form_vs_solver": (cf.max_mismatch, cf.tol),
                "equivariance": (eq["worst"], eq["tol"])}

    def check(self, seed, out):
        if not all(math.isfinite(worst) for worst, _ in out.values()):
            return 0, VERIFY_SAMPLES
        failed = [name for name, (worst, tol) in out.items() if worst > tol]
        if failed:
            raise GateError(f"verify: checks {failed} fail at seed {seed}")
        return VERIFY_SAMPLES, 0

    def cli_expectation(self, seed, out):
        return ["verify-s7", "--seed", str(seed)], out

    def cli_matches(self, stdout, expected):
        doc = json.loads(stdout)
        got = {c["name"]: (c["worst"], c["tol"]) for c in doc["checks"]}
        return doc["passed"] and got == expected


class Orbit(Workload):
    """``finslergo orbit``: one op is one curve point."""

    name = "orbit"
    config = CLI_DEFAULT
    ops_per_call = ORBIT_STEPS
    t_values = np.linspace(0.0, ORBIT_T_MAX, ORBIT_STEPS)

    def inputs(self, rng):
        return _unit_vectors(rng)

    def call(self, y):
        res = fg.solve_geodesic_graph(self.metric, y)
        return res, fg.orbit_curve(self.s7.realization, res.y + res.xi,
                                   self.t_values)

    def check(self, y, out):
        res, points = out
        if not (self.check_solve(y, res) and np.all(np.isfinite(points))):
            return 0, ORBIT_STEPS
        off = np.abs(np.linalg.norm(points, axis=1) - 1.0)
        if points.shape != (ORBIT_STEPS, 8) or not off.max() <= UNIT_NORM_TOL:
            raise GateError(f"orbit: points leave the unit sphere by "
                            f"{off.max()!r} at y={y.tolist()}")
        return ORBIT_STEPS, 0

    def cli_expectation(self, y, out):
        argv = ["orbit", _coords_flag(y), "--steps", str(ORBIT_STEPS),
                "--t-max", repr(ORBIT_T_MAX), *self.config_flags()]
        points = out[1]
        lines = [",".join(["t", *(f"p{i}" for i in range(points.shape[1]))])]
        lines += [",".join(geodesic.float_repr(v) for v in (t, *row))
                  for t, row in zip(self.t_values, points)]
        return argv, "\n".join(lines) + "\n"


class Graph(Workload):
    """``finslergo graph``: one op is one solve and its JSON rendering."""

    name = "graph"
    calls_per_block = len(GRAPH_BLOCK)

    def inputs(self, rng):
        return _graph_vectors(rng)

    def call(self, y):
        res = fg.solve_geodesic_graph(self.metric, y)
        return res, render_json(res)

    def check(self, y, out):
        res, text = out
        if not self.check_solve(y, res):
            return 0, 1
        if json.loads(text) != res.to_json_dict():
            raise GateError(f"graph: JSON differs from the result at "
                            f"y={y.tolist()}")
        return 1, 0

    def cli_expectation(self, y, out):
        return ["graph", _coords_flag(y), *self.config_flags()], out[1] + "\n"


WORKLOADS = {w.name: w for w in (Scan, Verify, Orbit, Graph)}
