"""Command-line front end: validate-l, graph, scan, verify-s7, orbit.

Exit codes form a stable contract: 0 success, 1 a mathematical check
failed, 2 bad input, 3 I/O failure.  A JSON config file may supply any
flag value; explicit flags win on conflict.  Identical seed and config
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .finsler_metric import (L_CONDITIONS, FinslerMetric, l_function_from_spec,
                             validate_l)
from .geodesic import (float_repr, go_property_scan, orbit_curve,
                       solve_geodesic_graph)
from .homogeneous_space import MetricFamily, load_space_document
from .s7_catalog import (ad_pattern_deviation, build_s7_space,
                         check_equivariance_sweep, extended_matrix_sweep,
                         verify_closed_form)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 0


@dataclass
class RunConfig:
    space: str = "s7"
    l_spec: str = "sum_sq:1"
    family: object = None
    y: object = None
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tol: float | None = None
    out: str | None = None
    fmt: str | None = None
    t_max: float = 2.0 * np.pi
    steps: int = 200

    def __post_init__(self):
        self.samples = int(self.samples)
        self.seed = int(self.seed)
        self.steps = int(self.steps)
        self.t_max = float(self.t_max)
        if self.tol is not None:
            self.tol = float(self.tol)
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")


def _parse_matrix(value) -> np.ndarray:
    """Family coefficients from 'a11,a12;a21,a22' or a nested list."""
    if isinstance(value, str):
        rows = [r for r in value.split(";") if r.strip()]
        value = [[float(x) for x in row.split(",")] for row in rows]
    a = np.asarray(value, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return a


def _parse_coords(value) -> np.ndarray:
    if isinstance(value, str):
        value = [float(x) for x in value.split(",") if x.strip()]
    v = np.asarray(value, dtype=float)
    if v.ndim != 1:
        raise ValueError("coordinates must form a flat list")
    return v


_CONFIG_KEYS = {
    "space": "space", "l": "l_spec", "family": "family", "y": "y",
    "samples": "samples", "seed": "seed", "tol": "tol", "out": "out",
    "format": "fmt", "t_max": "t_max", "steps": "steps",
}


def _resolve_config(args) -> RunConfig:
    """Merge config-file values under explicit flags, then apply defaults."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        for key, attr in _CONFIG_KEYS.items():
            if key in doc:
                values[attr] = doc[key]
    for attr in ("space", "l_spec", "family", "y", "samples", "seed", "tol",
                 "out", "fmt", "t_max", "steps"):
        flag = getattr(args, attr, None)
        if flag is not None:
            values[attr] = flag
    return RunConfig(**values)


def _load_setup(cfg: RunConfig):
    """Space, optional matrix realization, and the configured metric."""
    if cfg.space == "s7":
        s7 = build_s7_space()
        space, realization, file_family = s7.space, s7.realization, None
    else:
        with open(cfg.space) as fh:
            doc = json.load(fh)
        space, file_family = load_space_document(doc)
        realization = None
    lf = l_function_from_spec(cfg.l_spec)
    if cfg.family is not None:
        family = MetricFamily(space, _parse_matrix(cfg.family))
    elif file_family is not None:
        family = file_family
    else:
        family = MetricFamily(space, np.ones((lf.arity, space.n_blocks)))
    metric = FinslerMetric(family, lf)
    return space, realization, metric


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


# -- commands -------------------------------------------------------------


def cmd_validate_l(cfg: RunConfig) -> int:
    lf = l_function_from_spec(cfg.l_spec)
    report = validate_l(lf, sample_count=cfg.samples, seed=cfg.seed)
    if cfg.fmt == "json":
        doc = {
            "kind": lf.kind,
            "conditions": [
                {"key": c.name, "description": L_CONDITIONS[c.name],
                 "passed": c.passed, "worst": c.worst,
                 "witness": list(c.witness)}
                for c in report.checks
            ],
            "passed": report.passed,
        }
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        lines = []
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"({c.name}) {L_CONDITIONS[c.name]}: {status} "
                         f"(worst {c.worst:.6e})")
        lines.append("all conditions passed" if report.passed
                     else "some conditions FAILED")
        _emit("\n".join(lines), cfg.out)
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def cmd_graph(cfg: RunConfig) -> int:
    if cfg.y is None:
        raise ValueError("graph requires --y coordinates")
    _, _, metric = _load_setup(cfg)
    result = solve_geodesic_graph(metric, _parse_coords(cfg.y))
    if cfg.fmt == "csv":
        labels = metric.space.m_labels()
        hlabels = metric.space.h_labels()
        header = [*labels, *(f"xi_{h}" for h in hlabels),
                  "residual", "rank", "unique"]
        row = [*(float_repr(v) for v in result.y_m),
               *(float_repr(v) for v in result.xi_h),
               float_repr(result.residual_norm), str(result.rank),
               str(result.unique).lower()]
        _emit(",".join(header) + "\n" + ",".join(row), cfg.out)
    else:
        _emit(json.dumps(result.to_json_dict(), indent=2), cfg.out)
    if cfg.tol is not None and result.residual_norm > cfg.tol:
        return EXIT_MATH_FAIL
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    _, _, metric = _load_setup(cfg)
    report = go_property_scan(metric, cfg.samples, cfg.seed)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    if cfg.fmt == "json":
        doc = report.to_json_dict()
        doc["tol"] = tol
        doc["passed"] = report.max_residual < tol
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        _emit("\n".join(report.to_csv_lines()) + "\n", cfg.out)
    return EXIT_OK if report.max_residual < tol else EXIT_MATH_FAIL


def cmd_verify_s7(cfg: RunConfig) -> int:
    s7 = build_s7_space()
    sweep_n = max(20, cfg.samples // 10)
    tol = cfg.tol

    def pick(default):
        return default if tol is None else tol

    checks = []

    jac = s7.algebra.check_jacobi(tol=pick(1e-12))
    checks.append({"name": "jacobi", "passed": jac.passed,
                   "worst": jac.max_violation, "tol": jac.tol})

    dev = ad_pattern_deviation(s7)
    checks.append({"name": "ad_patterns", "passed": dev <= pick(1e-12),
                   "worst": dev, "tol": pick(1e-12)})

    ext = extended_matrix_sweep(sweep_n, cfg.seed, pick(1e-12))
    checks.append({"name": "extended_matrix", **ext})

    cf = verify_closed_form(cfg.samples, cfg.seed, tol=pick(1e-8))
    res_tol = pick(1e-9)
    checks.append({"name": "closed_form_residual",
                   "passed": cf.max_residual <= res_tol,
                   "worst": cf.max_residual, "tol": res_tol,
                   "witness_y": [float(v) for v in cf.worst_residual_y],
                   "witness_c": [float(v) for v in cf.worst_residual_c]})
    checks.append({"name": "closed_form_vs_solver",
                   "passed": cf.max_mismatch <= cf.tol,
                   "worst": cf.max_mismatch, "tol": cf.tol,
                   "witness_y": [float(v) for v in cf.worst_mismatch_y],
                   "witness_c": [float(v) for v in cf.worst_mismatch_c],
                   "n_unique": cf.n_unique})

    eq = check_equivariance_sweep(sweep_n, cfg.seed, pick(1e-8))
    checks.append({"name": "equivariance", **eq})

    passed = all(c["passed"] for c in checks)
    _emit(json.dumps({"checks": checks, "passed": passed}, indent=2), cfg.out)
    return EXIT_OK if passed else EXIT_MATH_FAIL


def cmd_orbit(cfg: RunConfig) -> int:
    if cfg.y is None:
        raise ValueError("orbit requires --y coordinates")
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    _, realization, metric = _load_setup(cfg)
    if realization is None:
        raise ValueError("the selected space has no matrix realization")
    result = solve_geodesic_graph(metric, _parse_coords(cfg.y))
    w = result.y + result.xi
    t_values = np.linspace(0.0, cfg.t_max, cfg.steps)
    points = orbit_curve(realization, w, t_values)
    norm_tol = cfg.tol if cfg.tol is not None else 1e-9
    norms_ok = bool(np.all(np.abs(np.linalg.norm(points, axis=1) - 1.0)
                           <= norm_tol))
    if cfg.fmt == "json":
        doc = {"t": [float(t) for t in t_values],
               "points": [[float(x) for x in row] for row in points],
               "unit_norm": norms_ok}
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        n = points.shape[1]
        lines = [",".join(["t", *(f"p{i}" for i in range(n))])]
        for t, row in zip(t_values, points):
            lines.append(",".join([float_repr(t),
                                   *(float_repr(x) for x in row)]))
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if norms_ok else EXIT_MATH_FAIL


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--space", help="path to a space JSON file, or 's7'")
    common.add_argument("--l", dest="l_spec",
                        help="combiner spec 'kind:w1,w2,...' "
                             "(sum_sq, sq_sum, or sum)")
    common.add_argument("--family",
                        help="metric coefficients 'a11,a12,...;a21,...'")
    common.add_argument("--samples", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", dest="fmt", choices=["json", "csv"])
    common.add_argument("--config", help="JSON config file; flags win")

    parser = argparse.ArgumentParser(
        prog="finslergo",
        description="Geodesic graphs for composite Finsler metrics on "
                    "reductive homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate-l", parents=[common],
                   help="check the five Minkowski-norm conditions")

    p_graph = sub.add_parser("graph", parents=[common],
                             help="solve the geodesic graph at one vector")
    p_graph.add_argument("--y", help="base vector coordinates 'y1,y2,...'")

    sub.add_parser("scan", parents=[common],
                   help="sample unit vectors and report solver residuals")

    sub.add_parser("verify-s7", parents=[common],
                   help="run the built-in catalog verification suite")

    p_orbit = sub.add_parser("orbit", parents=[common],
                             help="emit points of the homogeneous geodesic")
    p_orbit.add_argument("--y", help="base vector coordinates")
    p_orbit.add_argument("--t-max", dest="t_max", type=float)
    p_orbit.add_argument("--steps", type=int)

    return parser


_COMMANDS = {
    "validate-l": cmd_validate_l,
    "graph": cmd_graph,
    "scan": cmd_scan,
    "verify-s7": cmd_verify_s7,
    "orbit": cmd_orbit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
