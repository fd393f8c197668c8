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

import numpy as np

from .finsler_metric import (L_CONDITIONS, FinslerMetric, l_function_from_spec,
                             validate_l)
from .geodesic import (float_repr, go_property_scan, orbit_curve,
                       solve_geodesic_graph)
from .homogeneous_space import MetricFamily, load_space_document
from .s7_catalog import (_check_entry, ad_pattern_deviation, build_s7_space,
                         check_equivariance_sweep, extended_matrix_sweep,
                         verify_closed_form)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3

# Every value a command reads, by config-file key, which is also its dest.
_DEFAULTS = {"space": "s7", "l": "sum_sq:1", "family": None, "y": None,
             "samples": 1000, "seed": 0, "tol": None, "out": None,
             "format": None, "t_max": 2.0 * np.pi, "steps": 200}


def _parse_matrix(value) -> np.ndarray:
    """Family coefficients from 'a11,a12;a21,a22' or a nested list."""
    try:
        if isinstance(value, str):
            rows = [r for r in value.split(";") if r.strip()]
            value = [[float(x) for x in row.split(",")] for row in rows]
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("--family must be rows of numbers of one length, "
                         "as in '1,1,1;2,1,4'") from None
    if a.ndim == 1:
        a = a[None, :]
    return a


def _parse_coords(value) -> np.ndarray:
    try:
        if isinstance(value, str):
            value = [float(x) for x in value.split(",") if x.strip()]
        v = np.asarray(value, dtype=float)
        if v.ndim != 1:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError("--y must be a flat list of numbers, as in "
                         "'1,0,0,0,0,0,0'") from None
    return v


def _resolve_config(args) -> argparse.Namespace:
    """Config-file values over the defaults, explicit flags over both."""
    cfg = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("--config must hold a JSON object of flag values")
        cfg.update((key, doc[key]) for key in _DEFAULTS if key in doc)
    cfg.update((key, getattr(args, key)) for key in _DEFAULTS
               if getattr(args, key, None) is not None)
    # config-file values arrive unconverted: no bool, str or fraction
    integers = ("samples", "seed", "steps")
    for key in (*integers, "t_max", "tol"):
        value, whole = cfg[key], key in integers
        if value is None and key == "tol":
            continue
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or whole and value % 1):  # a fraction, inf or nan
            kind = "an integer" if whole else "a number"
            raise ValueError(f"{key} must be {kind}, not {value!r}")
        cfg[key] = int(value) if whole else float(value)
    if cfg["samples"] < 1:
        raise ValueError("--samples must be at least 1")
    if cfg["seed"] < 0:
        raise ValueError("--seed must be non-negative")
    if cfg["tol"] is not None and not cfg["tol"] > 0:
        raise ValueError("--tol must be positive")
    if not np.isfinite(cfg["t_max"]):
        raise ValueError("--t-max must be finite")
    if cfg["format"] not in (None, "json", "csv"):
        raise ValueError(f"--format must be 'json' or 'csv', not "
                         f"{cfg['format']!r}")
    if cfg["family"] is not None:
        cfg["family"] = _parse_matrix(cfg["family"])
    if cfg["y"] is not None:
        cfg["y"] = _parse_coords(cfg["y"])
    return argparse.Namespace(**cfg)


def _combiner(spec):
    """The combiner of an --l spec; a ValueError names the flag."""
    try:
        return l_function_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--l {spec!r}: {exc}") from None


def _load_setup(cfg: argparse.Namespace):
    """Space, optional matrix realization, and the configured metric."""
    if cfg.space == "s7":
        s7 = build_s7_space()
        space, realization, file_family = s7.space, s7.realization, None
    else:
        with open(cfg.space) as fh:
            doc = json.load(fh)
        space, file_family = load_space_document(doc)
        realization = None
    lf = _combiner(cfg.l)
    if cfg.family is not None:
        family = MetricFamily(space, cfg.family)
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


def cmd_validate_l(cfg: argparse.Namespace) -> int:
    lf = _combiner(cfg.l)
    report = validate_l(lf, sample_count=cfg.samples, seed=cfg.seed)
    if cfg.format == "json":
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


def cmd_graph(cfg: argparse.Namespace) -> int:
    if cfg.y is None:
        raise ValueError("graph requires --y coordinates")
    _, _, metric = _load_setup(cfg)
    result = solve_geodesic_graph(metric, cfg.y)
    if cfg.format == "csv":
        header = [*metric.space.m_labels(),
                  *(f"xi_{h}" for h in metric.space.h_labels()),
                  "residual", "rank", "unique"]
        row = [*map(float_repr, [*result.y_m, *result.xi_h,
                                 result.residual_norm]),
               str(result.rank), str(result.unique).lower()]
        _emit(",".join(header) + "\n" + ",".join(row), cfg.out)
    else:
        _emit(json.dumps(result.to_json_dict(), indent=2), cfg.out)
    if cfg.tol is not None and result.residual_norm > cfg.tol:
        return EXIT_MATH_FAIL
    return EXIT_OK


def cmd_scan(cfg: argparse.Namespace) -> int:
    _, _, metric = _load_setup(cfg)
    report = go_property_scan(metric, cfg.samples, cfg.seed)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    if cfg.format == "json":
        doc = report.to_json_dict()
        doc["tol"] = tol
        doc["passed"] = report.max_residual < tol
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        _emit("\n".join(report.to_csv_lines()) + "\n", cfg.out)
    return EXIT_OK if report.max_residual < tol else EXIT_MATH_FAIL


def cmd_verify_s7(cfg: argparse.Namespace) -> int:
    s7 = build_s7_space()
    sweep_n = max(20, cfg.samples // 10)

    def pick(default):
        return default if cfg.tol is None else cfg.tol

    jac = s7.algebra.check_jacobi(tol=pick(1e-12))
    cf = verify_closed_form(cfg.samples, cfg.seed, tol=pick(1e-8))
    entries = {
        "jacobi": _check_entry(jac.max_violation, jac.tol),
        "ad_patterns": _check_entry(ad_pattern_deviation(s7), pick(1e-12)),
        "extended_matrix": extended_matrix_sweep(sweep_n, cfg.seed,
                                                 pick(1e-12)),
        "closed_form_residual": _check_entry(
            cf.max_residual, pick(1e-9), witness_y=cf.worst_residual_y,
            witness_c=cf.worst_residual_c),
        "closed_form_vs_solver": _check_entry(
            cf.max_mismatch, cf.tol, witness_y=cf.worst_mismatch_y,
            witness_c=cf.worst_mismatch_c, n_unique=cf.n_unique),
        "equivariance": check_equivariance_sweep(sweep_n, cfg.seed,
                                                 pick(1e-8)),
    }
    checks = [{"name": name, **entry} for name, entry in entries.items()]
    passed = all(c["passed"] for c in checks)
    _emit(json.dumps({"checks": checks, "passed": passed}, indent=2), cfg.out)
    return EXIT_OK if passed else EXIT_MATH_FAIL


def cmd_orbit(cfg: argparse.Namespace) -> int:
    if cfg.y is None:
        raise ValueError("orbit requires --y coordinates")
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    _, realization, metric = _load_setup(cfg)
    if realization is None:
        raise ValueError("the selected space has no matrix realization")
    result = solve_geodesic_graph(metric, cfg.y)
    w = result.y + result.xi
    t_values = np.linspace(0.0, cfg.t_max, cfg.steps)
    points = orbit_curve(realization, w, t_values)
    norm_tol = cfg.tol if cfg.tol is not None else 1e-9
    norms_ok = bool(np.all(np.abs(np.linalg.norm(points, axis=1) - 1.0)
                           <= norm_tol))
    if cfg.format == "json":
        doc = {"t": [float(t) for t in t_values],
               "points": [[float(x) for x in row] for row in points],
               "unit_norm": norms_ok}
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        lines = [",".join(["t", *(f"p{i}" for i in range(points.shape[1]))])]
        lines += [",".join(map(float_repr, [t, *row]))
                  for t, row in zip(t_values, points)]
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if norms_ok else EXIT_MATH_FAIL


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--space", help="path to a space JSON file, or 's7'")
    common.add_argument("--l", metavar="L_SPEC",
                        help="combiner spec 'kind:w1,w2,...' "
                             "(sum_sq, sq_sum, or sum)")
    common.add_argument("--family",
                        help="metric coefficients 'a11,a12,...;a21,...'")
    common.add_argument("--samples", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=["json", "csv"])
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
    p_orbit.add_argument("--t-max", type=float)
    p_orbit.add_argument("--steps", type=int)

    return parser


_COMMANDS = {"validate-l": cmd_validate_l, "graph": cmd_graph,
             "scan": cmd_scan, "verify-s7": cmd_verify_s7, "orbit": cmd_orbit}


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
