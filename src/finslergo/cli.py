"""Command-line front end: validate-l, graph, scan, verify-s7, orbit.

Exit codes form a stable contract: 0 success, 1 a mathematical check
failed, 2 bad input, 3 I/O failure.  A JSON config file may supply any
flag its command takes; explicit flags win on conflict.  Identical seed
and config produce byte-identical output.
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
from .lie_algebra import _json_array, _json_number
from .s7_catalog import build_s7_space, verify_s7

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _parse_matrix(value) -> np.ndarray:
    """Family coefficients from 'a11,a12;a21,a22' or nested JSON lists."""
    if isinstance(value, str):
        try:
            rows = [r for r in value.split(";") if r.strip()]
            a = np.asarray([[float(x) for x in row.split(",")]
                            for row in rows], dtype=float)
        except ValueError:
            raise ValueError("--family must be rows of numbers of one length, "
                             "as in '1,1,1;2,1,4'") from None
    else:
        a = _json_array(value, "--family")
    return a[None, :] if a.ndim == 1 else a


def _parse_coords(value) -> np.ndarray:
    """Base vector coordinates from 'y1,y2,...' or a JSON list of numbers."""
    rule = "--y must be a flat list of numbers, as in '1,0,0,0,0,0,0'"
    if isinstance(value, str):
        try:
            value = [float(x) for x in value.split(",")]
        except ValueError:
            raise ValueError(rule) from None
    v = _json_array(value, "--y")
    if v.ndim != 1:
        raise ValueError(rule)
    return v


def _number(key: str, kind, ok, rule: str):
    """Check of a numeric value: its type, since config-file values arrive
    unconverted (no bool, str or fraction), then its range."""
    def check(value):
        value = _json_number(value, key, kind)
        if not ok(value):
            raise ValueError(f"--{key.replace('_', '-')} must be {rule}")
        return value
    return check


def _path(key: str):
    """Check of a path: a config-file number would open a file descriptor."""
    def check(value):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a path string, not {value!r}")
        return value
    return check


# Every value a command can read, by dest, which is also its config-file
# key: its default, its argparse options, and the check that converts a
# value (but None where None is the default) or names what is wrong with it;
# the options' choices bind a config-file value too.
_FLAGS = {
    "space": ("s7", {"help": "path to a space JSON file, or 's7'"},
              _path("space")),
    "l": ("sum_sq:1", {"metavar": "L_SPEC",
                       "help": "combiner spec 'kind:w1,w2,...' "
                               "(sum_sq, sq_sum, or sum)"}, None),
    "family": (None, {"help": "metric coefficients 'a11,a12,...;a21,...'"},
               _parse_matrix),
    "samples": (1000, {"type": int},
                _number("samples", int, lambda v: v >= 1, "at least 1")),
    "seed": (0, {"type": int},
             _number("seed", int, lambda v: v >= 0, "non-negative")),
    "tol": (None, {"type": float},
            _number("tol", float, lambda v: v > 0, "positive")),
    "out": (None, {"help": "output path (default stdout)"}, _path("out")),
    "format": (None, {"choices": ["json", "csv"]}, None),
    "y": (None, {"help": "base vector coordinates 'y1,y2,...'"},
          _parse_coords),
    "t_max": (2.0 * np.pi, {"type": float},
              _number("t_max", float, np.isfinite, "finite")),
    "steps": (200, {"type": int},
              _number("steps", int, lambda v: v >= 2, "at least 2")),
}


def _read_json(flag: str, path: str, build=lambda doc: doc):
    """build(document) of a JSON file; a bad document names flag and path."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{flag} {path!r}: {exc}") from None


def _resolve_config(args) -> argparse.Namespace:
    """The checked values the command reads: config-file values over the
    defaults, explicit flags over both; a key it does not read is refused."""
    dests = _COMMANDS[args.command][2].split()
    given = {}
    if args.config:
        doc = _read_json("--config", args.config)
        if not isinstance(doc, dict):
            raise ValueError("--config must hold a JSON object of flag values")
        for key in doc:
            if key not in dests:
                raise ValueError(f"--config key {key!r} is not a flag of "
                                 f"{args.command}")
        given.update(doc)
    given.update((key, getattr(args, key)) for key in dests
                 if getattr(args, key) is not None)
    cfg = {key: given.get(key, _FLAGS[key][0]) for key in dests}
    for key, value in cfg.items():
        default, options, check = _FLAGS[key]
        choices = options.get("choices")
        if choices and value is not None and value not in choices:
            raise ValueError(f"--{key} must be " + " or ".join(
                map(repr, choices)) + f", not {value!r}")
        if check and (value is not None or default is not None):
            cfg[key] = check(value)
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
        space, file_family = _read_json("--space", cfg.space,
                                        load_space_document)
        realization = None
    lf = _combiner(cfg.l)
    if cfg.family is not None:
        family = MetricFamily(space, cfg.family)
    elif file_family is not None:
        family = file_family
    else:
        family = MetricFamily(space, np.ones((lf.arity, space.n_blocks)))
    return space, realization, FinslerMetric(family, lf)


def _emit(text: str, out: str | None) -> None:
    """text and one newline, to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


# -- commands -------------------------------------------------------------


def cmd_validate_l(cfg: argparse.Namespace) -> int:
    lf = _combiner(cfg.l)
    report = validate_l(lf, sample_count=cfg.samples, seed=cfg.seed)
    if cfg.format == "json":
        conditions = [{"key": c.name, "description": L_CONDITIONS[c.name],
                       "passed": c.passed, "worst": c.worst,
                       "witness": list(c.witness)} for c in report.checks]
        doc = {"kind": lf.kind, "conditions": conditions,
               "passed": report.passed}
        _emit(json.dumps(doc, indent=2), cfg.out)
    else:
        lines = [f"({c.name}) {L_CONDITIONS[c.name]}: "
                 f"{'PASS' if c.passed else 'FAIL'} (worst {c.worst:.6e})"
                 for c in report.checks]
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
    failed = cfg.tol is not None and result.residual_norm > cfg.tol
    return EXIT_MATH_FAIL if failed else EXIT_OK


def cmd_scan(cfg: argparse.Namespace) -> int:
    _, _, metric = _load_setup(cfg)
    report = go_property_scan(metric, cfg.samples, cfg.seed)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    passed = report.max_residual <= tol
    if cfg.format == "json":
        _emit(json.dumps({**report.to_json_dict(), "tol": tol,
                          "passed": passed}, indent=2), cfg.out)
    else:
        _emit("\n".join(report.to_csv_lines()), cfg.out)
    return EXIT_OK if passed else EXIT_MATH_FAIL


def cmd_verify_s7(cfg: argparse.Namespace) -> int:
    doc = verify_s7(cfg.samples, cfg.seed, cfg.tol)
    _emit(json.dumps(doc, indent=2), cfg.out)
    return EXIT_OK if doc["passed"] else EXIT_MATH_FAIL


def cmd_orbit(cfg: argparse.Namespace) -> int:
    if cfg.y is None:
        raise ValueError("orbit requires --y coordinates")
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
        _emit("\n".join(lines), cfg.out)
    return EXIT_OK if norms_ok else EXIT_MATH_FAIL


# -- entry point ------------------------------------------------------------


# Each command: its function, its help and the dests (see _FLAGS) it reads.
_COMMANDS = {
    "validate-l": (cmd_validate_l, "check the five Minkowski-norm conditions",
                   "l samples seed out format"),
    "graph": (cmd_graph, "solve the geodesic graph at one vector",
              "space l family tol out format y"),
    "scan": (cmd_scan, "sample unit vectors and report solver residuals",
             "space l family samples seed tol out format"),
    "verify-s7": (cmd_verify_s7, "run the built-in catalog verification suite",
                  "samples seed tol out"),
    "orbit": (cmd_orbit, "emit points of the homogeneous geodesic",
              "space l family tol out format y t_max steps"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslergo",
        description="Geodesic graphs for composite Finsler metrics on "
                    "reductive homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in dests.split():
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key][1])
        p.add_argument("--config", help="JSON config file; flags win")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_BAD_INPUT
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command][0](cfg)
    # a count too large to allocate is bad input, not a failed check
    except (ValueError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
