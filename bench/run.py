"""Benchmark of finslergo: scan, verify, orbit and graph workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload graph --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Each run starts CHILDREN fresh worker processes one after another, each
with BLAS pinned to one thread.  Each times its own set-up, then measures
its share of ``--seconds`` as one closed-loop client.  With ``--trace 0``
the last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  A full record of the run goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.  The exit code is 0 on
success, 1 when an output gate saw a wrong finite answer, and 2 when the
benchmark could not run.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

WORKLOADS = ("scan", "verify", "orbit", "graph")
CHILDREN = 5
TAIL_CAP = 99.0
RUN_LIMIT_S = 170.0   # a run of one workload must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB"))

# Functions whose calls per op and self seconds per op are reported.
SPAN_FUNCTIONS = (
    "lie_algebra.matrix_exponential", "lie_algebra.adjoint_group_element",
    "lie_algebra.ad_operator", "lie_algebra.check_jacobi",
    "lie_algebra.vector",
    "homogeneous_space.coerce_m", "homogeneous_space.coerce_h",
    "homogeneous_space.weighted_alpha_gram", "homogeneous_space.alpha_gram",
    "homogeneous_space.block_quadratics", "homogeneous_space.embed_m",
    "homogeneous_space.embed_h", "homogeneous_space.project_m",
    "homogeneous_space.project_h",
    "finsler_metric.c_coefficients", "finsler_metric.b_coefficients",
    "finsler_metric.grad", "finsler_metric.validate_l",
    "finsler_metric.riemannian_metric",
    "geodesic.solve_geodesic_graph", "geodesic.assemble_system",
    "geodesic.lstsq", "geodesic.geodesic_residual", "geodesic.render",
    "geodesic.to_json_dict", "geodesic.go_property_scan",
    "geodesic.orbit_curve", "geodesic.generator",
    "geodesic.check_equivariance",
    "s7_catalog.build_s7_space", "s7_catalog.closed_form_xi",
    "s7_catalog.k_coefficients", "s7_catalog.extended_matrix",
    "s7_catalog.extended_matrix_deviation",
    "s7_catalog.extended_matrix_sweep", "s7_catalog.verify_closed_form",
    "s7_catalog.check_equivariance_sweep", "s7_catalog.ad_pattern_deviation",
    "bench.call",
)
TRACED_LAYERS = ("lie_algebra", "homogeneous_space", "finsler_metric",
                 "geodesic", "s7_catalog", "bench")
PER_SOLVE = ("homogeneous_space.coerce_m", "geodesic.geodesic_residual",
             "homogeneous_space.weighted_alpha_gram")
SETUP_SPANS = ("s7_catalog.build_s7_space", "finsler_metric.validate_l")
RANKS = range(5)


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = [("setup.import_s", "s")]
    units += [(f"setup.{f}.self_s", "s") for f in SETUP_SPANS]
    for f in SPAN_FUNCTIONS:
        units += [(f"{f}.calls", "1/op"), (f"{f}.self_s", "s/op")]
    units += [("finsler_metric.FinslerMetric.init.per_op", "1/op"),
              ("finsler_metric.FinslerMetric.init.self_s", "s/op")]
    units += [(f"layer.{layer}.self_s", "s/op") for layer in TRACED_LAYERS]
    units += [(f"{f}.per_solve", "1/solve") for f in PER_SOLVE]
    units += [("geodesic.unique_ratio", "ratio")]
    units += [(f"geodesic.rank.{r}", "ratio") for r in RANKS]
    units += [("numpy.fp_warnings", "1/op"), ("lapack.stderr_lines", "1/op"),
              ("trace.overhead_ratio", "ratio"),
              ("trace.self_sum_ratio", "ratio"), ("trace.ops", "count"),
              ("cli.process_s", "s")]
    return units


# -- run facts ----------------------------------------------------------------


def _git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "finslergo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def run_facts(root: Path, seed: int) -> dict:
    return {"git_sha": _git_sha(root), "source_sha256": _source_sha256(root),
            "seed": seed, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "cpu_count": os.cpu_count(), "blas_threads": PINNED_ENV,
            "children": CHILDREN}


# -- statistics ---------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it.

    Capped at TAIL_CAP; below 20 samples it falls back to the median.
    """
    return max(50.0, min(TAIL_CAP, 100.0 * (1.0 - 10.0 / n)))


def end_to_end(children) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts from untraced children."""
    runs = [c["plain"] for c in children]
    ok = sum(r["ok"] for r in runs)
    attempted = ok + sum(r["failed"] for r in runs)
    timed = sum(r["timed_s"] for r in runs)
    lat = [x for r in runs for x in r["latencies"]]
    q = tail_percentile(len(lat))
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "ops_per_s": ok / timed,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * float(np.percentile(lat, q)),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    samples = {"setup_s": len(children), "ops_per_s": attempted,
               "op_p50_ms": len(lat), "op_tail_ms": len(lat),
               "op_tail_percentile": q, "ok_ratio": attempted,
               "peak_rss_mb": len(children), "calls": sum(
                   r["calls"] for r in runs), "timed_s": timed,
               "fail_ratio": 1.0 - ok / attempted}
    return values, samples


def per_layer(children) -> tuple[dict, dict]:
    """Per-layer metrics from the traced halves of traced children."""
    spans = {}
    for c in children:
        for name, s in c["traced"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
    traced = [c["traced"] for c in children]
    ops = sum(t["ok"] + t["failed"] for t in traced)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    v = {"setup.import_s": statistics.median(c["import_s"] for c in children)}
    for f in SETUP_SPANS:
        v[f"setup.{f}.self_s"] = statistics.median(
            c["setup_spans"].get(f, {}).get("self_s", 0.0) for c in children)
    for f in SPAN_FUNCTIONS:
        v[f"{f}.calls"] = calls(f) / ops
        v[f"{f}.self_s"] = self_s(f) / ops
    init = "finsler_metric.FinslerMetric.init"
    v[f"{init}.per_op"] = calls(init) / ops
    v[f"{init}.self_s"] = self_s(init) / ops
    for layer in TRACED_LAYERS:
        v[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for n, s in spans.items()
            if n.split(".", 1)[0] == layer) / ops
    solves = calls("geodesic.solve_geodesic_graph")
    for f in PER_SOLVE:
        v[f"{f}.per_solve"] = calls(f) / solves if solves else 0.0
    ranks = {}
    for t in traced:
        for r, n in t["ranks"].items():
            ranks[int(r)] = ranks.get(int(r), 0) + n
    ranked = sum(ranks.values())
    v["geodesic.unique_ratio"] = ranks.get(4, 0) / ranked if ranked else 0.0
    for r in RANKS:
        v[f"geodesic.rank.{r}"] = ranks.get(r, 0) / ranked if ranked else 0.0
    all_ops = ops + sum(c["plain"]["ok"] + c["plain"]["failed"]
                        for c in children)
    v["numpy.fp_warnings"] = sum(c["fp_warnings"] for c in children) / all_ops
    v["lapack.stderr_lines"] = sum(c["lapack_lines"]
                                   for c in children) / all_ops
    # Same inputs in the same order: compare the common prefix of calls.
    slow = fast = 0.0
    for c in children:
        n = min(len(c["plain"]["durations"]), len(c["traced"]["durations"]))
        slow += sum(c["traced"]["durations"][:n])
        fast += sum(c["plain"]["durations"][:n])
    v["trace.overhead_ratio"] = slow / fast
    v["trace.self_sum_ratio"] = sum(s["self_s"] for s in spans.values()) / sum(
        t["timed_s"] for t in traced)
    v["trace.ops"] = ops
    v["cli.process_s"] = children[0]["cli_s"]
    samples = {"traced_ops": ops, "traced_calls": sum(
        t["calls"] for t in traced), "solves": solves, "children": len(children)}
    return v, samples


# -- running ------------------------------------------------------------------


def run_child(root: Path, workload: str, seed: int, child: int,
              seconds: float, trace: int, timeout: float) -> dict:
    env = dict(os.environ, **PINNED_ENV, PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(root / "bench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--child", str(child),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if child == 0:
        cmd.append("--cli-check")
    if trace:
        spans = root / "bench" / "out" / f"spans-{workload}-{child}.npz"
        cmd += ["--spans", str(spans)]
    # A session of its own, so a timeout also ends the CLI process it runs.
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker {child} of {workload} timed out")
    # OpenBLAS writes its argument errors to stdout, after the report line
    # once the C buffer is flushed at exit.
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"worker {child} of {workload} exited "
                           f"{proc.returncode}: {stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["fp_warnings"] = stderr.count("RuntimeWarning")
    report["lapack_lines"] = (stdout + stderr).count("** On entry to")
    return report


def run_workload(root: Path, workload: str, seed: int, seconds: int,
                 trace: int) -> dict:
    facts = run_facts(root, seed)
    facts["loadavg_before"] = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    children = [run_child(root, workload, seed, k, seconds / CHILDREN, trace,
                          deadline - time.monotonic())
                for k in range(CHILDREN)]
    facts["loadavg_after"] = os.getloadavg()
    errors = [c["gate_error"] for c in children if "gate_error" in c]
    phases = [c[k] for c in children for k in ("plain", "traced") if k in c]
    record = {"workload": workload, "seconds": seconds, "trace": trace,
              "facts": facts, "correct": not errors, "gate_errors": errors,
              "attempted": sum(r["ok"] + r["failed"] for r in phases),
              "failed": sum(r["failed"] for r in phases),
              "errors": {}}
    for r in phases:
        for k, n in r["errors"].items():
            record["errors"][k] = record["errors"].get(k, 0) + n
    if not errors:
        values, samples = (per_layer if trace else end_to_end)(children)
        units = dict(per_layer_units() if trace else END_TO_END)
        record["metrics"] = {k: {"value": values[k], "unit": units[k]}
                             for k in units}
        record["samples"] = samples
        if not trace:
            record["samples"]["fp_warnings"] = sum(
                c["fp_warnings"] for c in children)
            record["samples"]["lapack_lines"] = sum(
                c["lapack_lines"] for c in children)
        record["children"] = [
            {k: c[k] for k in ("setup_s", "import_s", "peak_rss_mb")}
            | {"calls": c["plain"]["calls"], "timed_s": c["plain"]["timed_s"]}
            for c in children]
    out = root / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_record(record) -> None:
    samples = record.get("samples", {})
    for name, m in record.get("metrics", {}).items():
        line = f"{record['workload']:>7} {name:<52} {m['value']:>14.6g} " \
               f"{m['unit']:<6}"
        if name == "op_tail_ms":
            line += f" p{samples['op_tail_percentile']:.2f}"
        if name in samples:
            line += f" n={samples[name]}"
        print(line)
    if "fail_ratio" in samples:
        print(f"{record['workload']:>7} {'fail_ratio':<52} "
              f"{samples['fail_ratio']:>14.6g} ratio  n={samples['ok_ratio']}")
    for err in record["gate_errors"]:
        print(f"{record['workload']:>7} GATE FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finslergo" / "__init__.py").is_file():
        print("error: run from the root of a finslergo checkout "
              "(src/finslergo is missing)", file=sys.stderr)
        return 2
    (root / "bench" / "out").mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(root, w, args.seed, args.seconds, args.trace)
                   for w in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): m
                    for r in records for k, m in r.get("metrics", {}).items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
