"""One benchmark process: timed set-up, then one closed-loop client.

Started by ``run.py`` with the checkout as working directory and ``src`` on
``PYTHONPATH``.  Prints one JSON object on its last stdout line.  Exit code
0 on success, 1 when an output gate saw a wrong finite answer.

With ``--trace 1`` the process measures the same inputs twice: first with
the library untouched, then with every public function wrapped by the
tracer.  The ratio of the two times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings

import numpy as np


def _import_library() -> float:
    t0 = time.perf_counter()
    import finslergo  # noqa: F401
    return time.perf_counter() - t0


def run_loop(wl, inputs, seconds, call, keep_first=False):
    """Call until ``seconds`` have passed, checking every output.

    The clock is read only between blocks of ``wl.calls_per_block`` calls,
    so every run holds whole blocks.  The loop stops at the first wrong
    answer, whose ops count as failed, and records the gate's message.
    """
    from workloads import GateError  # imports finslergo: not at the top

    durations, latencies = [], []
    stats = {"ok": 0, "failed": 0, "errors": {}}
    first = None
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline and "gate_error" not in stats:
        for _ in range(wl.calls_per_block):
            inp = next(inputs)
            t0 = clock()
            try:
                out = call(inp)
            except Exception as exc:  # a raising call is a failed op
                durations.append(clock() - t0)
                stats["failed"] += wl.ops_per_call
                key = type(exc).__name__
                stats["errors"][key] = stats["errors"].get(key, 0) + 1
                continue
            dt = clock() - t0
            durations.append(dt)
            try:
                n_ok, n_bad = wl.check(inp, out)
            except GateError as exc:
                stats["failed"] += wl.ops_per_call
                stats["gate_error"] = str(exc)
                break
            stats["ok"] += n_ok
            stats["failed"] += n_bad
            if n_bad == 0:
                latencies.append(dt)
                if keep_first and first is None:
                    first = (inp, out)
    stats.update(calls=len(durations), timed_s=float(sum(durations)),
                 durations=durations, latencies=latencies)
    return stats, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-check", action="store_true")
    parser.add_argument("--spans", help="where to write the traced spans")
    args = parser.parse_args(argv)

    import_s = _import_library()
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    report = {"workload": args.workload, "seed": args.seed,
              "child": args.child, "import_s": import_s}
    tracer = None
    extra = ((workloads, "render_csv", "geodesic.render"),
             (workloads, "render_json", "geodesic.render"))
    if args.trace:
        warnings.simplefilter("always")  # count every warning, not the first
        tracer = Tracer()
        tracer.install(extra)
        t0 = time.perf_counter()
        tracer.root(wl.setup, "setup")()
        report["setup_s"] = import_s + time.perf_counter() - t0
        n_setup = len(tracer.start)
        report["setup_spans"] = tracer.aggregate(0, n_setup)
        tracer.uninstall()
    else:
        t0 = time.perf_counter()
        wl.setup()
        report["setup_s"] = import_s + time.perf_counter() - t0

    def rng():
        return np.random.default_rng([args.seed, args.child])

    try:
        seconds = args.seconds / (2 if args.trace else 1)
        plain, first = run_loop(wl, wl.inputs(rng()), seconds, wl.call,
                                keep_first=args.cli_check)
        report["plain"] = plain
        if "gate_error" in plain:
            raise workloads.GateError(plain["gate_error"])
        if tracer is not None:
            tracer.install(extra)
            traced, _ = run_loop(wl, wl.inputs(rng()), seconds,
                                 tracer.root(wl.call, "bench.call"))
            tracer.uninstall()
            report["traced"] = traced
            if "gate_error" in traced:
                raise workloads.GateError(traced["gate_error"])
            traced["spans"] = tracer.aggregate(n_setup)
            traced["ranks"] = {str(k): v
                               for k, v in sorted(tracer.rank_counts.items())}
            if args.spans:
                tracer.save(args.spans)
        if args.cli_check:
            if first is None:
                raise workloads.GateError(
                    f"{args.workload}: no successful call to cross-check")
            report["cli_s"] = wl.cli_check(*first)
    except workloads.GateError as exc:
        report["gate_error"] = str(exc)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    return 1 if "gate_error" in report else 0


if __name__ == "__main__":
    sys.exit(main())
