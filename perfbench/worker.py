"""One workload in one fresh interpreter; started by run.py.

Set-up is timed from ``import cayley_potts`` to the end of the workload's
warm-up, before anything of the benchmark's own is imported, so that
set-up time holds only what a user of the package pays.  With
``--setup-only`` the worker stops there.

Without tracing, the op loop runs until the ops' own time adds up to
``--seconds``.  The clock runs only while an op runs: each op's output is
checked against its reference between ops, with the clock stopped.

With tracing, the worker installs the layer wrappers before the warm-up,
then runs a fixed number of ops twice on the same inputs, once untraced
and once traced, so that counts repeat exactly for a seed and the
difference between the two passes is the tracing overhead.  Spans are kept
in memory and written to .perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import monotonic, perf_counter

from spans import Tracer, percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_ops(wl, ops, seconds: float, limit: int | None, wall_limit: float,
            tracer=None) -> dict:
    """Closed loop with one caller: the next op starts when the last ends."""
    # workloads imports numpy, so it must not load before the timed import
    from workloads import KNOWN, OK, WRONG

    latencies, problems = [], []
    known = wrong = 0
    busy = 0.0
    started = monotonic()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = wl.run(op)
            raised = None
        except Exception as exc:  # one failed op must not end the run
            raised = exc
        dt = perf_counter() - t0
        busy += dt
        latencies.append(dt)
        if raised is not None:
            status, why = WRONG, f"raised {type(raised).__name__}: {raised}"
        else:
            status, why = wl.check(op, out)
        if status == KNOWN:
            known += 1
        elif status != OK:
            wrong += 1
        if status != OK:
            problems.append({"status": status, "why": why})
        if len(latencies) == limit or (limit is None and busy >= seconds) \
                or monotonic() - started > wall_limit:
            break
    return {"latencies": latencies, "busy_s": busy, "known": known,
            "wrong": wrong, "problems": problems}


def summary(result: dict) -> dict:
    lat = result["latencies"]
    p90 = percentile(lat, 0.9)
    return {"attempted": len(lat), "known": result["known"],
            "wrong": result["wrong"],
            "throughput_ops_s": len(lat) / result["busy_s"],
            "latency_p50_ms": 1e3 * percentile(lat, 0.5),
            "latency_p90_ms": 1e3 * p90,
            "beyond_p90": sum(1 for x in lat if x > p90),
            "problems": result["problems"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    target = "cayley_potts.cli" if args.workload == "cli" else "cayley_potts"
    t0 = perf_counter()
    importlib.import_module(target)
    import_s = perf_counter() - t0
    cp = sys.modules["cayley_potts"]

    import layers
    import workloads

    wl = workloads.make(args.workload, cp, dict(os.environ))
    tracer = Tracer() if args.trace and not args.setup_only else None
    if tracer is not None:
        layers.install(tracer, cp)
    t1 = perf_counter()
    wl.setup()
    setup_s = import_s + perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wall_limit = 3 * args.seconds + 30
    if tracer is None:
        result = summary(run_ops(wl, wl.ops(args.seed), args.seconds, None,
                                 wall_limit))
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        result["setup_s"] = setup_s
    else:
        n_ops = max(20, round(args.seconds * wl.trace_ops_per_s))
        tracer.restore()
        wl.traced = False
        untraced = summary(run_ops(wl, wl.ops(args.seed), 0, n_ops,
                                   wall_limit))
        wl.traced = True
        layers.install(tracer, cp)
        result = summary(run_ops(wl, wl.ops(args.seed), 0, n_ops, wall_limit,
                                 tracer))
        tracer.restore()
        metrics = layers.metrics(tracer, getattr(wl, "records", []))
        metrics["trace.overhead_throughput_ops_s"] = (
            result["throughput_ops_s"] - untraced["throughput_ops_s"], "1/s")
        metrics["trace.overhead_latency_p50_ms"] = (
            result["latency_p50_ms"] - untraced["latency_p50_ms"], "ms")
        result["layers"] = metrics
        result["untraced"] = {k: untraced[k] for k in
                              ("attempted", "throughput_ops_s", "latency_p50_ms")}
        out = Path(".perfbench")
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "spans": tracer.spans,
            "calls": dict(tracer.calls),
            "cli": getattr(wl, "records", []),
        }))
        result["trace_file"] = str(path)
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
