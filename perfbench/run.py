"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, oracle, recursion, cli (see perfbench/NOTES.md), or
all four in turn with --workload all.  Each run starts one worker process
at a time, with PYTHONPATH=src and one BLAS thread, and waits for it.  With
--trace 0 it also starts fresh interpreters that only set up, and reports
the median set-up time.

Prints a readable report per workload, each ending in one JSON line with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Exits 1 without
that line if a worker fails, and 2 if the checkout holds no package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "oracle", "recursion", "cli")
# fresh interpreters timed per run for setup_s; the oracle's cold tables
# take seconds to build, so it takes fewer
SETUP_SAMPLES = {"oracle": 3}
DEFAULT_SETUP_SAMPLES = 7
DEADLINE_S = 170
END_TO_END = (("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("pass_frac", "fraction"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
CPU_CACHES = Path("/sys/devices/system/cpu/cpu0/cache")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cache_sizes() -> dict:
    """CPU cache sizes as the kernel reports them, e.g. {"L2 Unified": "2048K"}."""
    sizes = {}
    for index in sorted(CPU_CACHES.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level} {kind}"] = size
    return sizes


def environment(root: Path, args, workload: str, numpy_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": cache_sizes(), "git_commit": git_commit(root),
            "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, argv: list, env: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cayley_potts" / "__init__.py").is_file():
        print("error: src/cayley_potts not found; run from the root of a "
              "cayley-potts checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run_one(root, args, name)
        if code:
            return code
    return 0


def run_one(root: Path, args, workload: str) -> int:
    started = monotonic()
    env = child_env(root)
    base = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = run_worker(root, base, env, DEADLINE_S)
        setups = []
        if not args.trace:
            setups.append(result["setup_s"])
            for _ in range(SETUP_SAMPLES.get(workload,
                                             DEFAULT_SETUP_SAMPLES) - 1):
                left = DEADLINE_S - (monotonic() - started)
                if left < 20:  # a slow machine gets fewer samples, not a failure
                    break
                setups.append(run_worker(root, base + ["--setup-only"], env,
                                         left)["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, known, wrong = (result["attempted"], result["known"],
                               result["wrong"])
    print(f"perfbench {workload}: seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(root, args, workload, result["numpy"])))
    print(f"ops attempted {attempted}, wrong {wrong}, known defects {known}, "
          f"fail_frac {(known + wrong) / attempted:.4f}")
    for p in result["problems"]:
        print(f"  {p['status']}: {p['why']}")

    if args.trace:
        metrics = result["layers"]
        untraced = result["untraced"]
        print(f"traced pass: {attempted} ops, {result['throughput_ops_s']:.4g} "
              f"ops/s, p50 {result['latency_p50_ms']:.4g} ms; untraced pass: "
              f"{untraced['attempted']} ops, {untraced['throughput_ops_s']:.4g} "
              f"ops/s, p50 {untraced['latency_p50_ms']:.4g} ms")
        print(f"spans written to {result['trace_file']}")
    else:
        result["pass_frac"] = (attempted - known - wrong) / attempted
        result["setup_s"] = statistics.median(setups)
        metrics = {name: (result[name], unit) for name, unit in END_TO_END}
        print(f"latency_p90_ms has {result['beyond_p90']} of {attempted} "
              f"samples beyond it; setup_s is the median of "
              f"{len(setups)} set-ups: {[round(s, 4) for s in setups]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
