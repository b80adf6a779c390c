"""The four benchmark workloads: sweep, oracle, recursion and cli.

Each workload has
  ``ops(seed)``   an endless, deterministic stream of op inputs,
  ``setup()``     the warm-up a user pays once per process,
  ``run(op)``     the timed call into the package,
  ``check(op, out)`` a verdict from a reference that does not use the
                  package: (OK, ""), (KNOWN, why) or (WRONG, why).

KNOWN marks the wrong outputs that ROADMAP item 2 already lists: a pair
root lost inside the clamp margin and flagged ``domain-edge``, and a count-3
row without its orbit pair.  They count in fail_frac; any other wrong
output is WRONG and makes the run incorrect.

Op inputs come from stratified cycles: every cycle holds each shape, row
count or subcommand in fixed proportions, shuffled by the seed.  The
proportions put the median and the 90th percentile inside one kind of op
rather than on the boundary between two, so they do not jump with the seed.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy as np

import reference as ref

OK, KNOWN, WRONG = "ok", "known", "wrong"

# relative error allowed on a pair root; the worst healthy error measured
# is 1.6e-11, at theta = theta_cr (1 - 1e-5), the closest a sweep draws
REL_TOL = 1e-9
# "near-degenerate" with count 1 is right only this close to x = 1
DEGENERATE_REL = 1e-7
RECURSION_TOL = 1e-12
VERIFY_TOL = 1e-10
# fixed_point_iterate stops on an absolute update of 1e-10, so the limit
# carries that error amplified by the contraction near theta = 0.2
ORBIT_TOL = 1e-7


def cycle(rng: random.Random, pool):
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@functools.lru_cache(maxsize=None)
def pair(k: int, theta: float):
    return ref.period2_pair(k, theta)


def near(x: float, r) -> bool:
    return ref.rel_err(x, r) <= REL_TOL


def check_roots(k, theta, count, roots, pairs, flags):
    """Verdict on one reported root set; ``pairs`` is None where the output
    format has no pair column."""
    roots = list(roots)
    t_cr = ref.theta_cr(k)
    if theta >= t_cr:
        if count == 1 and roots == [1.0]:
            return OK, ""
        return WRONG, f"k={k} theta={theta!r}: expected only x = 1, got {roots}"
    x0, x2 = pair(k, theta)
    if count == 3 and len(roots) == 3 and roots[1] == 1.0 \
            and near(roots[0], x0) and near(roots[2], x2):
        if pairs is None or (len(pairs) == 1 and near(pairs[0][0], x0)
                             and near(pairs[0][1], x2)):
            return OK, ""
        if not pairs:
            return KNOWN, f"k={k} theta={theta!r}: unpaired (count 3, no orbit pair)"
    if count == 1 and roots == [1.0] and "near-degenerate" in flags \
            and ref.rel_err(1.0, x0) <= DEGENERATE_REL \
            and ref.rel_err(1.0, x2) <= DEGENERATE_REL:
        return OK, ""
    if count == len(roots) < 3 and "domain-edge" in flags and 1.0 in roots \
            and all(x == 1.0 or near(x, x0) or near(x, x2) for x in roots):
        return KNOWN, f"k={k} theta={theta!r}: domain-edge (count {count})"
    return WRONG, (f"k={k} theta={theta!r}: count {count} roots {roots} "
                   f"pairs {pairs} flags {list(flags)}; reference pair "
                   f"({ref.mpmath.nstr(x0, 17)}, {ref.mpmath.nstr(x2, 17)})")


def worst(verdicts):
    """The worst of several (status, why) verdicts, reasons joined."""
    for status in (WRONG, KNOWN):
        whys = [w for s, w in verdicts if s == status]
        if whys:
            return status, "; ".join(whys)
    return OK, ""


# ---------------------------------------------------------------------------
# sweep: scan_theta over a short interval, then a CSV round trip in memory

# every (k, regime) pair once per cycle, so each run holds the same share
# of the domain-edge ops at k >= 10 where the known defects sit
SWEEP_CASES = tuple((k, regime) for k in (3, 4, 5, 10, 20, 50)
                    for regime in ("edge", "near", "above"))
SWEEP_ROWS = (1, 1, 2, 3, 3, 3, 4, 5, 8, 8)


def theta_interval(rng: random.Random, k: int, regime: str):
    """A short theta interval inside one regime; every row stays strictly
    on its side of theta_cr."""
    t_cr = ref.theta_cr(k)
    while True:
        if regime == "edge":
            lo = log_uniform(rng, 1e-3, t_cr)
            hi = min(lo * (1 + 10 ** rng.uniform(-4, -2)), (lo + t_cr) / 2)
            ok = 0 < lo < hi < t_cr
        elif regime == "near":
            gap = 10 ** -rng.uniform(0.01, 5)
            lo, hi = t_cr * (1 - gap), t_cr * (1 - gap / 2)
            ok = 0 < lo < hi < t_cr
        else:
            lo = t_cr + (1 - t_cr) * rng.uniform(0.001, 0.99)
            hi = lo + (1 - lo) * 10 ** rng.uniform(-4, -1)
            ok = t_cr < lo < hi < 1
        if ok:
            return lo, hi


def row_key(row):
    return (row.k, row.theta, row.theta_cr, row.count, row.roots, row.flags)


class Sweep:
    trace_ops_per_s = 2.0

    def __init__(self, cp):
        self.cp = cp

    def setup(self):
        pass

    def ops(self, seed: int):
        cases = cycle(stream(seed, "case"), SWEEP_CASES)
        rows = cycle(stream(seed, "rows"), SWEEP_ROWS)
        draw = stream(seed, "theta")
        while True:
            k, regime = next(cases)
            lo, hi = theta_interval(draw, k, regime)
            yield {"k": k, "regime": regime, "lo": lo, "hi": hi,
                   "steps": next(rows)}

    def run(self, op):
        scan = self.cp.scan
        rows = scan.scan_theta(op["k"], op["lo"], op["hi"], op["steps"])
        buf = io.BytesIO()
        scan.emit_csv(rows, buf)
        buf.seek(0)
        return rows, scan.parse_csv(buf)

    def check(self, op, out):
        rows, parsed = out
        thetas = [float(t) for t in np.linspace(op["lo"], op["hi"], op["steps"])]
        if len(rows) != len(thetas) or len(parsed) != len(rows):
            return WRONG, f"{len(rows)} rows, {len(parsed)} parsed, {len(thetas)} expected"
        verdicts = []
        for row, back, theta in zip(rows, parsed, thetas):
            if (row.k, row.theta, row.theta_cr) != (op["k"], theta,
                                                    ref.theta_cr(op["k"])):
                verdicts.append((WRONG, f"row header {row.k}, {row.theta!r}"))
            elif row_key(back) != row_key(row):
                verdicts.append((WRONG, f"theta={theta!r}: CSV round trip "
                                        f"changed the row"))
            else:
                verdicts.append(check_roots(row.k, row.theta, row.count,
                                            row.roots, row.pairs, row.flags))
        return worst(verdicts)


# ---------------------------------------------------------------------------
# oracle: propagate_fields then the exhaustive check_consistency

# (k, q, n): 3^10, 2^17, 4^10 and 2^22 configurations
ORACLE_CYCLE = ((2, 3, 2),) * 3 + ((3, 2, 2),) * 3 + ((2, 4, 2),) * 2 \
    + ((2, 2, 3),) * 2


def perturb_target(k: int, n: int) -> int:
    """First vertex of generation n - 1, as the CLI's --perturb picks."""
    return ref.ball_size(k, n - 2) if n >= 2 else 0


class Oracle:
    trace_ops_per_s = 7.0

    def __init__(self, cp):
        self.cp = cp
        self.trees = {}

    def setup(self):
        potts = self.cp.potts
        for k, q, n in dict.fromkeys(ORACLE_CYCLE):
            tree = self.cp.tree.build_tree(k, n)
            self.trees[(k, q, n)] = tree
            # the first call per shape builds its enumeration tables
            params = potts.ModelParams.from_theta(k, q, 0.5)
            leaf = np.zeros((ref.level_sizes(k, n)[-1], q - 1))
            potts.check_consistency(
                tree, potts.propagate_fields(tree, leaf, params), params)

    def ops(self, seed: int):
        shapes = cycle(stream(seed, "shape"), ORACLE_CYCLE)
        perturbs = cycle(stream(seed, "perturb"), (True, False, False, False))
        draw = stream(seed, "theta")
        leaves = np.random.default_rng([seed, 1])
        while True:
            k, q, n = next(shapes)
            delta = None
            if next(perturbs):
                delta = draw.choice((-1, 1)) * draw.uniform(0.05, 1.0)
            yield {"shape": (k, q, n), "theta": log_uniform(draw, 0.25, 4.0),
                   "leaf": leaves.uniform(-2, 2, (ref.level_sizes(k, n)[-1], q - 1)),
                   "perturb": delta}

    def run(self, op):
        potts = self.cp.potts
        k, q, n = op["shape"]
        tree = self.trees[op["shape"]]
        params = potts.ModelParams.from_theta(k, q, op["theta"])
        fields = potts.propagate_fields(tree, op["leaf"], params)
        checked = fields
        if op["perturb"] is not None:
            checked = fields.copy()
            checked[perturb_target(k, n), 0] += op["perturb"]
        return fields, potts.check_consistency(tree, checked, params)

    def check(self, op, out):
        fields, violation = out
        k, q, n = op["shape"]
        verdict = check_fields(k, n, op["leaf"], op["theta"], fields)
        if verdict[0] != OK:
            return verdict
        if op["perturb"] is None and not violation <= VERIFY_TOL:
            return WRONG, f"{op['shape']}: recursed fields violate by {violation:.3e}"
        if op["perturb"] is not None and not violation > VERIFY_TOL:
            return WRONG, f"{op['shape']}: perturbed fields pass ({violation:.3e})"
        return OK, ""


def check_fields(k, n, leaf, theta, fields):
    expected = ref.propagate_reference(k, n, leaf, theta)
    if fields.shape != expected.shape:
        return WRONG, f"fields shape {fields.shape}, expected {expected.shape}"
    err = float(np.max(np.abs(fields - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if not err <= RECURSION_TOL * scale:
        return WRONG, f"k={k} n={n}: fields differ by {err:.3e}"
    return OK, ""


# ---------------------------------------------------------------------------
# recursion: propagate_fields on trees of 1,457 to 13,121 vertices

# (k, q, n) -> 1,457 / 4,373 / 3,070 (deep, q=5) / 13,121 vertices
RECURSION_CYCLE = ((3, 3, 6),) * 7 + ((3, 3, 7),) * 6 + ((2, 5, 10),) * 4 \
    + ((3, 3, 8),) * 3


class Recursion:
    trace_ops_per_s = 2.0

    def __init__(self, cp):
        self.cp = cp
        self.trees = {}

    def setup(self):
        for k, q, n in dict.fromkeys(RECURSION_CYCLE):
            self.trees[(k, q, n)] = self.cp.tree.build_tree(k, n)

    def ops(self, seed: int):
        shapes = cycle(stream(seed, "shape"), RECURSION_CYCLE)
        draw = stream(seed, "theta")
        leaves = np.random.default_rng([seed, 2])
        while True:
            k, q, n = next(shapes)
            yield {"shape": (k, q, n), "theta": log_uniform(draw, 0.25, 4.0),
                   "leaf": leaves.uniform(-2, 2, (ref.level_sizes(k, n)[-1], q - 1))}

    def run(self, op):
        potts = self.cp.potts
        k, q, n = op["shape"]
        params = potts.ModelParams.from_theta(k, q, op["theta"])
        return potts.propagate_fields(self.trees[op["shape"]], op["leaf"], params)

    def check(self, op, out):
        k, q, n = op["shape"]
        return check_fields(k, n, op["leaf"], op["theta"], out)


# ---------------------------------------------------------------------------
# cli: one subprocess per op through the console-script entry point

ENTRY = "from cayley_potts.cli import run; run()"
STUB = str(Path(__file__).with_name("cli_stub.py"))
TRACE_PREFIX = b"PERFBENCH "

CLI_CYCLE = ("roots-readme", "roots-text", "roots-json", "roots-json",
             "roots-csv", "scan-readme", "scan-csv", "scan-csv", "scan-csv",
             "scan-csv", "scan-golden", "verify", "verify", "verify-perturb",
             "orbit", "orbit", "tree-check", "tree-check", "error", "error")

# validation errors, each documented to exit 1
CLI_ERRORS = (
    ("roots", "--k", "3", "--theta", "1.5"),
    ("roots", "--k", "3"),
    ("roots", "--k", "2", "--theta", "0.1"),
    ("roots", "--k", "3", "--theta", "0.1", "--J", "-1"),
    ("scan", "--k", "3", "--theta", "0.4:0.1:3"),
    ("verify", "--k", "2", "--n", "0", "--theta", "0.5"),
    ("orbit", "--k", "3", "--theta", "0.1", "--z", "1,2,3"),
    ("tree-check", "--k", "0", "--n", "2"),
)

README_ROOTS = ("roots", "--k", "3", "--theta", "0.1")
README_SCAN = ("scan", "--k", "3", "--theta", "0.1:0.4:3")
GOLDEN_SCAN = ("scan", "--k", "3", "--theta", "0.05:0.95:19", "--format", "csv")


def readme_transcript(text: str, args) -> bytes:
    """Output lines that follow '$ cayley-potts <args>' in a README block."""
    lines = text.split("\n")
    start = lines.index("$ cayley-potts " + " ".join(args)) + 1
    end = lines.index("```", start)
    return ("\n".join(lines[start:end]) + "\n").encode("ascii")


def tree_check_text(k: int, n: int) -> bytes:
    sizes = ref.level_sizes(k, n)
    total = ref.ball_size(k, n)
    lines = [f"tree: k={k} depth={n}"]
    lines += [f"  |W_{m}| = {s}" for m, s in enumerate(sizes)]
    lines += [f"  vertices = {total}", f"  edges    = {total - 1}"]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_csv_rows(text: str):
    """(k, theta, count, roots) per row of the fixed 8-column CSV."""
    lines = text.strip("\n").split("\n")
    if lines[0] != "k,theta,theta_cr,count,x0,x1,x2,flags":
        raise ValueError(f"CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        k, theta, t_cr, count, x0, x1, x2, flags = line.split(",")
        roots = [float(x) for x in (x0, x1, x2) if x]
        rows.append((int(k), float(theta), float(t_cr), int(count), roots,
                     [f for f in flags.split(";") if f]))
    return rows


def parse_roots_text(text: str):
    count = int(re.search(r"^count=(\d+):", text, re.M).group(1))
    roots = [float(x) for x in re.findall(r"^  x = (\S+)", text, re.M)]
    pairs = [(float(a), float(b)) for a, b in
             re.findall(r"^orbit pair: f\((\S+)\) = (\S+)$", text, re.M)]
    flag_line = re.search(r"^flags: (.*)$", text, re.M).group(1)
    flags = [] if flag_line == "(none)" else flag_line.split(";")
    return count, roots, pairs, flags


class Cli:
    trace_ops_per_s = 1.5

    def __init__(self, env: dict):
        self.env = env
        self.traced = False  # True runs each op through the timing stub
        root = Path.cwd()
        readme = (root / "README.md").read_text(encoding="utf-8")
        self.expected = {
            README_ROOTS: readme_transcript(readme, README_ROOTS),
            README_SCAN: readme_transcript(readme, README_SCAN),
            GOLDEN_SCAN: (root / "tests/data/scan_k3_golden.csv").read_bytes(),
        }
        self.records = []  # import and main timings from the traced stub

    def setup(self):
        pass

    def ops(self, seed: int):
        kinds = cycle(stream(seed, "kind"), CLI_CYCLE)
        draw = stream(seed, "args")
        while True:
            kind = next(kinds)
            yield {"kind": kind, "args": self._args(kind, draw)}

    @staticmethod
    def _args(kind: str, draw: random.Random):
        k = draw.choice((3, 4, 5))
        theta = draw.uniform(0.05, 0.95)
        if kind == "roots-readme":
            return README_ROOTS
        if kind in ("roots-text", "roots-json", "roots-csv"):
            return ("roots", "--k", str(k), "--theta", repr(theta),
                    "--format", kind.split("-")[1])
        if kind == "scan-readme":
            return README_SCAN
        if kind == "scan-csv":
            hi = min(theta + draw.uniform(0.01, 0.2), 0.99)
            return ("scan", "--k", str(k), "--theta",
                    f"{theta!r}:{hi!r}:3", "--format", "csv")
        if kind == "scan-golden":
            return GOLDEN_SCAN
        if kind in ("verify", "verify-perturb"):
            args = ("verify", "--k", "2", "--n", "2", "--theta",
                    repr(log_uniform(draw, 0.25, 4.0)), "--trials", "2",
                    "--seed", str(draw.randrange(1000)))
            if kind == "verify-perturb":
                args += ("--perturb", repr(draw.uniform(0.05, 1.0)))
            return args
        if kind == "orbit":
            z = (draw.uniform(0.5, 0.95), draw.uniform(1.05, 3.0))
            return ("orbit", "--k", "3", "--theta", repr(draw.uniform(0.05, 0.2)),
                    "--z", f"{z[0]!r},{z[0]!r},{z[1]!r},{z[1]!r}")
        if kind == "tree-check":
            return ("tree-check", "--k", str(draw.randint(2, 5)),
                    "--n", str(draw.randint(1, 4)))
        return draw.choice(CLI_ERRORS)

    def run(self, op):
        spawned = monotonic()
        entry = [STUB] if self.traced else ["-c", ENTRY]
        proc = subprocess.run([sys.executable, *entry, *op["args"]], env=self.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, spawned

    def check(self, op, out):
        code, stdout, stderr, spawned = out
        kind, args = op["kind"], op["args"]
        # the traced stub appends its timings to stderr; keep them apart
        head, sep, tail = stderr.rpartition(TRACE_PREFIX)
        if sep:
            record = json.loads(tail)
            # both ends read CLOCK_MONOTONIC, which Linux shares system-wide
            record["interpreter_s"] = record.pop("started") - spawned
            record["stdout_bytes"] = len(stdout)
            self.records.append(record)
            stderr = head
        try:
            return self._check(kind, args, code, stdout, stderr)
        except (ValueError, AttributeError, IndexError) as exc:
            return WRONG, f"{' '.join(args)}: unreadable output ({exc})"

    def _check(self, kind, args, code, stdout, stderr):
        label = " ".join(args)
        if kind == "error":
            if code == 1 and not stdout and b"error" in stderr:
                return OK, ""
            return WRONG, f"{label}: exit {code}, expected a validation error"
        expect_code = 2 if kind == "verify-perturb" else 0
        if code != expect_code:
            return WRONG, f"{label}: exit {code}, expected {expect_code}"
        if args in self.expected:
            if stdout == self.expected[args]:
                return OK, ""
            return WRONG, f"{label}: output differs from the documented bytes"
        text = stdout.decode("ascii")
        k = int(args[args.index("--k") + 1])
        if kind == "tree-check":
            n = int(args[args.index("--n") + 1])
            ok = stdout == tree_check_text(k, n)
            return (OK, "") if ok else (WRONG, f"{label}: wrong tree sizes")
        if kind.startswith("verify"):
            return check_verify(label, text, kind == "verify-perturb")
        theta_arg = args[args.index("--theta") + 1]
        if kind == "orbit":
            return check_orbit(label, text, k, float(theta_arg))
        if kind == "scan-csv":
            lo, hi, steps = theta_arg.split(":")
            thetas = [float(t) for t in np.linspace(float(lo), float(hi), int(steps))]
            rows = parse_csv_rows(text)
            if [r[1] for r in rows] != thetas:
                return WRONG, f"{label}: rows at the wrong theta values"
            return worst([check_roots(r[0], r[1], r[3], r[4], None, r[5])
                          for r in rows])
        theta = float(theta_arg)
        if kind == "roots-json":
            data = json.loads(text)
            if data["theta_cr"] != ref.theta_cr(k):
                return WRONG, f"{label}: theta_cr {data['theta_cr']!r}"
            return check_roots(k, theta, data["count"],
                               [r["x"] for r in data["roots"]],
                               [tuple(p) for p in data["pairs"]], data["flags"])
        if kind == "roots-csv":
            (_, _, _, count, roots, flags), = parse_csv_rows(text)
            return check_roots(k, theta, count, roots, None, flags)
        return check_roots(k, theta, *parse_roots_text(text))


def check_verify(label: str, text: str, perturbed: bool):
    lines = text.strip("\n").split("\n")
    trials = int(re.search(r"trials=(\d+)", lines[0]).group(1))
    violations = [float(v) for v in
                  re.findall(r"^  trial +\d+: violation = (\S+)$", text, re.M)]
    verdict = lines[-1].split()[0]
    if len(violations) != trials:
        return WRONG, f"{label}: {len(violations)} trial lines for {trials} trials"
    if perturbed:
        if verdict == "FAIL" and max(violations) > VERIFY_TOL:
            return OK, ""
        return WRONG, f"{label}: negative control not caught"
    if verdict == "PASS" and max(violations) <= VERIFY_TOL:
        return OK, ""
    return WRONG, f"{label}: violations {violations}"


def check_orbit(label: str, text: str, k: int, theta: float):
    z = [float(v) for v in
         re.search(r"^limit z = \((.*)\)$", text, re.M).group(1).split(", ")]
    x0, x2 = pair(k, theta)
    on_set = z[0] == z[1] and z[2] == z[3]
    lo, hi = sorted((z[0], z[2]))
    if on_set and ref.rel_err(lo, x0) <= ORBIT_TOL and ref.rel_err(hi, x2) <= ORBIT_TOL:
        return OK, ""
    return WRONG, f"{label}: limit {z} is not the pair"


WORKLOADS = ("sweep", "oracle", "recursion", "cli")


def make(name: str, cp, env: dict):
    if name == "cli":
        return Cli(env)
    return {"sweep": Sweep, "oracle": Oracle, "recursion": Recursion}[name](cp)
