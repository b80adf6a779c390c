"""Acceptance gate: ten pinned behavioral criteria.

Each test prints a single ``criterion NN [PASS|FAIL]`` line (run with
``pytest -s`` to see them) and asserts both the numerical tolerances and a
wall-clock budget.  Tolerances are frozen; loosening them is a regression.
"""

import math
import time
from pathlib import Path

import numpy as np

from cayley_potts import cli
from cayley_potts.period2 import (domain_bounds, f_scalar, h_scalar,
                                  period2_map, sign_relation_check, theta_cr)
from cayley_potts.potts import (ModelParams, check_consistency,
                                propagate_fields)
from cayley_potts.solver import find_h_roots
from cayley_potts.tree import build_tree, sphere
from helpers import (descartes_positive_root_bound, g_scalar, h_prime,
                     p_coefficients)

GOLDEN = Path(__file__).parent / "data" / "scan_k3_golden.csv"


def report(num: int, label: str, problems: list, t0: float,
           budget: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] "
          f"{label} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:5])
    assert elapsed < budget, (f"criterion {num}: runtime {elapsed:.2f}s "
                              f"exceeds budget {budget:g}s")


def test_criterion_01_three_root_regime():
    # below the critical activity: exactly one translation-invariant root
    # plus a period-2 pair straddling it, residuals at 1e-10, orbit closed
    t0 = time.perf_counter()
    problems = []
    for k in (3, 4, 5):
        tcr = theta_cr(k)
        for theta in np.linspace(0.02, 0.98 * tcr, 12)[1:-1]:
            rep = find_h_roots(theta, k)
            tag = f"k={k} theta={theta:.6g}"
            if rep.count != 3:
                problems.append(f"{tag}: count={rep.count}")
                continue
            x0, x1, x2 = rep.roots
            if not x0 < 1.0 < x2:
                problems.append(f"{tag}: roots do not straddle 1")
            if max(abs(h_scalar(x, rep.theta, k)) for x in rep.roots) > 1e-10:
                problems.append(f"{tag}: residual too large")
            closure = abs(f_scalar(f_scalar(x0, theta, k), theta, k) - x0)
            if closure > 1e-8:
                problems.append(f"{tag}: orbit closure {closure:.3e}")
    report(1, "exactly three roots below the critical activity",
           problems, t0, 5.0)


def test_criterion_02_critical_activity_formula():
    t0 = time.perf_counter()
    problems = []
    for k, expected in ((3, 0.25), (4, (4 - 2) / (4 + 1)), (4, 0.4),
                        (10, 8 / 11)):
        got = theta_cr(k)
        if got != expected:
            problems.append(f"theta_cr({k}) = {got!r}, want {expected!r}")
    report(2, "critical activity equals (k-2)/(k+1) exactly",
           problems, t0, 1.0)


def test_criterion_03_consistency_oracle():
    # recursed boundary fields make every finite-volume marginal agree with
    # the next smaller volume; a knocked field breaks the agreement
    t0 = time.perf_counter()
    problems = []
    for k, q, n in ((2, 3, 2), (2, 2, 3)):
        tree = build_tree(k, n)
        leaves = sphere(tree, n)
        rng = np.random.default_rng(3)
        worst = 0.0
        for theta in (0.3, 0.7, 1.0, 2.0):
            params = ModelParams.from_theta(k, q, theta)
            for _ in range(20):
                leaf = rng.uniform(-2.0, 2.0, size=(len(leaves), q - 1))
                fields = propagate_fields(tree, leaf, params)
                worst = max(worst, check_consistency(tree, fields, params))
        if worst > 1e-12:
            problems.append(f"k={k} q={q} n={n}: violation {worst:.3e}")
        params = ModelParams.from_theta(k, q, 0.3)
        leaf = rng.uniform(-2.0, 2.0, size=(len(leaves), q - 1))
        fields = propagate_fields(tree, leaf, params)
        fields[int(sphere(tree, n - 1)[0]), 0] += 0.25
        control = check_consistency(tree, fields, params)
        if control <= 1e-3:
            problems.append(f"k={k} q={q} n={n}: control only {control:.3e}")
    report(3, "exact-enumeration consistency oracle", problems, t0, 30.0)


def test_criterion_04_inverse_and_derivative_identities():
    t0 = time.perf_counter()
    problems = []
    for k in (3, 4, 5):
        for theta in (0.05, 0.1, 0.2):
            tag = f"k={k} theta={theta}"
            t1, t2 = domain_bounds(theta, k)
            for x in np.geomspace(0.05, 20.0, 100):
                y = f_scalar(x, theta, k)
                if abs(g_scalar(y, theta, k) - x) > 1e-12 * abs(x):
                    problems.append(f"{tag}: g(f({x:.4g})) != x")
            grid = np.geomspace(t1 * (1 + 1e-3), t2 * (1 - 1e-3), 100)
            for y in grid:
                x = g_scalar(y, theta, k)
                if abs(f_scalar(x, theta, k) - y) > 1e-12 * abs(y):
                    problems.append(f"{tag}: f(g({y:.4g})) != y")
            for x in grid:
                step = 1e-6 * x
                fd = (h_scalar(x + step, theta, k)
                      - h_scalar(x - step, theta, k)) / (2.0 * step)
                an = h_prime(x, theta, k)
                if abs(fd - an) > 1e-6 * abs(an):
                    problems.append(f"{tag}: h' mismatch at x={x:.4g}")
    report(4, "f/g inverses and analytic h' vs finite difference",
           problems, t0, 1.0)


def test_criterion_05_sign_relations():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(5)
    for trial in range(10_000):
        theta = rng.uniform(1e-3, 1.0 - 1e-3)
        k = int(rng.integers(1, 9))
        z = np.exp(rng.uniform(-4.0, 4.0, size=4))
        out = period2_map(z, theta, k)
        a, b, c = sign_relation_check(z, out, theta)
        if not (a and b and c):
            problems.append(f"trial {trial}: ({a}, {b}, {c}) at "
                            f"theta={theta:.6g} k={k}")
            if len(problems) > 4:
                break
    report(5, "order relations hold on 10,000 random trials",
           problems, t0, 1.0)


def test_criterion_06_descartes_bound():
    t0 = time.perf_counter()
    problems = []
    for k in range(3, 13):
        for theta in np.linspace(0.01, 0.99, 50):
            changes = descartes_positive_root_bound(
                p_coefficients(theta, k))
            if changes != 2:
                problems.append(f"k={k} theta={theta:.4g}: {changes}")
    report(6, "coefficient sign changes always number two",
           problems, t0, 1.0)


def test_criterion_07_invariant_set():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(7)
    for trial in range(1000):
        x, y = np.exp(rng.uniform(-4.5, 4.5, size=2))
        theta = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        k = int(rng.integers(1, 13))
        out = period2_map(np.array([x, x, y, y]), theta, k)
        if (abs(out[0] - out[1]) > 1e-14 * abs(out[0])
                or abs(out[2] - out[3]) > 1e-14 * abs(out[2])):
            problems.append(f"trial {trial}: left the invariant set")
            continue
        fy, fx = f_scalar(y, theta, k), f_scalar(x, theta, k)
        if (abs(out[0] - fy) > 1e-13 * abs(fy)
                or abs(out[2] - fx) > 1e-13 * abs(fx)):
            problems.append(f"trial {trial}: restriction is not (f(y), f(x))")
    report(7, "z1=z2, z3=z4 is invariant and restricts to f",
           problems, t0, 1.0)


def test_criterion_08_derivative_boundary_behavior():
    t0 = time.perf_counter()
    problems = []
    for k in (3, 4, 5):
        tcr = theta_cr(k)
        for theta in (0.05, 0.5 * tcr, 0.9 * tcr):
            tag = f"k={k} theta={theta:.6g}"
            t1, t2 = domain_bounds(theta, k)
            if not h_prime(t1 * (1 + 1e-4), theta, k) > 0:
                problems.append(f"{tag}: h' not positive near lower end")
            if not h_prime(t2 * (1 - 1e-4), theta, k) > 0:
                problems.append(f"{tag}: h' not positive near upper end")
            if not h_prime(1.0, theta, k) < 0:
                problems.append(f"{tag}: h'(1) not negative")
    report(8, "h' positive at the ends, negative at the fixed point",
           problems, t0, 1.0)


def test_criterion_09_single_root_above_threshold():
    # DERIVED: observed regression property, not an analytic guarantee
    t0 = time.perf_counter()
    problems = []
    for k in (3, 4, 5):
        tcr = theta_cr(k)
        for theta in np.linspace(1.02 * tcr, 0.95, 12)[1:-1]:
            rep = find_h_roots(theta, k)
            if rep.count != 1:
                problems.append(f"k={k} theta={theta:.6g}: "
                                f"count={rep.count}")
    report(9, "single root above the critical activity", problems, t0, 5.0)


def test_criterion_10_scan_determinism(tmp_path):
    t0 = time.perf_counter()
    problems = []
    argv = ["scan", "--k", "3", "--theta", "0.05:0.95:19", "--format", "csv"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    if cli.main(argv + ["--out", str(first)]) != 0:
        problems.append("first run failed")
    if cli.main(argv + ["--out", str(second)]) != 0:
        problems.append("second run failed")
    if not problems:
        a, b = first.read_bytes(), second.read_bytes()
        if a != b:
            problems.append("runs differ byte for byte")
        if a != GOLDEN.read_bytes():
            problems.append("output differs from the frozen golden file")
    report(10, "byte-identical sweep output matching the golden file",
           problems, t0, 5.0)
