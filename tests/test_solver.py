"""Sign-change scanning and bisection, the h-root enumeration, and the
two-cycle iteration that ``orbit`` runs."""

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cayley_potts import cli, solver
from cayley_potts.period2 import (DomainError, domain_bounds, f_scalar,
                                  h_scalar, period2_map, theta_cr)
from cayley_potts.potts import (ModelParams, check_consistency, f_map,
                                propagate_fields)
from cayley_potts.scan import parse_csv, render_rows, scan_theta
from cayley_potts.solver import _linspace, bisect, find_h_roots, scan_brackets
from cayley_potts.tree import build_tree, sphere
from helpers import certified_within_16_ulp, floats_away

DATA = Path(__file__).parent / "data"

X0_GOLDEN = 0.19649931210530602  # theta=0.1, k=3, 60-digit dual-method value
X2_GOLDEN = 15.011479580653047

THETA, K = 0.1, 3


# ---------------------------------------------------------------- brackets


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 15, 2001, 4001])
def test_linspace_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(20 + n)
    cases = [(0.0, 5e-324 * 3), (-1.0, 1.0), (1.0, math.nextafter(1.0, 2.0))]
    for _ in range(60):
        # endpoints across many decades, of either sign, wide or narrow
        lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
        width = abs(lo) * 10.0 ** rng.uniform(-15, 3) or 1.0
        cases.append((lo, lo + width))
        cases.append(tuple(sorted(10.0 ** rng.uniform(-300, 300, size=2))))
    for lo, hi in cases:
        assert lo < hi
        assert _bits(_linspace(lo, hi, n)) == _bits(np.linspace(lo, hi, n)), \
            (lo, hi)


def test_scan_brackets_line():
    found = scan_brackets(lambda x: x - 1.0, 0.5, 2.0, 10)
    assert len(found) == 1
    lo, hi, f_lo, f_hi = found[0]
    assert lo < 1.0 < hi
    assert (f_lo, f_hi) == (lo - 1.0, hi - 1.0)


def test_scan_brackets_h_below_threshold():
    t1, t2 = domain_bounds(THETA, K)
    lo, hi = t1 * (1 + 1e-9), t2 * (1 - 1e-9)
    found = scan_brackets(lambda x: h_scalar(x, THETA, K), lo, hi, 2000)
    assert len(found) == 3


def test_scan_brackets_h_above_threshold():
    t1, t2 = domain_bounds(0.3, K)
    lo, hi = t1 * (1 + 1e-9), t2 * (1 - 1e-9)
    found = scan_brackets(lambda x: h_scalar(x, 0.3, K), lo, hi, 2000)
    assert len(found) == 1


def test_scan_brackets_no_change_and_determinism():
    assert scan_brackets(lambda x: x * x + 1.0, -1.0, 1.0, 50) == []
    a = scan_brackets(lambda x: math.sin(x), 1.0, 10.0, 100)
    b = scan_brackets(lambda x: math.sin(x), 1.0, 10.0, 100)
    assert a == b
    assert len(a) == 3  # roots at pi, 2*pi, 3*pi


def test_scan_brackets_treats_domain_errors_as_gaps():
    def partial(x):
        if x < 1.0:
            raise DomainError("left edge")
        return x - 1.5

    found = scan_brackets(partial, 0.5, 2.0, 30)
    assert len(found) == 1
    assert found[0][0] < 1.5 < found[0][1]


# ---------------------------------------------------------------- bisect


def test_bisect_sqrt2():
    fn = lambda x: x * x - 2.0
    root = bisect(fn, 1.0, 2.0, fn(1.0), fn(2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bisect_exact_midpoint_hit():
    fn = lambda x: x - 0.5
    assert bisect(fn, 0.0, 1.0, -0.5, 0.5) == 0.5


def test_bisect_h_root_at_one():
    fn = lambda x: h_scalar(x, THETA, K)
    root = bisect(fn, 0.9, 1.1, fn(0.9), fn(1.1))
    assert root == pytest.approx(1.0, abs=1e-10)


def test_bisect_runs_to_float_exhaustion():
    fn = lambda x: x * x - 2.0
    root = bisect(fn, 1.0, 2.0, -1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-15
    # the ends are adjacent floats around sqrt(2); the smaller |fn| wins
    ends = (math.nextafter(root, 1.0), root, math.nextafter(root, 2.0))
    assert any(fn(a) < 0.0 < fn(b) for a, b in zip(ends, ends[1:]))
    assert abs(fn(root)) == min(abs(fn(x)) for x in ends)


def test_bisect_non_finite_value_names_the_bracket():
    # the first midpoint of [1, 2] is 1.5, where fn turns NaN
    fn = lambda x: math.nan if x == 1.5 else x - 1.25
    with pytest.raises(ArithmeticError) as err:
        bisect(fn, 1.0, 2.0, -0.25, 0.75)
    assert type(err.value) is ArithmeticError
    assert str(err.value) == ("non-finite value inside bracket "
                              "(bracket [1.0, 2.0], values [-0.25, 0.75])")


# ------------------------------------------------------------ find_h_roots


def test_find_h_roots_reference_case():
    report = find_h_roots(THETA, K)
    assert report.count == 3
    assert report.theta_cr == 0.25
    xs = list(report.roots)
    assert xs[0] < 1.0 < xs[2]
    assert xs[1] == 1.0
    assert xs[0] == pytest.approx(X0_GOLDEN, rel=1e-13)
    assert xs[2] == pytest.approx(X2_GOLDEN, rel=1e-13)
    kinds = [x == 1.0 for x in report.roots]
    assert kinds == [False, True, False]
    assert all(abs(h_scalar(x, THETA, K)) <= 1e-10 for x in report.roots)
    assert report.flags == ()

    ((x0, x2),) = report.pairs
    assert (x0, x2) == (xs[0], xs[2])
    assert abs(f_scalar(x0, THETA, K) - x2) <= 1e-8
    assert abs(f_scalar(f_scalar(x0, THETA, K), THETA, K) - x0) <= 1e-8


def _golden_pair_roots():
    """(theta, k, x) for every pair root of the count-3 goldens: four rows
    of the k=3 scan, and the k=4 and k=10 roots reports."""
    rows = [r for r in parse_csv(DATA / "scan_k3_golden.csv") if r.count == 3]
    rows += parse_csv(DATA / "roots_k4_theta0.2.csv")
    rows += parse_csv(DATA / "roots_k10_theta0.1.csv")
    return [(r.theta, r.k, x) for r in rows for pair in r.pairs for x in pair]


def test_golden_pair_roots_are_certified_within_16_ulp():
    # exact: r = f o f - id changes sign, in rationals, within 16 floats of
    # each golden root
    roots = _golden_pair_roots()
    assert len(roots) == 12
    for theta, k, x in roots:
        assert certified_within_16_ulp(x, theta, k), (k, theta, x)


def test_certificate_refuses_a_root_moved_64_ulp():
    for theta, k, x in _golden_pair_roots():
        for n in (-64, 64):
            moved = floats_away(x, n)
            assert not certified_within_16_ulp(moved, theta, k), (k, theta, x)


def test_find_h_roots_other_orders():
    assert find_h_roots(0.2, 4).count == 3
    report = find_h_roots(0.5, K)
    assert report.count == 1
    assert report.roots[0] == 1.0
    assert report.pairs == ()


def test_find_h_roots_pairs_partner_far_above_one():
    # x2 is about 6.27e9 here, so pairing must compare relative to x2
    report = find_h_roots(0.1, 10)
    assert report.count == 3
    ((x0, x2),) = report.pairs
    assert (x0, x2) == (report.roots[0], report.roots[2])
    assert x2 > 6e9
    assert abs(f_scalar(x0, 0.1, 10) / x2 - 1.0) <= 1e-14


def test_find_h_roots_at_critical_activity():
    # exactly at the threshold the three roots collapse below the certifiable
    # separation; the report says so instead of inventing distinct roots
    report = find_h_roots(0.25, 3)
    assert report.count == 1
    assert report.roots[0] == 1.0
    assert "near-degenerate" in report.flags


@pytest.mark.parametrize("k", [50, 100, 400])
def test_find_h_roots_single_root_from_critical_activity(k):
    # for large k, h is flat enough around x = 1 at and just above theta_cr
    # that the scan reports hundreds of noise crossings; only x = 1 is real
    t_cr = theta_cr(k)
    for theta in (t_cr, math.nextafter(t_cr, 1.0), t_cr * (1 + 1e-9)):
        report = find_h_roots(theta, k)
        assert list(report.roots) == [1.0]
        assert report.pairs == ()
        assert "near-degenerate" in report.flags


def test_find_h_roots_count_monotonicity():
    for k in (3, 4, 5):
        t_cr = theta_cr(k)
        for theta in np.linspace(0.02, t_cr * (1 - 1e-3) * 0.999, 5):
            assert find_h_roots(float(theta), k).count == 3
        for theta in np.linspace(t_cr * (1 + 1e-3) * 1.001, 0.95, 5):
            assert find_h_roots(float(theta), k).count == 1


def test_find_h_roots_deterministic():
    assert find_h_roots(THETA, K) == find_h_roots(THETA, K)


def test_find_h_roots_dual_method_agreement():
    # second method: the two-cycle pair attracts iteration of f(f(x))
    x = 0.5
    for _ in range(300):
        x = f_scalar(f_scalar(x, THETA, K), THETA, K)
    report = find_h_roots(THETA, K)
    assert abs(x - report.roots[0]) <= 1e-8


def test_find_h_roots_numpy_integer_k_overflow_is_named():
    # the same named error as a plain int, not a bracket built on inf
    for k in (200, np.int64(200)):
        with pytest.raises(OverflowError, match="leave the float range"):
            find_h_roots(0.01, k)


def test_find_h_roots_numpy_scalars_give_the_plain_report():
    # numpy arithmetic inside h would be slower and leave np.float64 roots
    assert repr(find_h_roots(0.1, np.int64(3))) == repr(find_h_roots(0.1, 3))
    assert (repr(find_h_roots(np.float64(0.1), 3))
            == repr(find_h_roots(0.1, 3)))


def scanned_row(k, theta):
    """The row ``scan_theta`` records at one theta: a one-point sweep, so a
    raising activity becomes an ``error:`` row as in any sweep."""
    (row,) = scan_theta(k, theta, math.nextafter(theta, 1.0), 1)
    return row


def test_find_h_roots_matches_wide_golden():
    # 91 rows, k in {3, 4, 5, 10, 20, 50, 100, 200, 400, 1000}, each at
    # theta = 1e-3, 1e-2, theta_cr/2, theta_cr*(1 - gap) for gap in {1e-5,
    # 1e-8, 1e-10, 1e-12}, theta_cr itself and (1 + theta_cr)/2, plus k=50
    # at theta=0.5.  The defect rows of ROADMAP item 2 are frozen as they
    # stand (k=200 at 0.01 is an error:OverflowError row): this golden pins
    # the grid solver's bits, not the right answer.
    golden = (DATA / "find_h_roots_wide_golden.csv").read_text(
        encoding="ascii")
    cases = [(int(line.split(",")[0]), float(line.split(",")[1]))
             for line in golden.splitlines()[1:]]
    assert len(cases) == 91
    rows = [scanned_row(k, theta) for k, theta in cases]
    assert render_rows(rows, "csv") == golden


# the solver layers perfbench/layers.py wraps by name
COUNTED = ("h_scalar", "f_scalar", "domain_bounds", "scan_brackets", "bisect")


def test_find_h_roots_work_goes_through_the_counted_names(monkeypatch):
    # A speed-up that moved work off these module names would leave a
    # silent zero in a per-layer benchmark metric; the counts are the grid
    # solver's own at theta=0.1, k=3.
    calls, inside, stack = Counter(), Counter(), []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            if stack:
                inside[stack[-1], name] += 1
            stack.append(name)
            try:
                return real(*args)
            finally:
                stack.pop()
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(solver, name,
                            counting(name, getattr(solver, name)))
    report = find_h_roots(THETA, K)
    assert report.count == 3
    assert calls == {"h_scalar": 10247, "f_scalar": 1, "domain_bounds": 1,
                     "scan_brackets": 4, "bisect": 6}
    # every grid point of the four scans and every bisection step
    assert inside == {("scan_brackets", "h_scalar"): 4001 + 3 * 2001,
                      ("bisect", "h_scalar"): 236}


# ------------------------------------------- known defects of the grid scan


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("k, theta", [(50, 0.5), (100, 0.01), (400, 0.5),
                                      (1000, 0.9)])
def test_find_h_roots_large_k_finds_the_pair(k, theta):
    # the scan reports count 2 or 1 here, flagged domain-edge
    report = find_h_roots(theta, k)
    assert report.count == 3
    assert len(report.pairs) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_find_h_roots_keeps_the_pair_just_below_theta_cr():
    # mpmath at 60 digits puts x0 at 1 - 2.449e-5, far from merging into 1
    assert find_h_roots(theta_cr(3) * (1 - 1e-10), 3).count == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_find_h_roots_obeys_descartes_bound_just_below_theta_cr():
    # the scan returns a pile of noise crossings here
    assert find_h_roots(theta_cr(50) * (1 - 1e-10), 50).count <= 3


# Item 2's acceptance: 10 k x 40 log-spaced theta from 1e-300 to
# theta_cr (1 - 1e-6), each with the certificate's bar m: 64 ulps, or 4
# kappa with kappa = 1/(2 gap) where gap = 1 - theta/theta_cr is below 1e-3
ULP = 2.0 ** -52


def _sweep():
    for k in (3, 4, 5, 10, 20, 50, 100, 200, 400, 1000):
        critical = (k - 2) / (k + 1)
        for theta in np.geomspace(1e-300, critical * (1 - 1e-6), 40):
            gap = 1.0 - theta / critical
            kappa = 1.0 / (2.0 * gap)
            yield k, float(theta), 64.0 if gap >= 1e-3 else 4.0 * kappa


SWEEP = list(_sweep())


def certified(x: float, theta: float, k: int, m: float,
              shift: float = 0.0) -> bool:
    """Whether a two-cycle root lies within m ulps of t = ln x, moved first
    by ``shift`` ulps: r(e^(t-b)) > 0 > r(e^(t+b)) for r(x) = f(f(x)) - x
    with b = m 2^-52 |t|, in mpmath at 80 digits with theta taken exactly
    as its double.  Below theta_cr, r is positive just below each of x0
    and x2 and negative just above; the referee uses no h, g or L."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        th = mpmath.mpf(theta)

        def f(v):
            return (((th + 1) * v + 1) / (2 * v + th)) ** k

        def r(t):
            return f(f(mpmath.exp(t))) - mpmath.exp(t)

        t = mpmath.log(x) * (1 + shift * mpmath.mpf(ULP))
        b = m * mpmath.mpf(ULP) * abs(t)
        return r(t - b) > 0 > r(t + b)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_find_h_roots_certifies_the_pair_over_the_sweep():
    # one test, not 400: today 29 cases pass, 10 miss the certificate at
    # the gap of 1e-6, 4 give a wrong count or pair and 357 overflow
    failures = Counter()
    for k, theta, m in SWEEP:
        try:
            row = find_h_roots(theta, k)
        except (ValueError, ArithmeticError) as exc:
            failures[type(exc).__name__] += 1
            continue
        if row.count != 3 or row.roots[1] != 1.0 or len(row.pairs) != 1:
            failures["count or pair"] += 1
        elif not all(certified(x, theta, k, m) for x in row.pairs[0]):
            failures["certificate"] += 1
    assert not failures, dict(failures)


@pytest.mark.parametrize("k, theta", [(3, 0.1), *[
    (k, theta) for k, theta, _ in SWEEP[38:120:40]]])
def test_certificate_fails_a_root_moved_by_four_bars(k, theta):
    # roots the grid certifies today: the second-highest theta of the
    # sweep at k = 3, 4 and 5 (gap near 1, bar 64 ulps)
    ((x0, x2),) = find_h_roots(theta, k).pairs
    for x in (x0, x2):
        assert certified(x, theta, k, 64)
        assert not certified(x, theta, k, 64, shift=4 * 64)
        assert not certified(x, theta, k, 64, shift=-4 * 64)


def test_find_h_roots_validation():
    with pytest.raises(ValueError):
        find_h_roots(1.0, 3)
    with pytest.raises(ValueError):
        find_h_roots(0.0, 3)
    with pytest.raises(ValueError):
        find_h_roots(0.1, 2)


# ----------------------------------------------------- two-cycle iteration


def orbit(capsys, z0, *flags):
    """Run ``orbit`` at THETA, K from z0 (read back exactly from its repr)."""
    z = ",".join(repr(float(v)) for v in z0)
    code = cli.main(["orbit", "--k", str(K), "--theta", repr(THETA),
                     "--z", z, *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def limit_z(out: str) -> tuple[float, ...]:
    """The ``limit z`` line, printed at 17 digits, so exact."""
    match = re.search(r"^limit z = \((.*)\)$", out, re.M)
    return tuple(float(v) for v in match.group(1).split(", "))


def test_iterate_fixed_at_symmetric_point(capsys):
    code, out, _ = orbit(capsys, (1, 1, 1, 1), "--tol", "1e-12",
                         "--max-iter", "50")
    assert code == 0
    assert "converged after 0 double-steps\n" in out
    assert limit_z(out) == (1.0, 1.0, 1.0, 1.0)


def test_iterate_near_orbit_converges_to_it(capsys):
    report = find_h_roots(THETA, K)
    ((x0, x2),) = report.pairs
    z0 = (x0 * 1.01, x0 * 1.01, x2 * 0.99, x2 * 0.99)
    code, out, _ = orbit(capsys, z0, "--tol", "1e-12", "--max-iter", "500")
    assert code == 0
    z = limit_z(out)
    assert abs(z[0] - x0) <= 1e-8
    assert abs(z[2] - x2) <= 1e-8
    # the invariant set is preserved exactly along the trajectory
    assert z[0] == z[1]
    assert z[2] == z[3]


def test_iterate_generic_start_reaches_a_two_cycle(capsys):
    # a generic positive start does NOT settle on the invariant set: the
    # doubled map converges to a genuine two-cycle of the single map
    rng = np.random.default_rng(0)
    z0 = np.exp(rng.uniform(-1.5, 1.5, 4))
    code, out, _ = orbit(capsys, z0, "--tol", "1e-12", "--max-iter", "5000")
    assert code == 0
    limit = np.asarray(limit_z(out))
    once = np.asarray(period2_map(limit, THETA, K))
    twice = np.asarray(period2_map(once, THETA, K))
    assert np.max(np.abs(once - limit)) > 0.1        # not a fixed point
    assert np.max(np.abs(twice - limit)) <= 1e-8     # but period two
    assert abs(limit[0] - limit[1]) > 1.0            # and far from I


def test_golden_orbit_limit_off_the_set_is_not_a_period2_law():
    # the README's limit off I is fixed by the double step P(P(z)) but not
    # by P, so it is a 2-cycle of P and not a period-2 law: one step of P
    # moves it to the cycle's other point
    out = (DATA / "orbit_k3_theta0.1_z2_1_1_3.txt").read_text(encoding="utf-8")
    limit = np.asarray(limit_z(out))
    once = np.asarray(period2_map(limit, THETA, K))
    twice = np.asarray(period2_map(once, THETA, K))
    assert np.allclose(once, (1.0, 0.0666, 0.0666, 1.0), atol=1e-4)
    assert np.max(np.abs(once - limit)) > 1.0
    assert np.max(np.abs(twice - limit)) <= 1e-8


def test_readme_law_off_the_invariant_set_is_fixed_by_period2_map():
    # a period-2 law the package does not find: its even weights (z1, z2,
    # 1) are all distinct, so it lies off I and off I's relabelled images
    z = (5.46729044459761, 11.9520420532825, 0.457435676700626,
         0.0836677109687179)
    assert len({z[0], z[1], 1.0}) == 3
    once = period2_map(z, THETA, K)
    assert max(abs(a / b - 1.0) for a, b in zip(once, z)) <= 1e-13


def test_readme_law_off_the_invariant_set_is_rebuilt_at_50_digits():
    # Newton on P(z) = z at 50 digits, written from the map's formulas and
    # started from the README's z; the double law must then be a fixed
    # point of period2_map and of k f_map between the parities
    mpmath = pytest.importorskip("mpmath")
    readme_z = (5.46729044459761, 11.9520420532825, 0.457435676700626,
                0.0836677109687179)
    with mpmath.workdps(50):
        th = mpmath.mpf(THETA)

        def residual(z1, z2, z3, z4):
            d34, d12 = z3 + z4 + th, z1 + z2 + th
            return [((th * z3 + z4 + 1) / d34) ** K - z1,
                    ((th * z4 + z3 + 1) / d34) ** K - z2,
                    ((th * z1 + z2 + 1) / d12) ** K - z3,
                    ((th * z2 + z1 + 1) / d12) ** K - z4]

        exact = mpmath.findroot(residual, readme_z, solver="mdnewton")
        assert max(abs(v) for v in residual(*exact)) <= mpmath.mpf(10) ** -45
        law = [float(v) for v in exact]
    assert max(abs(a / b - 1.0) for a, b in zip(law, readme_z)) <= 1e-14
    assert len({law[0], law[1], 1.0}) == 3  # off I and off its images

    params = ModelParams.from_theta(K, 3, THETA)

    def misses(z):
        """max |P(z) - z| in ulps of z, and max |k f_map(ln z_odd) -
        ln z_even| with the parities the other way round too."""
        ulps = max(abs(a - b) / math.ulp(b)
                   for a, b in zip(period2_map(z, THETA, K), z))
        ln_z = np.log(z)
        step = np.concatenate([K * f_map(ln_z[2:], params),
                               K * f_map(ln_z[:2], params)])
        return ulps, np.max(np.abs(step - ln_z))

    ulps, step = misses(law)
    assert ulps <= 4 and step <= 1e-15
    for i in range(4):
        moved = list(law)
        moved[i] *= 1 + 1e-9
        ulps, step = misses(moved)
        assert ulps > 1e6 and step > 1e-10, i


def test_iterate_non_convergence_is_reported(capsys):
    rng = np.random.default_rng(0)
    z0 = np.exp(rng.uniform(-1.5, 1.5, 4))
    code, out, _ = orbit(capsys, z0, "--tol", "1e-12", "--max-iter", "3")
    assert code == 2
    match = re.search(r"^no convergence within 3 double-steps; "
                      r"last z = \((.*)\)$", out, re.M)
    assert np.isfinite([float(v) for v in match.group(1).split(", ")]).all()


def test_iterate_validation(capsys):
    # exit 1 with a message naming the flag, before any step is printed
    ones = (1, 1, 1, 1)
    for z0, flags, message in [
        ((1, -1, 1, 1), (), "--z must be four positive finite numbers"),
        (ones, ("--tol", "0"), "--tol must be positive and finite, got 0.0"),
        (ones, ("--tol", "inf"), "--tol must be positive and finite, got inf"),
        (ones, ("--max-iter", "-1"),
         "--max-iter must be an integer >= 0, got -1"),
    ]:
        code, out, err = orbit(capsys, z0, *flags)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


# ------------------------------------------------------------- integration


# k <= 5 and 13 activities log-spaced up to 0.9 theta_cr; nearer theta_cr
# the pair is worse conditioned (ROADMAP item 3)
ORBIT_CASES = [(k, float(theta)) for k in (3, 4, 5)
               for theta in np.geomspace(1e-3, 0.9 * theta_cr(k), 13)]


@pytest.mark.parametrize("k, theta", ORBIT_CASES,
                         ids=[f"k{k}-theta{t:.3g}" for k, t in ORBIT_CASES])
def test_orbit_pair_generates_parity_fields(k, theta):
    # boundary fields built from the two-cycle alternate by generation under
    # the recursion: gen 3 -> x0, gen 2 -> x2, gen 1 -> x0
    report = find_h_roots(theta, k)
    ((x0, x2),) = report.pairs
    params = ModelParams.from_theta(k, 3, theta)
    ln_x0, ln_x2 = math.log(x0), math.log(x2)

    # the two steps of f_map alone: k children carrying ln x2 give ln x0,
    # and back again
    step = k * f_map([ln_x2, ln_x2], params)
    assert np.max(np.abs(step / ln_x0 - 1.0)) <= 1e-14
    step = k * f_map([ln_x0, ln_x0], params)
    assert np.max(np.abs(step / ln_x2 - 1.0)) <= 1e-14

    tree = build_tree(k, 3)
    leaves = sphere(tree, 3)
    leaf_fields = np.tile(ln_x0, (len(leaves), 2))
    fields = propagate_fields(tree, leaf_fields, params)

    for v in sphere(tree, 2):
        assert np.max(np.abs(fields[v] - ln_x2)) <= 1e-12
    for v in sphere(tree, 1):
        assert np.max(np.abs(fields[v] - ln_x0)) <= 1e-11
    # the root has k+1 children, so it carries (k+1)/k times the even field
    assert np.max(np.abs(fields[0] - (k + 1) / k * ln_x2)) <= 1e-11


def test_orbit_pair_fields_pass_consistency():
    report = find_h_roots(THETA, K)
    ((x0, _),) = report.pairs
    tree = build_tree(3, 1)  # 5 vertices, 3^5 configurations
    params = ModelParams.from_theta(3, 3, THETA)
    fields = propagate_fields(tree, np.tile(np.log(x0), (4, 2)), params)
    assert check_consistency(tree, fields, params) <= 1e-12
