"""Deterministic bracketed root finding: the roots of h and their orbit pairs.

``find_h_roots`` locates every root of h on the clamped interval
(theta_1, theta_2).  The interval spans many decades (its upper end grows
like theta^-k), so the primary scan runs on a uniform grid in ln x;
``scan_brackets`` itself stays a plain uniform-grid scanner and the log
transform is applied to its arguments.  Each sign change is a bracket of
four plain floats (lo, hi, h(lo), h(hi)) that ``bisect`` splits down to
adjacent floats.  The known root at x = 1 is injected analytically and
deduplicated against whatever the scan found, and extra fine scans around
x = 1 catch the two-cycle pair as it collapses into the fixed point near
the critical activity.

``scan_brackets`` and ``bisect`` are not package exports; ``find_h_roots``
calls them through this module's globals, where ``perfbench/layers.py``
wraps them by name to count scans, brackets and h evaluations.  Grid
points go through the module-global ``h_scalar`` on purpose: the scanned
function calls it directly, one frame per point, and it is still counted
there.  A ``ScanRow`` holds only k, theta, its roots and flags and works
out the rest itself: theta_cr from k, and the orbit pairs from the roots
by one rule, ``_pair_roots``, so a row read back from a CSV, which has no
pair column, pairs its roots as the solver did.

Everything here is pure and deterministic: identical inputs give
bit-identical rows.  Nothing here iterates the parity map: the ``orbit``
subcommand does that in the loop that prints each step.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._args import Record, check_theta_k
from .period2 import DomainError, domain_bounds, f_scalar, h_scalar, theta_cr

# relative margin pulled inside (theta_1, theta_2) before scanning
CLAMP_MARGIN = 1e-9
# points of the primary scan over the whole clamped domain in ln x
SCAN_GRID = 4001
# computed roots this close (relative) to 1.0 are the injected root
DEDUP_REL = 1e-9
# adjacent roots closer than this (relative) merge into one, flagged
NEAR_DEGENERATE_REL = 1e-7
# h values below this are rounding noise (measured evaluation error near
# x = 1 stays under 1e-15); adjacent sign changes with h pinned below the
# floor between them are one uncertifiable root, not several
NOISE_FLOOR = 1e-14
# |f(x0) - x2| tolerance for orbit pairing, relative to x2, which reaches
# theta^-k and so spans many decades
PAIR_TOL = 1e-8


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 1 evenly spaced floats from lo to hi, bit for bit what
    numpy.linspace(lo, hi, n) gives: i*step + lo, then hi exactly."""
    lo, hi = float(lo), float(hi)
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    if step == 0.0:  # subnormal spacing: numpy scales by i/(n-1) instead
        return [i / (n - 1) * (hi - lo) + lo for i in range(n - 1)] + [hi]
    return [i * step + lo for i in range(n - 1)] + [hi]


def scan_brackets(fn: Callable[[float], float], lo: float, hi: float,
                  grid: int) -> list[tuple[float, float, float, float]]:
    """Sign changes of fn on a uniform grid of ``grid`` points over
    [lo, hi], each as (lo, hi, fn(lo), fn(hi)).

    Grid points where fn raises DomainError or returns a non-finite value
    are treated as non-bracketing.  A simple root landing exactly on an
    interior grid node is bracketed by its neighbours; a zero at the first
    or last node (or a node-zero without a sign change around it) cannot be
    bracketed and is skipped.  Deterministic for fixed inputs.
    """
    inf = math.inf
    found = []
    # the two points before the current one, each with the sign of a
    # finite non-zero value (0 for a zero, a gap or a non-finite value)
    x_2 = v_2 = x_1 = v_1 = math.nan
    s_2 = s_1 = 0
    for x in _linspace(lo, hi, grid):
        try:
            v = float(fn(x))
        except DomainError:
            v = math.nan
        s = 1 if 0.0 < v < inf else -1 if -inf < v < 0.0 else 0
        if s * s_1 < 0:
            found.append((x_1, x, v_1, v))
        elif v_1 == 0.0 and s * s_2 < 0:
            found.append((x_2, x, v_2, v))
        x_2, v_2, s_2 = x_1, v_1, s_1
        x_1, v_1, s_1 = x, v, s
    return found


def bisect(fn: Callable[[float], float], lo: float, hi: float,
           f_lo: float, f_hi: float) -> float:
    """Bisect the sign change fn(lo) = f_lo, fn(hi) = f_hi until lo and hi
    are adjacent floats.

    Returns the exact zero if a midpoint hits one, and otherwise the end
    with the smaller |fn| (lo on a tie).  A non-finite fn at a midpoint
    raises ArithmeticError naming the bracket it was found in.
    """
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = float(fn(mid))
        if not math.isfinite(f_mid):
            raise ArithmeticError(
                f"non-finite value inside bracket (bracket [{lo}, {hi}], "
                f"values [{f_lo}, {f_hi}])")
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
    return lo if abs(f_lo) <= abs(f_hi) else hi


class ScanRow(Record):
    """The roots of h at one activity: the result of ``find_h_roots`` and
    one row of a sweep.  theta_cr and the orbit pairs are worked out from
    k and the roots, never passed in.  A row holds only what a solver
    makes: an activity 0 < theta < 1 and finite, positive, strictly
    ascending roots.  It keeps a plain int k and float theta, and tuples,
    so it hashes like any immutable value."""

    __slots__ = _fields = ("k", "theta", "theta_cr", "roots", "pairs",
                           "flags")

    def __init__(self, k: int, theta: float, roots, flags):
        t_cr = theta_cr(k)  # validates k
        if not 0.0 < theta < 1.0:  # nan fails too
            raise ValueError(f"activity must lie in (0, 1), got {theta!r}")
        if not (all(0.0 < x < math.inf for x in roots)
                and all(a < b for a, b in zip(roots, roots[1:]))):
            raise ValueError(f"roots must be finite, positive and ascending, "
                             f"got {roots!r}")
        k, theta, roots = int(k), float(theta), tuple(roots)
        self._set(k, theta, t_cr, roots, _pair_roots(roots, theta, k),
                  tuple(flags))

    @property
    def count(self) -> int:
        return len(self.roots)


def find_h_roots(theta: float, k: int) -> ScanRow:
    """All roots of h on the clamped domain, ascending and orbit-paired.

    Below theta_cr(k) the count is 3: the fixed point x = 1 plus a two-cycle
    pair (x0, x2) with x0 < 1 < x2 and f(x0) = x2.  Roots closer together
    than 1e-7 relative are merged and flagged "near-degenerate"; a scan whose
    first or last grid value has the wrong sign flags "domain-edge".  From
    theta_cr on only x = 1 is kept, flagged "near-degenerate" if the scan
    found anything beside it.
    """
    if theta >= 1.0:
        raise ValueError(
            f"activity must be below 1 (antiferromagnetic regime) for the "
            f"period-2 root analysis, got theta={theta:.12g}")
    t_cr = theta_cr(k)  # validates k >= 3
    # plain theta and k: numpy scalars would carry numpy arithmetic into
    # every h evaluation
    theta, k = check_theta_k(theta, k)

    t1, t2 = domain_bounds(theta, k)
    lo = t1 * (1.0 + CLAMP_MARGIN)
    hi = t2 * (1.0 - CLAMP_MARGIN)

    def fn(x: float) -> float:
        return h_scalar(x, theta, k)

    def fn_log(t: float) -> float:
        # h_scalar directly, not through fn: one frame per grid point
        return h_scalar(math.exp(t), theta, k)

    flags: list[str] = []
    # h must enter negative and leave positive; anything else means a root
    # is hiding inside the clamp margin
    try:
        if fn(lo) >= 0.0 or fn(hi) <= 0.0:
            flags.append("domain-edge")
    except DomainError:
        flags.append("domain-edge")

    t_lo, t_hi = math.log(lo), math.log(hi)
    windows = [(t_lo, t_hi, SCAN_GRID)]
    # finer passes around x = 1, where the two-cycle pair collapses into the
    # fixed point as theta approaches theta_cr
    for half_width in (0.3, 3e-3, 3e-5):
        a = max(t_lo, -half_width)
        b = min(t_hi, half_width)
        if a < b:
            windows.append((a, b, 2001))

    # the root at x = 1 is analytic (numerator and denominator of both
    # ratios coincide there); inject it and drop scanned duplicates
    kept = [(1.0, abs(fn(1.0)))]
    for a, b, n in windows:
        for t_a, t_b, f_a, f_b in scan_brackets(fn_log, a, b, n):
            root = bisect(fn, math.exp(t_a), math.exp(t_b), f_a, f_b)
            if abs(root - 1.0) > DEDUP_REL:
                kept.append((root, abs(fn(root))))
    kept.sort(key=lambda e: e[0])

    # collapse duplicates from overlapping windows, then near-degenerate
    # neighbours (flagged); prefer the injected 1.0, then the smaller residual
    near_degenerate = False
    merged: list[tuple[float, float]] = []
    for entry in kept:
        if merged:
            prev = merged[-1]
            gap = entry[0] - prev[0]
            scale = max(abs(entry[0]), abs(prev[0]))
            if gap <= NEAR_DEGENERATE_REL * scale:
                near_degenerate |= gap > DEDUP_REL * scale
                if prev[0] != 1.0 and (entry[0] == 1.0
                                       or entry[1] < prev[1]):
                    merged[-1] = entry
                continue
        merged.append(entry)

    # at the critical activity h is cubically flat at x = 1 and dips below
    # rounding noise over a finite span, turning one root into a pile of
    # noise crossings; absorb neighbours that h never separates
    settled: list[tuple[float, float]] = []
    for entry in merged:
        if settled:
            prev = settled[-1]
            probes = _linspace(math.log(prev[0]), math.log(entry[0]), 15)
            if all(abs(fn_log(t)) <= NOISE_FLOOR
                   for t in probes[1:-1]):
                near_degenerate = True
                if prev[0] != 1.0 and (entry[0] == 1.0
                                       or entry[1] < prev[1]):
                    settled[-1] = entry
                continue
        settled.append(entry)
    merged = settled

    # from theta_cr on, x = 1 is the only root; anything the merges left
    # beside it is a noise crossing of the flat h around the fixed point
    if theta >= t_cr and len(merged) > 1:
        merged = [entry for entry in merged if entry[0] == 1.0]
        near_degenerate = True
    if near_degenerate:
        flags.append("near-degenerate")

    return ScanRow(k=k, theta=theta, roots=[root for root, _ in merged],
                   flags=flags)


def _pair_roots(roots: tuple[float, ...], theta: float,
                k: int) -> tuple[tuple[float, float], ...]:
    """Orbit pairs (x0, x2) among ascending roots: each root below 1 takes
    the unused root above 1 nearest to its image f(x0), if that lies within
    PAIR_TOL.  ``ScanRow`` pairs every row by this rule, the solver's and
    the ones ``scan.parse_csv`` reads back alike, so a CSV round trip keeps
    the pairs."""
    below = [x for x in roots if x < 1.0]
    unused = [x for x in roots if x > 1.0]
    pairs: list[tuple[float, float]] = []
    for x0 in below:
        fx = f_scalar(x0, theta, k)
        if not unused:
            continue
        partner = min(unused, key=lambda x2: abs(fx - x2))
        if abs(fx - partner) <= PAIR_TOL * partner:
            pairs.append((x0, partner))
            unused.remove(partner)
    return tuple(pairs)

