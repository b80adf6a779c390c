"""Deterministic bracketed root finding: the roots of h and their orbit pairs.

``find_h_roots`` locates every root of h on the clamped interval
(theta_1, theta_2).  The interval spans many decades (its upper end grows
like theta^-k), so the primary scan runs on a uniform grid in ln x;
``scan_brackets`` itself stays a plain uniform-grid scanner and the log
transform is applied to its arguments.  The known root at x = 1 is injected
analytically and deduplicated against whatever the scan found, and extra
fine scans around x = 1 catch the two-cycle pair as it collapses into the
fixed point near the critical activity.

Everything here is pure and deterministic: identical inputs give
bit-identical rows.  Nothing here iterates the parity map: the ``orbit``
subcommand does that in the loop that prints each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._args import check_int
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


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval with cached endpoint values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi):
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise ValueError("endpoint values must be finite")
        if self.f_lo == 0.0 or self.f_hi == 0.0 or \
                (self.f_lo > 0) == (self.f_hi > 0):
            raise ValueError("endpoint values must have opposite signs")


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


class BisectionError(ArithmeticError):
    """Refinement failed; carries the final bracket for diagnostics."""

    def __init__(self, message: str, bracket: Bracket):
        super().__init__(f"{message} (bracket [{bracket.lo}, {bracket.hi}], "
                         f"values [{bracket.f_lo}, {bracket.f_hi}])")
        self.bracket = bracket


def scan_brackets(fn: Callable[[float], float], lo: float, hi: float,
                  grid: int) -> list[Bracket]:
    """Brackets from sign changes of fn on a uniform grid over [lo, hi].

    Grid points where fn raises DomainError or returns a non-finite value
    are treated as non-bracketing.  A simple root landing exactly on an
    interior grid node is bracketed by its neighbours; a zero at the first
    or last node (or a node-zero without a sign change around it) cannot be
    bracketed and is skipped.  Deterministic for fixed inputs.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    check_int("grid", grid, 2)

    xs = _linspace(lo, hi, grid)
    vals = []
    for x in xs:
        try:
            v = float(fn(x))
        except DomainError:
            v = math.nan
        vals.append(v)

    def signed(a: float, b: float) -> bool:
        return (math.isfinite(a) and math.isfinite(b)
                and a != 0.0 and b != 0.0 and (a > 0) != (b > 0))

    found = []
    for i in range(grid - 1):
        if vals[i] == 0.0 and i > 0 and signed(vals[i - 1], vals[i + 1]):
            found.append(Bracket(xs[i - 1], xs[i + 1],
                                 vals[i - 1], vals[i + 1]))
        if signed(vals[i], vals[i + 1]):
            found.append(Bracket(xs[i], xs[i + 1], vals[i], vals[i + 1]))
    return found


def bisect(fn: Callable[[float], float], bracket: Bracket,
           tol_x: float = 1e-12, tol_f: float = 0.0,
           max_iter: int = 200) -> float:
    """Bisection inside a bracket.

    Stops when |fn| at the returned point is <= tol_f, or the bracket width
    drops below tol_x * max(1, |x|), or the bracket endpoints become adjacent
    floats, whichever comes first.  With tol_x = tol_f = 0 it runs to float
    exhaustion.  The returned point is always an endpoint of (or the exact
    zero inside) the final bracket.
    """
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    for _ in range(max_iter):
        best, f_best = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
        if abs(f_best) <= tol_f:
            return best
        if hi - lo <= tol_x * max(1.0, abs(best)):
            return best
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats, nothing left to split
            return best
        f_mid = float(fn(mid))
        if not math.isfinite(f_mid):
            raise BisectionError("non-finite value inside bracket",
                                 Bracket(lo, hi, f_lo, f_hi))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise BisectionError(f"no convergence within {max_iter} iterations",
                         Bracket(lo, hi, f_lo, f_hi))


@dataclass(frozen=True)
class ScanRow:
    """The roots of h at one activity: the result of ``find_h_roots`` and
    one row of a sweep."""

    k: int
    theta: float
    theta_cr: float
    roots: tuple[float, ...]                 # ascending
    pairs: tuple[tuple[float, float], ...]
    flags: tuple[str, ...]

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
    # numpy scalars would carry numpy arithmetic into every h evaluation
    theta, k, t_cr = float(theta), int(k), float(t_cr)

    t1, t2 = domain_bounds(theta, k)  # validates theta > 0
    lo = t1 * (1.0 + CLAMP_MARGIN)
    hi = t2 * (1.0 - CLAMP_MARGIN)

    def fn(x: float) -> float:
        return h_scalar(x, theta, k)

    def fn_log(t: float) -> float:
        return fn(math.exp(t))

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
        for tb in scan_brackets(fn_log, a, b, n):
            xb = Bracket(math.exp(tb.lo), math.exp(tb.hi), tb.f_lo, tb.f_hi)
            root = bisect(fn, xb, tol_x=0.0, tol_f=0.0, max_iter=200)
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
            if all(abs(fn(math.exp(t))) <= NOISE_FLOOR
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

    roots = tuple(root for root, _ in merged)

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

    return ScanRow(k=k, theta=theta, theta_cr=t_cr, roots=roots,
                   pairs=tuple(pairs), flags=tuple(flags))

