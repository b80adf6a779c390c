"""References that the benchmark checks program output against.

Nothing here imports the package under test.  ``period2_pair`` solves for
the period-2 pair with mpmath; ``propagate_reference`` re-derives the field
recursion level by level with numpy from the closed form of the one-step
map; ``ball_size`` and ``level_sizes`` are the tree-size formulas.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp, mpf

DPS = 60
# bracket width in the log-offset variable at which the pair is settled
T_TOL = mpf(10) ** -40


def theta_cr(k: int) -> float:
    return (k - 2) / (k + 1)


def _illinois(fn, a, b, tol):
    """Root of fn in [a, b] by the Illinois false-position rule.

    Asserts that fn changes sign over the bracket, so a reference that
    cannot bracket its root fails loudly instead of returning a guess.
    """
    fa, fb = fn(a), fn(b)
    if not (fa < 0 < fb or fb < 0 < fa):
        raise AssertionError(f"reference bracket [{a}, {b}] does not change "
                             f"sign: values {fa}, {fb}")
    side = 0
    for _ in range(400):
        c = b - fb * (b - a) / (fb - fa)
        fc = fn(c)
        if fc == 0 or abs(b - a) < tol:
            return c
        if (fc < 0) == (fb < 0):
            b, fb = c, fc
            if side == -1:
                fa /= 2
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb /= 2
            side = 1
    raise AssertionError("reference root did not converge")


def _h_offsets(lib, k, th, near):
    """h as two functions of t, the log-offset of s from the lower or the
    upper end of the domain, evaluated with the math library ``lib``, each
    with a bracket that ends a relative ``near`` short of s = 0."""
    s_lo = lib.log((th + 1) / 2)
    s_hi = -lib.log(th)
    span = s_hi - s_lo

    def h(d_lo, d_hi):
        # s = s_lo + d_lo = s_hi - d_hi, both offsets carried exactly
        x = lib.exp(k * (s_lo + d_lo) if d_lo < d_hi else k * (s_hi - d_hi))
        ln_f = k * lib.log(((th + 1) * x + 1) / (2 * x + th))
        ln_g = (lib.log(-lib.expm1(-d_hi))
                - lib.log((th + 1) * lib.expm1(d_lo)))
        return ln_f - ln_g

    def lower(t):
        d = lib.exp(t)
        return h(d, span - d)

    def upper(t):
        d = lib.exp(t)
        return h(span - d, d)

    # the lower root sits about theta^k from its endpoint, so t_min lies
    # well below either root; the other end sits just beside s = 0
    t_min = k * lib.log(th * (th + 1) / 2) - 100
    return ((lower, t_min, lib.log(-s_lo * (1 - near))),
            (upper, t_min, lib.log(s_hi * (1 - near))))


def _guess(fn, a, b):
    try:
        return _illinois(fn, a, b, 1e-15 * max(1.0, abs(a)))
    except AssertionError:  # too close to theta_cr for doubles to bracket
        return None


def _polish(fn, t_guess, a, b):
    """Shrink [a, b] around a double-precision guess while it still changes
    sign, then settle the root at full precision."""
    width = 1e-9 * max(1.0, abs(t_guess or 0.0))
    for _ in range(4 if t_guess is not None else 0):
        lo, hi = mpf(t_guess) - width, mpf(t_guess) + width
        if a < lo and hi < b and (fn(lo) < 0) != (fn(hi) < 0):
            return _illinois(fn, lo, hi, T_TOL)
        width *= 1e3
    return _illinois(fn, a, b, T_TOL)


def period2_pair(k: int, theta: float) -> tuple:
    """The period-2 pair (x0, x2) of h for 0 < theta < theta_cr(k), as mpf.

    Works in s = ln(x)/k, where the domain of h is (ln((theta+1)/2),
    -ln(theta)).  Each root is solved in t = ln(offset from its own domain
    endpoint), and the offset enters h only through expm1, so a root closer
    to its endpoint than any double can resolve is still located.  The
    bracket between an endpoint and a point just beside s = 0 is sound
    because h -> -inf at the lower end, +inf at the upper end, h(1) = 0 and
    h'(1) < 0 below theta_cr.  A double-precision pass finds each root
    first; the mpmath pass then refines it inside a narrow bracket.
    """
    if not 0 < theta < theta_cr(k):
        raise ValueError(f"no period-2 pair at k={k}, theta={theta!r}")
    guesses = [_guess(*bracket) for bracket in _h_offsets(math, k, theta, 1e-6)]
    with mp.workdps(DPS):
        th = mpf(theta)
        (lower, a, b), (upper, _, c) = _h_offsets(mpmath, k, th, mpf(10) ** -12)
        t_lo = _polish(lower, guesses[0], a, b)
        t_hi = _polish(upper, guesses[1], a, c)
        x0 = ((th + 1) / 2) ** k * mpmath.exp(k * mpmath.exp(t_lo))
        x2 = th ** -k * mpmath.exp(-k * mpmath.exp(t_hi))
        return +x0, +x2


def rel_err(x: float, ref) -> float:
    with mp.workdps(DPS):
        return float(abs((mpf(x) - ref) / ref))


def fmap_rows(h: np.ndarray, theta: float) -> np.ndarray:
    """Closed-form one-step field map applied to each row of h:
    ln((theta e^{h_i} + sum_{j != i} e^{h_j} + 1) / (theta + sum_j e^{h_j}))."""
    e = np.exp(h)
    total = e.sum(axis=1, keepdims=True)
    num = theta * e + (total - e) + 1.0
    return np.log(num) - np.log(theta + total)


def ball_size(k: int, n: int) -> int:
    return 1 + (k + 1) * (k ** n - 1) // (k - 1)


def level_sizes(k: int, n: int) -> list[int]:
    return [1] + [(k + 1) * k ** (m - 1) for m in range(1, n + 1)]


def propagate_reference(k: int, n: int, leaf: np.ndarray,
                        theta: float) -> np.ndarray:
    """Fields on the breadth-first radius-n ball, one generation at a time.

    Generation m + 1 lists the children of generation m parent by parent,
    k per parent (k + 1 for the root), so a reshape groups siblings.
    """
    sizes = level_sizes(k, n)
    out = [np.asarray(leaf, dtype=float)]
    for m in range(n - 1, -1, -1):
        width = k + 1 if m == 0 else k
        mapped = fmap_rows(out[0], theta)
        out.insert(0, mapped.reshape(sizes[m], width, -1).sum(axis=1))
    return np.concatenate(out)
