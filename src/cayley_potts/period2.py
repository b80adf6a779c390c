"""Parity-alternating (period-2) structure of the three-state model.

For q = 3, a boundary-field assignment that depends only on the parity of
the distance to the root is described by four positive numbers
z = (z1, z2, z3, z4): the exponentials of the two field components on the
even generations and on the odd generations.  ``period2_map`` is the
self-consistency map on these numbers for a vertex with k descendants; it
rebuilds the even class from the odd class and vice versa.

The set I = {z1 = z2, z3 = z4} is invariant under the map, and on it the
dynamics collapse to the scalar map ``f_scalar``.  Writing x for the even
value and y for the odd value, a consistent parity assignment needs
x = f(y) and y = f(x), so two-cycles of f are the non-trivial solutions.
They are found as roots of ``h_scalar``, h(x) = ln f(x) - ln g(x), where
g(x) = (1 - theta u)/(2u - theta - 1) with u = x^(1/k) is the closed-form
inverse of f on (theta_1, theta_2).  Below the critical activity
``theta_cr`` h has exactly three roots: x = 1 and one two-cycle pair.

The paper's lemmas behind that count (g itself, the slope h', the
polynomial that controls its sign and its Descartes bound) live with the
tests, which check them against this module's f and h; the solver needs
none of them.
"""

from __future__ import annotations

import math

from ._args import check_int, check_theta_k


class DomainError(ValueError):
    """Argument outside the open interval where g (hence h) is defined."""


def theta_cr(k: int) -> float:
    """Critical activity (k-2)/(k+1); the period-2 theory needs k >= 3."""
    k = check_int("k", k, 3)
    return (k - 2) / (k + 1)


def domain_bounds(theta: float, k: int) -> tuple[float, float]:
    """Endpoints (theta_1, theta_2) = (((theta+1)/2)^k, theta^-k) of the
    interval where the inverse map g stays positive.  For theta < 1 they
    straddle 1.  Raises OverflowError when an endpoint leaves the float
    range (theta^-k for small theta and large k)."""
    theta, k = check_theta_k(theta, k)
    try:
        return ((theta + 1.0) / 2.0) ** k, theta ** (-k)
    except OverflowError:
        raise OverflowError(f"domain endpoints ((theta+1)/2)^k and theta^-k "
                            f"leave the float range at theta={theta!r}, "
                            f"k={k}") from None


def period2_map(z, theta: float, k: int) -> tuple[float, float, float, float]:
    """One application of the parity-swapped consistency map:

        z1' = ((theta z3 + z4 + 1)/(z3 + z4 + theta))^k
        z2' = ((theta z4 + z3 + 1)/(z3 + z4 + theta))^k
        z3' = ((theta z1 + z2 + 1)/(z1 + z2 + theta))^k
        z4' = ((theta z2 + z1 + 1)/(z1 + z2 + theta))^k

    z is any sequence of four positive finite numbers, the image a 4-tuple
    of floats.  The denominators are positive, so the map is total; a
    component that leaves the float range (inf, or 0) raises OverflowError.
    """
    theta, k = check_theta_k(theta, k)
    z = [float(v) for v in z]
    if len(z) != 4 or not all(0.0 < v < math.inf for v in z):
        raise ValueError("z must be four positive finite numbers")
    z1, z2, z3, z4 = z
    d34 = z3 + z4 + theta
    d12 = z1 + z2 + theta
    try:
        out = (((theta * z3 + z4 + 1.0) / d34) ** k,
               ((theta * z4 + z3 + 1.0) / d34) ** k,
               ((theta * z1 + z2 + 1.0) / d12) ** k,
               ((theta * z2 + z1 + 1.0) / d12) ** k)
        if all(0.0 < v < math.inf for v in out):
            return out
    except OverflowError:
        pass
    raise OverflowError(f"parity map left the float range at "
                        f"z={z}, theta={theta!r}, k={k}")


def _sign(x: float) -> int:
    return int(x > 0) - int(x < 0)


def sign_relation_check(z_in, z_out, theta: float) -> tuple[bool, bool, bool]:
    """Antiferromagnetic order relations between z_in and z_out = map(z_in),
    two sequences of four numbers, valid for 0 < theta < 1:

    (a) z1' - z2' has the opposite sign of z3 - z4;
    (b) z3 >= 1 forces z1' <= 1, and z3 <= 1 forces z1' >= 1;
    (c) the same with (z4, z2').

    Comparisons are non-strict on purpose: at boundary points (components
    equal, or equal to 1) both sides of an equivalence degenerate together.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"sign relations hold for 0 < theta < 1, "
                         f"got theta={theta!r}")
    zi = [float(v) for v in z_in]
    zo = [float(v) for v in z_out]
    if len(zi) != 4 or len(zo) != 4:
        raise ValueError("z_in and z_out must have 4 components")

    a = _sign(zo[0] - zo[1]) == -_sign(zi[2] - zi[3])
    b = ((zo[0] <= 1.0 if zi[2] >= 1.0 else True)
         and (zo[0] >= 1.0 if zi[2] <= 1.0 else True))
    c = ((zo[1] <= 1.0 if zi[3] >= 1.0 else True)
         and (zo[1] >= 1.0 if zi[3] <= 1.0 else True))
    return a, b, c


def f_scalar(x: float, theta: float, k: int) -> float:
    """Scalar consistency map on the invariant set:
    f(x) = (((theta+1) x + 1)/(2x + theta))^k, strictly decreasing for
    theta < 1, with fixed point f(1) = 1.  Raises OverflowError when f(x)
    leaves the float range."""
    theta, k = check_theta_k(theta, k)
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    x = float(x)
    try:
        return (((theta + 1.0) * x + 1.0) / (2.0 * x + theta)) ** k
    except OverflowError:
        raise OverflowError(f"f(x) = (((theta+1)x+1)/(2x+theta))^k leaves "
                            f"the float range at x={x!r}, theta={theta!r}, "
                            f"k={k}") from None


def h_scalar(x: float, theta: float, k: int) -> float:
    """h(x) = ln f(x) - ln g(x) on (theta_1, theta_2).

    h(1) = 0 up to rounding; roots of h are the scalar two-cycles of f
    together with the fixed point x = 1.  h falls to -infinity at theta_1
    and climbs to +infinity at theta_2.  g's factors 1 - theta u and
    2u - theta - 1 (u = x^(1/k)) are both positive exactly on that open
    interval, so their signs are the domain check and no endpoint
    (theta^-k can overflow) is ever computed."""
    # one comparison chain admits every valid call; the checks that name
    # the fault run only when it fails
    if not (type(k) is int and k >= 1 and 0.0 < theta < 1.0
            and 0.0 < x < math.inf):
        check_theta_k(theta, k)
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        if theta >= 1.0:
            raise DomainError(f"inverse map needs theta < 1, "
                              f"got theta={theta!r}")
        if x <= 0.0:
            raise DomainError(f"x must be positive, got {x!r}")
    # exp(ln x / k) stays accurate across the many decades the domain spans
    u = math.exp(math.log(x) / k)
    num = 1.0 - theta * u
    den = 2.0 * u - theta - 1.0
    if num <= 0.0 or den <= 0.0:
        raise DomainError(f"x={x!r} outside the open interval "
                          f"(((theta+1)/2)^k, theta^-k) at theta={theta!r}, "
                          f"k={k}")
    ratio_f = ((theta + 1.0) * x + 1.0) / (2.0 * x + theta)
    return k * math.log(ratio_f) - (math.log(num) - math.log(den))
