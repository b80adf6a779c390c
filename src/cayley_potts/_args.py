"""The argument rules every module shares: integers k, q, n and counts, and
the activity theta = exp(J*beta).  Plain ``math``, so no numpy import."""

import math
from numbers import Integral


def is_integer(value) -> bool:
    """An int or a numpy integer (both are ``Integral``), never a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as a plain int, if it is an integer >= ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")
    return int(value)


def check_theta_k(theta: float, k: int) -> tuple[float, int]:
    """The plain ``(float(theta), int(k))`` for a positive finite theta and
    an integer k >= 1.  Numpy scalars would carry numpy arithmetic into the
    caller: an overflowing power returns inf with a warning, not an error."""
    k = check_int("k", k, 1)
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    return float(theta), k


def activity(J: float, beta: float) -> float:
    """theta = exp(J*beta) for finite J and positive finite beta."""
    J, beta = float(J), float(beta)
    if not math.isfinite(J):
        raise ValueError(f"J must be finite, got {J!r}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    try:
        theta = math.exp(J * beta)
    except OverflowError:
        theta = math.inf
    if not 0.0 < theta < math.inf:
        raise ValueError(f"activity exp(J*beta) is out of range for "
                         f"J={J!r}, beta={beta!r}")
    return theta
