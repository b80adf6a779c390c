"""The argument rules every module shares: integers k, q, n and counts, and
the activity theta = exp(J*beta); and ``Record``, the immutable base of the
package's three records (``FiniteTree``, ``ModelParams`` and ``ScanRow``).

A record is a plain class, not a dataclass, so that importing the CLI
does not load ``dataclasses`` and the modules it pulls in.  It names its
fields once, as ``__slots__ = _fields = (...)`` in the order its repr
lists them, and so has no ``__dict__``.  Its ``__init__`` checks the
arguments, turns them into plain values and stores each field once
through ``_set``.  It keeps what a frozen dataclass gave: the repr
``Name(field=value, ...)``, equality only with a record of its own class,
a hash of its field values, AttributeError on assignment and deletion,
and copy, deepcopy and pickle by field values.

Plain ``math``, so no numpy import."""

import math


def is_integer(value) -> bool:
    """An int or a numpy integer (both are ``Integral``), never a bool.
    ``numbers`` loads only off the plain-int path: a numpy integer exists
    only once numpy, which imports ``numbers``, has been imported."""
    if type(value) is int:
        return True
    from numbers import Integral
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


class Record:
    """Immutable record of the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Store the field values, in ``_fields`` order; only
        ``__init__`` and unpickling call this."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # copy, deepcopy and pickle rebuild a record from its field values
    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
