"""One integer rule at every entry point that takes k, n, q or a count,
and the immutable base every record shares."""

import copy
import pickle

import numpy as np
import pytest

from cayley_potts._args import is_integer
from cayley_potts.period2 import (domain_bounds, f_scalar, h_scalar,
                                  period2_map, theta_cr)
from cayley_potts.potts import ModelParams
from cayley_potts.scan import scan_theta
from cayley_potts.solver import ScanRow, find_h_roots
from cayley_potts.tree import FiniteTree, build_tree

# each takes one integer argument, and 3 is a valid value for all of them
ENTRY_POINTS = {
    "build_tree-k": lambda v: build_tree(v, 2),
    "build_tree-n": lambda v: build_tree(2, v),
    "FiniteTree-k": lambda v: FiniteTree(v, 2),
    "FiniteTree-depth": lambda v: FiniteTree(2, v),
    "theta_cr": theta_cr,
    "domain_bounds": lambda v: domain_bounds(0.1, v),
    "f_scalar": lambda v: f_scalar(2.0, 0.1, v),
    "h_scalar": lambda v: h_scalar(2.0, 0.1, v),
    "period2_map": lambda v: period2_map((1.2, 1.2, 0.8, 0.8), 0.1, v),
    "ModelParams-k": lambda v: ModelParams(v, 3, 0.5),
    "ModelParams-q": lambda v: ModelParams(2, v, 0.5),
    "scan_theta-steps": lambda v: scan_theta(3, 0.1, 0.2, v),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_integer_arguments_refuse_bool_and_float(call):
    # a bool is an int to Python, but not a tree order or a count
    for value in (True, False, 3.0):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)
    assert call(np.int64(3)) == call(3)


def test_is_integer_accepts_ints_and_numpy_integers_but_no_bool():
    class Count(int):
        pass

    for value in (3, -1, Count(3), np.int8(3), np.int64(3), np.uint64(3)):
        assert is_integer(value), repr(value)
    for value in (True, np.bool_(True), 3.0, np.float64(3.0), "3", None):
        assert not is_integer(value), repr(value)


# --------------------------------------------------------------- records

# each record's constructor, its arguments, and the repr a frozen
# dataclass gave it
RECORDS = {
    "FiniteTree": (FiniteTree, (2, 3), "FiniteTree(k=2, depth=3)"),
    "ModelParams": (ModelParams, (3, 3, 0.5),
                    "ModelParams(k=3, q=3, theta=0.5)"),
    "ScanRow": (ScanRow, (3, 0.1, find_h_roots(0.1, 3).roots, ()),
                "ScanRow(k=3, theta=0.1, theta_cr=0.25, "
                "roots=(0.19649931210530613, 1.0, 15.01147958065304), "
                "pairs=((0.19649931210530613, 15.01147958065304),), "
                "flags=())"),
}


@pytest.fixture(params=RECORDS.values(), ids=RECORDS)
def record_case(request):
    return request.param


def test_record_repr_is_pinned(record_case):
    cls, args, text = record_case
    assert repr(cls(*args)) == text


def test_records_are_equal_only_within_their_class(record_case):
    cls, args, _ = record_case
    record = cls(*args)
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(*args)
    assert record == cls(*args)
    assert record != lookalike and lookalike != record
    assert record != tuple(getattr(record, f) for f in cls._fields)
    assert all(record != other(*a)
               for other, a, _ in RECORDS.values() if other is not cls)


def test_equal_records_hash_alike(record_case):
    cls, args, _ = record_case
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


def test_records_refuse_set_and_delete(record_case):
    cls, args, _ = record_case
    record = cls(*args)
    for name in cls._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 7


def test_records_copy_deepcopy_and_pickle(record_case):
    cls, args, text = record_case
    record = cls(*args)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == record and repr(other) == text

