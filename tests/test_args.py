"""One integer rule at every entry point that takes k, n, q or a count."""

import numpy as np
import pytest

from cayley_potts.period2 import (domain_bounds, f_scalar, h_scalar,
                                  period2_map, theta_cr)
from cayley_potts.potts import ModelParams
from cayley_potts.scan import scan_theta
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
