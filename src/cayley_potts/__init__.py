"""Potts boundary-field machinery on Cayley trees.

Exact finite-volume measures and compatibility oracles for the q-state
model, the parity-alternating (period-2) fixed-point structure for three
states, deterministic root enumeration, and activity sweeps.

Public names are loaded on first use (PEP 562).  Only ``potts`` imports
numpy; the tree, period-2, solver and scan modules run on ``math`` alone.
"""

import importlib

_EXPORTS = {
    "tree": ("FiniteTree", "TreeSizeError", "MAX_VERTICES", "ball_size",
             "build_tree", "level_sizes", "sphere", "sphere_size"),
    "potts": ("ENUMERATION_GUARD", "EnumerationLimitError", "ModelParams",
              "check_consistency", "f_map", "propagate_fields"),
    "period2": ("DomainError", "domain_bounds", "f_scalar", "h_scalar",
                "period2_map", "sign_relation_check", "theta_cr"),
    "solver": ("ScanRow", "find_h_roots"),
    "scan": ("CSV_HEADER", "emit_csv", "parse_csv", "scan_theta"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it here, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
