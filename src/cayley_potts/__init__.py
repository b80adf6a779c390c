"""Potts boundary-field machinery on Cayley trees.

Exact finite-volume measures and compatibility oracles for the q-state
model, the parity-alternating (period-2) fixed-point structure for three
states, deterministic root enumeration, and activity sweeps.
"""

from .tree import (FiniteTree, TreeSizeError, MAX_VERTICES, ball_size,
                   build_tree, children, edges, level_sizes, sphere,
                   sphere_size)
from .potts import (Configuration, ENUMERATION_GUARD, EnumerationLimitError,
                    MeasureTable, ModelParams, check_consistency,
                    config_at, config_index, f_map, finite_volume_measure,
                    hamiltonian, propagate_fields)
from .period2 import (DomainError, clamp_to_domain,
                      descartes_positive_root_bound, domain_bounds, f_scalar,
                      g_scalar, h_prime, h_scalar, p_coefficients,
                      period2_map, sign_relation_check, theta_cr)
from .solver import (BisectionError, Bracket, FixedPointResult, RootEntry,
                     RootReport, bisect, find_h_roots, fixed_point_iterate,
                     scan_brackets)
from .scan import (CSV_HEADER, ScanRow, emit_csv, emit_json, parse_csv,
                   row_from_report, scan_theta)

__version__ = "0.1.0"

__all__ = [
    "FiniteTree", "TreeSizeError", "MAX_VERTICES", "ball_size", "build_tree",
    "children", "edges", "level_sizes", "sphere", "sphere_size",
    "Configuration", "ENUMERATION_GUARD", "EnumerationLimitError",
    "MeasureTable", "ModelParams", "check_consistency", "config_at",
    "config_index", "f_map", "finite_volume_measure", "hamiltonian",
    "propagate_fields",
    "DomainError", "clamp_to_domain",
    "descartes_positive_root_bound", "domain_bounds", "f_scalar", "g_scalar",
    "h_prime", "h_scalar", "p_coefficients", "period2_map",
    "sign_relation_check", "theta_cr",
    "BisectionError", "Bracket", "FixedPointResult", "RootEntry",
    "RootReport", "bisect", "find_h_roots", "fixed_point_iterate",
    "scan_brackets",
    "CSV_HEADER", "ScanRow", "emit_csv", "emit_json", "parse_csv",
    "row_from_report", "scan_theta",
    "__version__",
]
