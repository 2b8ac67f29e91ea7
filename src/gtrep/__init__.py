"""Exact irreducible representation matrices over pattern bases.

Builds every generator of gl(n) and of the odd orthogonal algebra
o(2n+1) as a sparse matrix of exact rationals over an explicitly
enumerated pattern basis, with independent verification oracles.
"""

from .exact import (F0, F1, PoleError, format_rational, parse_rational,
                    rf_limit_at)
from .linalg import Operator, nullspace, rank_of, rref
from .patterns import (DimensionCapError, PatternA, PatternB, Rep,
                       check_weight_gl, check_weight_so, enumerate_patterns_a,
                       enumerate_patterns_b)
from .glrep import (InconsistencyError, build_gl, contravariant_gram,
                    gl_structure_table)
from .sorep import (ConstructionError, build_phi_minus, build_so,
                    defining_operators, structure_table)
from .checks import (NonScalarError, VerificationReport,
                     branching_multiplicity, casimir_highest_value,
                     casimir_scalar, check_branching,
                     check_structure_constants, freudenthal_multiplicities,
                     run_verification, weyl_dim)

__version__ = "0.1.0"

__all__ = [
    "F0", "F1", "PoleError", "format_rational", "parse_rational",
    "rf_limit_at",
    "Operator", "nullspace", "rank_of", "rref",
    "DimensionCapError", "PatternA", "PatternB", "Rep", "check_weight_gl",
    "check_weight_so", "enumerate_patterns_a", "enumerate_patterns_b",
    "InconsistencyError", "build_gl", "contravariant_gram",
    "gl_structure_table",
    "ConstructionError", "build_phi_minus", "build_so",
    "defining_operators", "structure_table",
    "NonScalarError", "VerificationReport", "branching_multiplicity",
    "casimir_highest_value", "casimir_scalar", "check_branching",
    "check_structure_constants", "freudenthal_multiplicities",
    "run_verification", "weyl_dim",
]
