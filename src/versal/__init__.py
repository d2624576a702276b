"""Miniversal deformations of Jordan forms and their applications.

Provides Jordan-type bookkeeping and structure recovery, generation and
instantiation of miniversal deformation patterns, orbit/bundle codimension
formulas with a commutator-nullity oracle, closure-relation experiments, and
recovery of coefficient-level perturbations of monic matrix polynomials from
dense perturbations of their companion linearizations.
"""

from .closure import (ClosureMode, ClosureReason, ClosureVerdict,
                      closure_necessary, perturbation_experiment,
                      transport_perturbation)
from .codimension import bundle_codim, orbit_codim, orbit_codim_oracle
from .deformation import (DeformationPattern, ReductionResult, Shape,
                          alternate_pattern, arnold_pattern, instantiate,
                          reduce_single_block)
from .errors import (DimensionMismatch, EigenvalueCollision, InconsistentRanks,
                     MaxIterationsExceeded, MissingParameter, NoConvergence,
                     PivotBreakdown, SingularMatrix, SingularTransform,
                     SizeMismatch, StagnationDetected, VersalError)
from .jordan import (SegreStructure, build_jcf, conjugate_partition,
                     jordan_block, recover_structure)
from .linalg import (as_matrix, eigenvalues, frobenius_norm,
                     min_norm_least_squares, numerical_rank, solve_linear)
from .linearization import (MonicPolynomial, RecoveryResult, companion,
                            recover, split)

__version__ = "0.1.0"

__all__ = [
    "ClosureMode", "ClosureReason", "ClosureVerdict", "closure_necessary",
    "perturbation_experiment", "transport_perturbation",
    "bundle_codim", "orbit_codim", "orbit_codim_oracle",
    "DeformationPattern", "ReductionResult", "Shape", "alternate_pattern",
    "arnold_pattern", "instantiate", "reduce_single_block",
    "DimensionMismatch", "EigenvalueCollision", "InconsistentRanks",
    "MaxIterationsExceeded", "MissingParameter", "NoConvergence",
    "PivotBreakdown", "SingularMatrix", "SingularTransform", "SizeMismatch",
    "StagnationDetected", "VersalError",
    "SegreStructure", "build_jcf", "conjugate_partition", "jordan_block",
    "recover_structure",
    "as_matrix", "eigenvalues", "frobenius_norm", "min_norm_least_squares",
    "numerical_rank", "solve_linear",
    "MonicPolynomial", "RecoveryResult", "companion", "recover", "split",
]
