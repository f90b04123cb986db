"""Exact-arithmetic workbench for Lie algebra cohomology and deformations."""

from .exact import (
    DegreeCapExceeded,
    ExactMatrix,
    PolyScalar,
    Rational,
    SingularMatrixError,
    parse_scalar,
)
from .liealg import Cochain, JacobiError, LieAlgebra
from .cohomology import (
    CohomologyReport,
    NotACocycleError,
    apply_differential,
    class_eq,
    cocycle_constraints,
    cohomology_dim,
    differential,
    heisenberg_hp_formula,
    is_coboundary,
    is_cocycle,
    span_in_cohomology,
)
from .deform import (
    DefectReport,
    Deformation,
    ExtendOutcome,
    defect,
    defect_report,
    extend_step,
    search_isomorphism,
    specialize,
    strict_extendability,
    verify_isomorphism,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "Cochain",
    "CohomologyReport",
    "DefectReport",
    "Deformation",
    "DegreeCapExceeded",
    "ExactMatrix",
    "ExtendOutcome",
    "JacobiError",
    "LieAlgebra",
    "NotACocycleError",
    "PolyScalar",
    "Rational",
    "SingularMatrixError",
    "apply_differential",
    "catalog",
    "class_eq",
    "cocycle_constraints",
    "cohomology_dim",
    "defect",
    "defect_report",
    "differential",
    "extend_step",
    "heisenberg_hp_formula",
    "is_coboundary",
    "is_cocycle",
    "parse_scalar",
    "search_isomorphism",
    "span_in_cohomology",
    "specialize",
    "strict_extendability",
    "verify_isomorphism",
]
