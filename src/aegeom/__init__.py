"""Numerical tensor calculus for metric manifolds with a square-root-of-
plus-or-minus-identity structure tensor.

The package evaluates charted metric/structure pairs with forward-mode
derivatives, builds the Levi-Civita and canonical connections, classifies
structures by the residuals of the standard conditions, and machine-checks
the implications between them, backed by exact pointwise linear algebra.
"""

from .algebra import (
    ModelFiber,
    SubspaceQuery,
    alternating_definitions_coincide,
    build_constraints,
    closed_form_dimension,
    dimension_table,
    subspace_dimension,
)
from .catalog import catalog, standard_names
from .classify import (
    CheckResult,
    ClassificationReport,
    classify,
    condition_table,
    sample_residuals,
)
from .connection import christoffel, derived_tensors, identity_residuals, vector_triples
from .dual import Dual
from .errors import (
    ConfigError,
    DegenerateConstruction,
    DegenerateSystem,
    DimensionOracleMismatch,
    DomainEmpty,
    ExpressionError,
    GeometryError,
    InternalConsistencyError,
    InvalidStructure,
    NearSingularMetric,
    PointOutsideDomain,
    SlotMismatch,
    TheoremViolation,
    UnknownCatalogName,
    UnsupportedDimension,
)
from .linalg import (
    LinearConstraintSystem,
    exact_nullity,
    null_space,
)
from .manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    StructureKind,
    ValidationReport,
    eval_with_derivatives,
    evaluate_fields,
    load_manifold_config,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ChartedManifold",
    "CheckResult",
    "ClassificationReport",
    "ConfigError",
    "DegenerateConstruction",
    "DegenerateSystem",
    "DimensionOracleMismatch",
    "DomainEmpty",
    "Dual",
    "ExpressionError",
    "GeometryError",
    "HERMITIAN",
    "InternalConsistencyError",
    "InvalidStructure",
    "KINDS",
    "LinearConstraintSystem",
    "ModelFiber",
    "NORDEN",
    "NearSingularMetric",
    "PARA_HERMITIAN",
    "PRODUCT_RIEMANNIAN",
    "PointOutsideDomain",
    "SamplePlan",
    "SlotMismatch",
    "StructureKind",
    "SubspaceQuery",
    "TheoremViolation",
    "UnknownCatalogName",
    "UnsupportedDimension",
    "ValidationReport",
    "alternating_definitions_coincide",
    "build_constraints",
    "catalog",
    "christoffel",
    "classify",
    "closed_form_dimension",
    "condition_table",
    "derived_tensors",
    "dimension_table",
    "eval_with_derivatives",
    "evaluate_fields",
    "exact_nullity",
    "identity_residuals",
    "load_manifold_config",
    "null_space",
    "sample_residuals",
    "standard_names",
    "subspace_dimension",
    "validate_structure",
    "vector_triples",
]
