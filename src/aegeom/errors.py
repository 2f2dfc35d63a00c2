"""Exception types shared across the package."""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class SlotMismatch(GeometryError):
    """A field matrix has the wrong size, or a constraint column is out of range."""


class DegenerateSystem(GeometryError):
    """A constraint system over zero unknowns has no meaningful null space."""


class NearSingularMetric(GeometryError):
    """Metric determinant too close to zero for a reliable solve."""

    def __init__(self, message: str, point=None) -> None:
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)


class NonFiniteField(GeometryError):
    """A metric or structure component is infinite or undefined at a point."""


class InvalidStructure(GeometryError):
    """The metric and structure fail a structure axiom at a sample point."""


class DomainEmpty(GeometryError):
    """Chart domain box has no interior."""


class PointOutsideDomain(GeometryError):
    """Requested point does not lie strictly inside the chart domain."""


class UnknownCatalogName(GeometryError):
    """No catalog entry with the requested name."""


class DegenerateConstruction(GeometryError):
    """A randomized construction stayed degenerate after all retries."""


class UnsupportedDimension(GeometryError):
    """Dimension outside the supported range."""


class ExpressionError(GeometryError):
    """Problem while parsing or evaluating a component expression."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ConfigError(GeometryError):
    """Manifold configuration file is malformed."""


class InternalConsistencyError(GeometryError):
    """Two independent computational routes disagreed; signals a bug."""


class FormulaMismatch(InternalConsistencyError):
    """A built-in identity failed at runtime."""


class TorsionFormulaMismatch(FormulaMismatch):
    """The three torsion formulas disagree beyond tolerance."""


class NijenhuisFormulaMismatch(FormulaMismatch):
    """The two Nijenhuis routes disagree beyond tolerance."""


class TheoremViolation(InternalConsistencyError):
    """A machine-checked implication failed on concrete data."""


class DimensionOracleMismatch(InternalConsistencyError):
    """Numeric and exact-arithmetic subspace dimensions disagree."""
