"""Exception types shared across the library.

The command line maps :class:`UsageError` to exit code 2 and every other
:class:`GeometryError` to exit code 3 (verification failures are exit code 1
and are not exceptions).
"""


class GeometryError(Exception):
    """Base class for all library-specific failures."""


class UsageError(GeometryError):
    """Caller violated an interface contract (bad arguments, wrong branch)."""


class DomainError(GeometryError):
    """Numeric argument outside the mathematical domain of an operation."""


class DegenerateSpanError(GeometryError):
    """Vector system too close to degenerate to define a unit complement."""


class NoSolutionError(GeometryError):
    """The admissibility polynomial has no positive region."""


class ConstructionError(GeometryError):
    """Initial data for a curve or surface construction is infeasible."""


class ProjectionError(GeometryError):
    """Projection pole lies on (or too close to) the surface."""


class ConditioningError(GeometryError):
    """Near-degenerate metric; derived quantities would be unreliable."""
