"""Exception types raised across the package."""


class DiffDesignError(Exception):
    """Base class for all package-specific errors."""


# linear algebra

class NotPositiveDefinite(DiffDesignError):
    """A matrix required to be SPD has a non-positive pivot."""


class NoConvergence(DiffDesignError):
    """An iterative solver exhausted its iteration budget."""


# meshing

class DegenerateInput(DiffDesignError):
    """Point set is collinear or otherwise untriangulatable."""


class ConstraintCrossing(DiffDesignError):
    """Two constraint segments intersect in their interiors."""


class RefinementBudgetExceeded(DiffDesignError):
    """Mesh refinement hit the node cap before meeting quality targets."""


class MissingTag(DiffDesignError):
    """Mesh lacks a tag required by an assembly routine."""


# interface curve / basis

class MultipleLoops(DiffDesignError):
    """Interface edges form more than one closed loop."""


class OpenLoop(DiffDesignError):
    """Interface edges do not close up."""


class CentersOutOfRange(DiffDesignError):
    """Bump center outside the arc-length range [0, L)."""


class DisconnectedGraph(DiffDesignError):
    """Geodesic distances requested on a disconnected graph."""


# fem / fim

class InstantOutOfRange(DiffDesignError):
    """Measurement instant index outside the trajectory grid."""


class DimensionMismatch(DiffDesignError):
    """Weight vector and FIM tensor dimensions disagree."""


# design optimization

class NonIntegerBudget(DiffDesignError):
    """Weight budget must be an integer to define binary vertices."""


class SingularInformation(DiffDesignError):
    """Combined FIM is rank deficient where an SPD matrix is required."""


class Infeasible(DiffDesignError):
    """No feasible SPD starting design exists."""


class MaxIterations(DiffDesignError):
    """Outer design loop exhausted its iteration budget."""


# configuration / caching

class ConfigError(DiffDesignError):
    """Invalid run configuration; message carries the JSON path."""


class CacheMismatch(DiffDesignError):
    """Cached tensor was produced under a different configuration or code."""
