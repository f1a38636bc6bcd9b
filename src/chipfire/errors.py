"""Exception types shared across the package."""


class ChipfireError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ChipfireError):
    """Invalid graph input or construction."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


class EmptyGraphError(GraphError):
    """The graph has no vertices."""


class EdgeListSyntaxError(GraphError):
    """A line of edge-list text could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DivisorError(ChipfireError):
    """Invalid divisor or vertex-function input."""


class UnboundVertexError(DivisorError):
    """A coefficient refers to a vertex not in the bound graph."""


class MissingVertexError(DivisorError):
    """A vertex function is not total on V(G)."""


class NonzeroDegreeError(DivisorError):
    """An operation requiring a degree-zero divisor got something else."""


class MetricError(ChipfireError):
    """Invalid metric-graph input."""


class NonIntegerSlopeError(MetricError):
    """A piecewise-linear function has a non-integer slope segment."""


class DiscontinuityError(MetricError):
    """A piecewise-linear function is discontinuous at a vertex."""


class UnrepresentablePointError(MetricError):
    """A point does not lie at a rational position on its edge."""


class SearchDepthError(ChipfireError):
    """A rank search would recurse deeper than the interpreter allows."""


class SubdivisionAuditError(ChipfireError):
    """A rank changed under uniform subdivision; this must never happen."""


class UnassignedPointError(ChipfireError):
    """A curve point has no vertex assignment in the specialization table."""


class FixtureError(ChipfireError):
    """A specialization fixture has a missing or mistyped entry."""


class RecordError(ChipfireError):
    """A sweep record has a missing or mistyped entry or names no experiment."""


def _expect(value, kind, error):
    """Raise error, naming the expected type, unless value is a kind."""
    if not isinstance(value, kind):
        raise error(f"expected a {kind.__name__}, got {type(value).__name__}")


def _expect_iterable(value, what, error):
    """iter(value), or error naming the expected iterable of what instead of
    a bare TypeError from iterating a number or None."""
    try:
        return iter(value)
    except TypeError:
        raise error(f"expected an iterable of {what}, got {type(value).__name__}") from None
