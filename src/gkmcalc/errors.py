"""Exception hierarchy shared across the package."""


class GkmCalcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GkmCalcError, ValueError):
    """Operands live in spaces of different dimensions."""


class ReductionError(GkmCalcError, ArithmeticError):
    """A rational expression that should be a polynomial failed to reduce."""


class GraphError(GkmCalcError, ValueError):
    """A graph, axial function or connection violates a structural axiom."""


class PolarizationError(GkmCalcError, ValueError):
    """A vector fails to polarize a graph (zero pairing or ascending loop)."""


class CocycleError(GkmCalcError, ValueError):
    """A vertex-to-polynomial map violates the edge divisibility condition."""


class SpanError(GkmCalcError, ArithmeticError):
    """A class is not an S(g*)-combination of the Thom basis."""


class FormatError(GkmCalcError, ValueError):
    """A graph or class file does not conform to the on-disk format."""


class InternalConsistencyError(GkmCalcError, AssertionError):
    """Two independent evaluation routes disagreed; indicates a bug."""


class PathBudgetError(GkmCalcError):
    """A path-sum check would enumerate more ascending paths than its budget."""
