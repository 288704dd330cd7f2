"""Exception types shared across the library."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class DuplicateEdge(GraphError):
    """A simple graph was given the same unordered vertex pair twice."""


class LoopRejected(GraphError):
    """A simple graph was given an edge with equal endpoints."""


class DanglingVertexId(GraphError):
    """An edge endpoint refers to a vertex id outside the graph."""


class UniverseMismatch(GraphError):
    """Edge sets from different edge universes were combined."""


class Disconnected(GraphError):
    """The operation requires a connected graph."""


class AllDegreesTwo(GraphError):
    """The thread partition is undefined (every degree-2 run is closed)."""


class NotAThread(GraphError):
    """The given edges do not form a thread of the graph."""


class NotACircuit(GraphError):
    """The given edges do not form a single cycle of the graph."""


class NotAPathChord(GraphError):
    """The thread is not a path-chord of the circuit."""


class NotEven(GraphError):
    """The edge set has a vertex of odd degree."""


class NotInSpan(GraphError):
    """The target is outside the GF(2) span of the generators."""


class CircuitExplosion(GraphError):
    """Circuit enumeration exceeded the configured cap."""


class NotTop3Connected(GraphError):
    """The graph is not a subdivision of a 3-connected graph."""


class IsTopK4(GraphError):
    """The graph is already a subdivision of K4 (reduction base case)."""


class VerificationFailed(GraphError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NotInNcOfReduced(GraphError):
    """The circuit is not a non-separating circuit of the reduced graph."""


class TooLarge(GraphError):
    """The instance exceeds a size guard."""


class EmptyX(GraphError):
    """The edge set must be nonempty."""


class ParseError(GraphError):
    """Malformed edge-list text."""


class InputTooLarge(TooLarge, ParseError):
    """An edge-list header or a generated graph's name asks for more
    vertices than the input guards allow."""


class UnknownName(GraphError):
    """Unrecognized corpus graph name."""


class GenerationFailed(GraphError):
    """A generated graph failed its post-generation connectivity check."""
