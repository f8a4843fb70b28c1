"""Exception hierarchy shared by all vpgbend modules."""


class VpgError(Exception):
    """Base class for all library errors."""


class ValidationError(VpgError, ValueError):
    """A value violates a structural invariant (malformed path, bad poset, ...)."""


class GeometryError(ValidationError):
    """Malformed geometric object or an out-of-domain geometric query."""


class GraphError(ValidationError):
    """Malformed graph value (duplicate labels, loops, unknown endpoints)."""


class ParameterError(VpgError, ValueError):
    """Arguments outside an operation's documented precondition range."""


class DomainError(VpgError, ValueError):
    """Arguments are well-formed but outside the operation's domain."""


class ConstructionError(VpgError, RuntimeError):
    """A geometric construction failed one of its own checked invariants."""


class DegenerateTrimError(VpgError, RuntimeError):
    """Path trimming left no subpath: a single surviving hit, or two at one point."""
