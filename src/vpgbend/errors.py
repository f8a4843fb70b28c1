"""Exception hierarchy shared by all vpgbend modules, and the base of their
immutable records."""

from operator import attrgetter

# sets a field of a record once, in its __init__: Record.__setattr__ refuses
_set = object.__setattr__


class Record:
    """An immutable record whose class costs next to nothing to create.

    A subclass lists its fields in `__slots__` and sets each in `__init__`
    with `_set`.  Records compare equal by type and field values, hash as
    the tuple of their field values, print as `Name(field=value, ...)` and
    refuse assignment with AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        get = attrgetter(*names)
        # a tuple of the field values, one field or many: its hash is the record's
        cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
