"""Exception types and the immutable value base shared across the library."""


class Value:
    """An immutable value.  A subclass lists its fields first in __slots__,
    then its derived slots, named "_..."; its __init__ hands every slot's
    value in that order to Value.__init__, the one writer.  Values of one
    class are equal when their fields are, hash as the tuple of their
    fields and print as Name(field=value, ...)."""

    __slots__ = ("_key",)  # the tuple of field values

    def __init_subclass__(cls):
        cls._arity = sum(not name.startswith("_") for name in cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values[:self._arity])

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


_QUOTE_WHOLE = 40  # longest repr that an error message quotes whole


def quote(value, text: str = None) -> str:
    """text, by default repr(value), for an error message: whole when short,
    else its first and last few characters and its length, to keep it short."""
    text = repr(value) if text is None else text
    if len(text) <= _QUOTE_WHOLE:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:16]}...{text[-16:]} ({size} characters)"


class ConicBundleError(Exception):
    """Base class for every error raised by this library."""


class ParseError(ConicBundleError):
    """Malformed or non-canonical textual input."""


class SchemaError(ConicBundleError):
    """A JSON payload violates the expected schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class InvalidTriple(ConicBundleError):
    """A point triple meant to pin down a Moebius map has a repeat."""


class InfiniteStabilizer(ConicBundleError):
    """Fewer than three points: the stabilizer is not finite."""


class InvalidModel(ConicBundleError, ValueError):
    """Constructor input violates a model invariant."""


class MoveInfinityFirst(ConicBundleError):
    """The configuration touches infinity; conjugate it away first."""


class NotOnSurface(ConicBundleError):
    """The point does not satisfy the surface equation."""


class EmptyOrSingularFiber(ConicBundleError):
    """The fiber over this parameter has no real circle to rotate."""


class ChartPole(ConicBundleError):
    """The rotation sits at the excluded point of the rational chart."""


class DuplicateNode(ConicBundleError):
    """Two interpolation constraints share the same abscissa."""


class FiberMismatch(ConicBundleError):
    """A transport pair does not share its fiber coordinate."""


class PinCollision(ConicBundleError):
    """A pinned fiber collides with a transported fiber."""


class SingularFiberTarget(ConicBundleError):
    """Transport requested on a fiber where the circle degenerates."""


class TooManyIntervals(ConicBundleError):
    """The biconic construction supports at most three intervals."""


class IrrationalBoundary(ConicBundleError):
    """A form has real but irrational roots; the image is not representable."""


class ImageIsWholeLine(ConicBundleError):
    """Every parameter carries real points; not an interval configuration."""


class WitnessSearchFailed(ConicBundleError):
    """Bounded rational point search exhausted its budget."""

    def __init__(self, budget: int):
        super().__init__(f"no witness found within search budget {budget}")
        self.budget = budget


class NotAFiberClass(ConicBundleError):
    """The lattice vector is not a conic fiber class."""


class BasisMismatch(ConicBundleError):
    """Lattice vectors live in different bases."""


class Unsupported(ConicBundleError):
    """The request falls outside the supported parameter range."""


class OutsideRegion(ConicBundleError):
    """A path endpoint lies outside the rectangle union."""


class OnForbiddenLine(ConicBundleError):
    """A path endpoint sits on a forbidden coordinate line."""
