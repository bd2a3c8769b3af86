"""Exception types shared across the package, the type guard on arguments,
and the base of the immutable records.

A record is a ``typing.NamedTuple``, which is cheaper to define at import,
unless a reader needs the dataclass API (``dataclasses.asdict``,
``replace`` or ``fields``), its constructor validates, or it is a
``Frozen`` record with its own refusals: those are frozen dataclasses, each
with a docstring, as ``dataclasses`` writes a missing one at import through
``inspect.signature``.  A NamedTuple equals the plain tuple of its values,
so code that must tell a record from a tuple checks its type."""

from __future__ import annotations


class SpliceRankError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(SpliceRankError):
    """A matrix or block has a shape incompatible with its slot."""


class NotAComplex(SpliceRankError):
    """A boundary matrix does not square to zero."""


class NoFlipData(SpliceRankError):
    """Neither a basis symmetry nor an explicit flip matrix is available."""


class NotChainMap(SpliceRankError):
    """A purported chain map fails to commute with the differentials."""


class NotQuasiIso(SpliceRankError):
    """A chain map is not a quasi-isomorphism where one is required."""


class UnknownName(SpliceRankError):
    """A corpus name that is not in the catalog."""


class WindowNotStable(SpliceRankError):
    """Surgery homology fails to vanish outside the computed support window."""


class TauRelationFailure(SpliceRankError):
    """The duality maps do not satisfy the barred-map relations."""


class NormalizationFailure(SpliceRankError):
    """Simultaneous normal form for the triangle maps could not be built."""


class StatsInconsistent(SpliceRankError):
    """Closed-form package statistics disagree with direct computation."""


class WitnessNotInKernel(SpliceRankError):
    """An assembled kernel witness is not annihilated by the splice matrix."""


class SamplingExhausted(SpliceRankError):
    """Rejection sampling hit its retry budget."""


class InputFormatError(SpliceRankError):
    """A JSON input file violates the documented schema."""

    def __init__(self, path: str, message: str):
        self.pointer = path
        super().__init__(f"{path}: {message}")


def require_type(kind: type, *values: object, message: str = "") -> None:
    """Raise ``ShapeMismatch`` unless every value is a ``kind``.  ``message``
    is formatted with the values, and only on failure; by default the error
    names the first value of another type."""
    for value in values:
        if not isinstance(value, kind):
            raise ShapeMismatch(message.format(*values) if message else f"{value!r} is not a {kind.__name__}")


class _KeepsRefusals(type):
    # A frozen dataclass puts its own __setattr__ and __delattr__, raising
    # FrozenInstanceError, on its class once the class is made; a subclass
    # of Frozen keeps the base's, so subclassing is all a record needs.
    def __setattr__(cls, name: str, value: object) -> None:
        if name not in ("__setattr__", "__delattr__"):
            super().__setattr__(name, value)


class Frozen(metaclass=_KeepsRefusals):
    """Base of the immutable records: assigning or deleting an attribute
    raises ``ShapeMismatch``, as the memos hand one value to every caller,
    so none may change it for the next.  A record sets its own attributes
    through ``object.__setattr__``, as a frozen dataclass's constructor
    does."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise ShapeMismatch(f"a {type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise ShapeMismatch(f"a {type(self).__name__} is immutable: cannot delete {name}")
