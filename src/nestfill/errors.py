"""Exception types and the record bases shared across the package."""


class NestfillError(Exception):
    """Base class for all package errors."""


class SpecError(NestfillError, ValueError):
    """Invalid parameters, malformed inputs, or violated preconditions."""


class VerificationFailure(NestfillError):
    """A structural claim failed its brute-force oracle.

    Raised by constructions that re-verify their output before returning it;
    carries the failing report so callers can surface the counterexample.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Record:
    """A slotted record whose fields are the names in `_fields`: equal to a
    record of its own class with equal fields, and shown as
    ``Name(field=value, ...)``.  Unhashable, as its fields may be assigned."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record that hashes on its fields and refuses assignment with an
    AttributeError; its __init__ sets them with `object.__setattr__`, and
    `copy` and `pickle` rebuild it through __init__."""

    __slots__ = ()

    def __setattr__(self, key, *value):
        raise AttributeError(f"cannot assign to field {key!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class Described:
    """A group or chain that is its `descriptor()`, the JSON a design file
    stores for it: equal to another Described object exactly when their
    descriptors are equal, and hashed on the descriptor's repr (every
    descriptor is built in a fixed key order)."""

    __slots__ = ()

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Described) and other.descriptor() == self.descriptor()

    def __hash__(self) -> int:
        return hash(repr(self.descriptor()))
