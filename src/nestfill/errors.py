"""Exception types, the record bases shared across the package, and the
two records a `lift` job reads without loading the modules that make them:
`Claim` (the oracles' claim model, used by `verify` and `arrays`) and
`NestedFamily` (every construction's result, read by `spacefill`).  This is
the one package module `verify` may import, so `Claim` lives here rather
than beside the construction code."""

from __future__ import annotations

from typing import NamedTuple, Optional


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


def is_int(v) -> bool:
    """True for a JSON integer (bools are not integers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


class Claim(NamedTuple):
    """One structural claim about a matrix, checked by one oracle.

    `kind` picks the oracle: "oa", "dm", "nested", "nested-dm", "sliced",
    "lh" or "strat".  `name` is the report name; empty keeps the oracle's
    default.  `rows` holds the prefix stops of the nested kinds, one per
    nested layer, and the (start, stop) row range of the other kinds, where
    empty means every row.  `layers` holds the collapse layers (1-based): one
    per nested layer, or at most one for the other kinds, where none means
    the rows are checked as they are at the top level count.  `strength` is
    t, or the grid size g of a "strat" claim; `size` is the slice size of a
    "sliced" claim, or of a "strat" claim that checks every slice of its
    rows on its own.  `verify.check_claims` yields one report per claim.
    """

    kind: str
    name: str = ""
    rows: tuple[int, ...] = ()
    layers: tuple[int, ...] = ()
    strength: int = 2
    size: int = 0


class NestedFamily(Record):
    """The result of every construction: a top matrix (a
    `kronecker.GroupMatrix` over the `groups.GroupChain` `chain`) with the
    claims it was verified against.  Its row prefixes are the nested layers
    (`nested`, kind "nested" or "nested-dm", whose `rows` are the prefix
    stops) and its row blocks the `sliced` families; `nested` and every
    `sliced` claim are among the checks whose reports `verification` holds.
    `generator` is the `arrays.GeneratorMatrix` of the generator-matrix
    constructions.  `sliced` and `verification` default to new empty lists."""

    __slots__ = _fields = ("chain", "top", "nested", "sliced", "verification", "generator")

    def __init__(self, chain, top, nested: Claim, sliced: Optional[list[Claim]] = None,
                 verification: Optional[list] = None, generator=None):
        self.chain, self.top, self.nested, self.generator = chain, top, nested, generator
        self.sliced = [] if sliced is None else sliced
        self.verification = [] if verification is None else verification
