"""Kronecker sum and column-wise Kronecker sum on matrices over a group.

Both operators follow the left operand's row order: the result is a stack of
row blocks, one per left-hand row, each block a shifted copy of the right
operand.  That block layout is what the nested/sliced constructions read
their layer prefixes and slices from.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SpecError
from .galois import FieldElement
from .groups import GroupElement, OmegaElement


def element_owner(el: GroupElement):
    if isinstance(el, FieldElement):
        return el.field
    if isinstance(el, OmegaElement):
        return el.ring
    raise SpecError(f"not a group element: {el!r}")


class GroupMatrix:
    """Immutable rectangular matrix of group elements from one group."""

    __slots__ = ("rows", "owner")

    def __init__(self, rows: Iterable[Sequence[GroupElement]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise SpecError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SpecError("ragged rows")
        owner = element_owner(rows[0][0])
        for r in rows:
            for e in r:
                if element_owner(e) != owner:
                    raise SpecError("matrix entries from mixed groups")
        self.rows = rows
        self.owner = owner

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> tuple[GroupElement, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[GroupElement, ...]:
        return tuple(r[j] for r in self.rows)

    def prefix(self, n: int) -> "GroupMatrix":
        return GroupMatrix(self.rows[:n])

    def row_block(self, start: int, stop: int) -> "GroupMatrix":
        return GroupMatrix(self.rows[start:stop])

    def codes(self) -> list[list[int]]:
        return [[e.code for e in r] for r in self.rows]

    @classmethod
    def vstack(cls, blocks: Sequence["GroupMatrix"]) -> "GroupMatrix":
        rows = []
        for b in blocks:
            rows.extend(b.rows)
        return cls(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupMatrix) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"GroupMatrix({self.n_rows}x{self.n_cols} over {self.owner!r})"


def kron_sum(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """Block matrix whose (i, j) block is a[i][j] + B."""
    if a.owner != b.owner:
        raise SpecError("operands live in different groups")
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append(tuple(x + y for x in arow for y in brow))
    return GroupMatrix(rows)


def col_kron_sum(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """Column j of the result is the Kronecker sum of column j of each operand."""
    if a.owner != b.owner:
        raise SpecError("operands live in different groups")
    if a.n_cols != b.n_cols:
        raise SpecError(f"column counts differ: {a.n_cols} vs {b.n_cols}")
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append(tuple(x + y for x, y in zip(arow, brow)))
    return GroupMatrix(rows)
