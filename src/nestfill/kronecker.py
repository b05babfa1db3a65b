"""Kronecker sum and column-wise Kronecker sum on matrices over a group.

Both operators follow the left operand's row order: the result is a stack of
row blocks, one per left-hand row, each block a shifted copy of the right
operand.  That block layout is what the nested/sliced constructions read
their layer prefixes and slices from.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SpecError
from .galois import Element


class GroupMatrix:
    """Immutable rectangular matrix over one group, stored as integer codes.

    `GroupMatrix(rows)` takes group elements and checks that they all belong
    to one group; `GroupMatrix(code_rows, owner)` takes codes of `owner` (a
    Field, or an omega ring) and checks that they are in range.  `.rows` is
    the element view of the codes.
    """

    __slots__ = ("code_rows", "owner")

    def __init__(self, rows: Iterable[Sequence], owner=None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise SpecError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SpecError("ragged rows")
        if owner is None:
            owner = getattr(rows[0][0], "group", None)
            if owner is None or any(
                (g := getattr(e, "group", None)) is not owner and g != owner
                for r in rows for e in r
            ):
                raise SpecError("matrix entries must be elements of one group")
            rows = tuple(tuple(e.code for e in r) for r in rows)
        else:
            bad = next((c for c in (min(map(min, rows)), max(map(max, rows)))
                        if not 0 <= c < owner.size), None)
            if bad is not None:
                raise SpecError(f"code {bad} out of range 0..{owner.size - 1} for {owner!r}")
        self.code_rows = rows
        self.owner = owner

    @property
    def rows(self) -> tuple[tuple[Element, ...], ...]:
        el = self.owner.element_from_code
        return tuple(tuple(map(el, r)) for r in self.code_rows)

    @property
    def n_rows(self) -> int:
        return len(self.code_rows)

    @property
    def n_cols(self) -> int:
        return len(self.code_rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def column(self, j: int) -> tuple[Element, ...]:
        return tuple(self.owner.element_from_code(r[j]) for r in self.code_rows)

    def prefix(self, n: int) -> "GroupMatrix":
        return GroupMatrix(self.code_rows[:n], self.owner)

    def row_block(self, start: int, stop: int) -> "GroupMatrix":
        return GroupMatrix(self.code_rows[start:stop], self.owner)

    def codes(self) -> list[list[int]]:
        return [list(r) for r in self.code_rows]

    @classmethod
    def vstack(cls, blocks: Sequence["GroupMatrix"]) -> "GroupMatrix":
        owner = _common_owner(*blocks)
        return cls([r for b in blocks for r in b.code_rows], owner)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupMatrix) and other.owner == self.owner
                and other.code_rows == self.code_rows)

    def __hash__(self) -> int:
        return hash(self.code_rows)

    def __repr__(self) -> str:
        return f"GroupMatrix({self.n_rows}x{self.n_cols} over {self.owner!r})"


def _common_owner(*mats: GroupMatrix):
    if any(m.owner != mats[0].owner for m in mats):
        raise SpecError("operands live in different groups")
    return mats[0].owner


def kron_sum(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """Block matrix whose (i, j) block is a[i][j] + B."""
    owner = _common_owner(a, b)
    add = owner.add
    rows = []
    for arow in a.code_rows:
        shifts = [add[x] for x in arow]
        for brow in b.code_rows:
            rows.append(tuple(s[y] for s in shifts for y in brow))
    return GroupMatrix(rows, owner)


def col_kron_sum(a: GroupMatrix, b: GroupMatrix) -> GroupMatrix:
    """Column j of the result is the Kronecker sum of column j of each operand."""
    owner = _common_owner(a, b)
    if a.n_cols != b.n_cols:
        raise SpecError(f"column counts differ: {a.n_cols} vs {b.n_cols}")
    add = owner.add
    rows = []
    for arow in a.code_rows:
        shifts = [add[x] for x in arow]
        for brow in b.code_rows:
            rows.append(tuple(map(list.__getitem__, shifts, brow)))
    return GroupMatrix(rows, owner)
