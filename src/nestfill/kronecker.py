"""Kronecker sum and column-wise Kronecker sum on matrices over a group.

Both operators follow the left operand's row order: the result is a stack of
row blocks, one per left-hand row, each block a shifted copy of the right
operand, which the nested/sliced constructions cut into layer prefixes
and slices.  A matrix holds codes only; its group's `add` table adds them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SpecError


class GroupMatrix:
    """Immutable rectangular matrix of integer codes of one group `owner` (a
    Field, or an omega ring), checked to be in range."""

    __slots__ = ("code_rows", "owner")

    def __init__(self, code_rows: Iterable[Sequence[int]], owner):
        rows = tuple(tuple(r) for r in code_rows)
        if not rows or not rows[0]:
            raise SpecError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SpecError("ragged rows")
        bad = next((c for c in (min(map(min, rows)), max(map(max, rows)))
                    if not 0 <= c < owner.size), None)
        if bad is not None:
            raise SpecError(f"code {bad} out of range 0..{owner.size - 1} for {owner!r}")
        self.code_rows = rows
        self.owner = owner

    @property
    def n_rows(self) -> int:
        return len(self.code_rows)

    @property
    def n_cols(self) -> int:
        return len(self.code_rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def codes(self) -> list[list[int]]:
        return [list(r) for r in self.code_rows]

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
