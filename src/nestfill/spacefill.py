"""Nested and sliced permutations and the Latin-hypercube lifts built with
them.

A nested permutation of 0..s_I-1 places exactly one of its first s_i entries
in each of the s_i equal value blocks, for every layer size s_i.  A sliced
permutation sends each block of q = s_I/s_j consecutive positions onto one
value block of the same width, for every j below the top.  A permutation is
its tuple of integer values: the generators return one, and `build_nsfd` and
`build_ssfd_multi`, the one place a permutation is checked, draw one per
column when given none and refuse any that does not fit their family's
chain.  Relabeling an array's levels through such permutations and then
expanding each level into a block of distinct values produces designs whose
prefixes (nested case) or row slices (sliced case) stratify progressively
coarser grids, returned as "strat" `Claim`s.  Lifting needs an
orthogonal-array family, so all three `build_*` lifts refuse a
difference-matrix ("nested-dm") one; a full lift claims 2-D grids, so they
also refuse one of a strength-1 array.  The nested lift reads
prefix i as a design over layer i, so `build_nsfd` refuses a family whose
layer-i prefix holds a code outside layer i; the sliced and grouped lifts
read only collapses.

All randomness is drawn from per-purpose streams seeded with strings such as
"<seed>:lh:<column>" and "<seed>:np:<column>", so results are reproducible
across runs and adding columns never perturbs earlier columns' draws.  An
n-run lift holds n int objects, whatever its column count: every column's
values are shared objects drawn from one list(range(n)).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence

from .errors import Claim, NestedFamily, SpecError, is_int


def _validate_layer_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SpecError(f"layer sizes must be strictly increasing, got {list(sizes)}")
    if any(sizes[-1] % s for s in sizes):
        raise SpecError(f"every layer size must divide the top size, got {list(sizes)}")
    return sizes


def is_nested_permutation(values: Sequence[int], layer_sizes: Sequence[int]) -> bool:
    sizes = _validate_layer_sizes(layer_sizes)
    top = sizes[-1]
    if not all(map(is_int, values)) or sorted(values) != list(range(top)):  # no floats, bools
        return False
    for s_i in sizes:
        q = top // s_i
        blocks = [v // q for v in values[:s_i]]
        if len(set(blocks)) != s_i:
            return False
    return True


def is_sliced_permutation(values: Sequence[int], layer_sizes: Sequence[int]) -> bool:
    sizes = _validate_layer_sizes(layer_sizes)
    top = sizes[-1]
    if not all(map(is_int, values)) or sorted(values) != list(range(top)):  # no floats, bools
        return False
    for s_j in sizes[:-1]:
        q = top // s_j
        for g in range(s_j):
            block = values[g * q : (g + 1) * q]
            if len({v // q for v in block}) != 1:
                return False
    return True


def _stream(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def gen_nested_permutation(layer_sizes: Sequence[int], seed, tag="np") -> tuple[int, ...]:
    """Greedy draw: position t samples uniformly among the values whose block
    (at the coarsest layer still covering position t) is untouched.

    Blocks of finer layers refine coarser ones, so a fresh coarse block
    implies fresh finer blocks and the greedy choice never dead-ends.  The
    sorted candidates are built once per layer, and each draw deletes its
    block from them, so a permutation costs O(top) list work per layer
    rather than O(top) per position.
    """
    sizes = _validate_layer_sizes(layer_sizes)
    top = sizes[-1]
    rng = _stream(seed, tag)
    values: list[int] = []
    for s in sizes:  # the layer of size s covers positions len(values)+1..s
        q = top // s
        used = {v // q for v in values}
        candidates = [v for v in range(top) if v // q not in used]  # sorted
        for _ in range(len(values), s):
            v = rng.choice(candidates)
            values.append(v)
            # the block of v was untouched, so it is a contiguous run of candidates
            at = bisect_left(candidates, v - v % q)
            del candidates[at : at + q]
    return tuple(values)


def gen_sliced_permutation(layer_sizes: Sequence[int], seed, tag="sp") -> tuple[int, ...]:
    """Independent uniform shuffles at every level of the block tree: coarse
    blocks are permuted among coarse positions, then recursively within."""
    sizes = _validate_layer_sizes(layer_sizes)
    top = sizes[-1]
    rng = _stream(seed, tag)
    out = [0] * top

    def fill(level: int, pos_start: int, val_start: int, width: int) -> None:
        if width == 1:
            out[pos_start] = val_start
            return
        prev = sizes[level - 1] if level > 0 else 1
        branching = sizes[level] // prev
        sub = width // branching
        order = list(range(branching))
        rng.shuffle(order)
        for idx, target in enumerate(order):
            fill(level + 1, pos_start + idx * sub, val_start + target * sub, sub)

    fill(0, 0, 0, top)
    return tuple(out)


def oa_based_lh(rows: Sequence[Sequence[int]], s: int, seed) -> list[list[int]]:
    """Expand each level r of each column into the value block
    [r*q, (r+1)*q) via a per-column uniform shuffle, q = n/s.

    Every column must carry each level exactly q times; the result has each
    column a permutation of 0..n-1 and floor(out*s/n) == rows entry-wise.
    Each block is a shuffled slice of one shared list(range(n)), so all
    columns reference the same n int objects; `rows` is read, not copied.
    """
    n = len(rows)
    if n == 0 or n % s:
        raise SpecError(f"run size {n} is not a multiple of the level count {s}")
    q = n // s
    m = len(rows[0])
    values = list(range(n))
    out = [[0] * m for _ in range(n)]
    for col in range(m):
        positions: dict[int, list[int]] = {r: [] for r in range(s)}
        for idx, row in enumerate(rows):
            v = row[col]
            if v not in positions:
                raise SpecError(f"column {col} holds level {v} outside 0..{s - 1}")
            positions[v].append(idx)
        bad = next((r for r, p in positions.items() if len(p) != q), None)
        if bad is not None:
            raise SpecError(
                f"column {col} is unbalanced: level {bad} occurs "
                f"{len(positions[bad])} times, expected {q}"
            )
        rng = _stream(seed, "lh", col)
        for r, where in positions.items():  # levels 0..s-1 in order
            block = values[r * q : (r + 1) * q]
            rng.shuffle(block)
            for idx, value in zip(where, block):
                out[idx][col] = value
    return out


def _position_labels(ordering: Sequence[int], relabels: Sequence[Sequence[int]]):
    """Per-column label tables: column j sends the code at position r of
    `ordering` to relabels[j][r]."""
    position = [0] * len(ordering)
    for r, code in enumerate(ordering):
        position[code] = r
    return [[relabel[r] for r in position] for relabel in relabels]


class LiftedDesign(NamedTuple):
    """A relabeled integer design and (unless relabel-only) its lifted
    Latin hypercube, with the "strat" claims of the grids it stratifies."""

    design: list[list[int]]            # relabeled levels, 0..scale-1
    scale: int                         # level count of `design`
    lifted: Optional[list[list[int]]]  # Latin hypercube on 0..n-1, or None
    grids: Sequence[Claim] = ()
    permutations: Sequence[list[int]] = ()

    @property
    def n(self) -> int:
        return len(self.design)


def _check_stage(family: NestedFamily, stage: str) -> None:
    """Refuse an unknown `stage`, a difference-matrix family, and a full lift
    of strength 1: its 2-D grids cannot hold."""
    if stage not in ("full", "relabel-only"):
        raise SpecError(f"unknown stage {stage!r}")
    if family.nested.kind == "nested-dm":
        raise SpecError("cannot lift a difference-matrix family; lifting needs an "
                        "orthogonal-array family")
    if stage == "full" and family.nested.strength < 2:
        raise SpecError(f"a full lift claims 2-D grids, which an array of strength "
                        f"{family.nested.strength} does not stratify")


def _check_perms(perms, m, sizes, kind, holds):
    """Refuse unless there is one permutation per column (`m`) and `holds`
    accepts each one for the layer `sizes`."""
    if len(perms) != m:
        raise SpecError(f"need one permutation per column ({m}), got {len(perms)}")
    for p in perms:
        if not holds(p, sizes):
            raise SpecError(f"{list(p)} is not a {kind} permutation for layers {list(sizes)}")


def _lift(family: NestedFamily, labels: Sequence[Sequence[int]], grids: list[Claim], seed,
          stage: str, permutations=()) -> LiftedDesign:
    """Relabel the family's top array code by code through the per-column
    `labels` tables, then (unless `stage` is "relabel-only") lift it."""
    design = [list(map(list.__getitem__, labels, row)) for row in family.top.code_rows]
    top_size = family.chain.top_size
    lifted = oa_based_lh(design, top_size, seed) if stage == "full" else None
    return LiftedDesign(design, top_size, lifted, grids, [list(p) for p in permutations])


def build_nsfd(family: NestedFamily, permutations: Optional[Sequence[Sequence[int]]] = None,
               seed=0, stage: str = "full") -> LiftedDesign:
    """Relabel the top array through nested permutations keyed by the
    outer-first enumeration (by default one drawn per column), then lift to
    a Latin hypercube whose row prefixes stratify progressively finer grids.
    A family whose layer-i prefix holds a code outside layer i is refused."""
    _check_stage(family, stage)
    chain, m = family.chain, family.top.n_cols
    for layer, stop in enumerate(family.nested.rows[:-1], start=1):
        codes = set(chain.layer_codes(layer))
        for r, row in enumerate(family.top.code_rows[:stop]):
            if not codes.issuperset(row):
                code = next(c for c in row if c not in codes)
                raise SpecError(f"row {r} of the layer-{layer} prefix holds code {code} "
                                f"({chain.group.text_code(code)}), which is not in layer {layer}")
    if permutations is None:  # column c draws from the stream "<seed>:np:<c>"
        permutations = [gen_nested_permutation(chain.sizes, seed, tag=f"np:{c}") for c in range(m)]
    _check_perms(permutations, m, chain.sizes, "nested", is_nested_permutation)
    labels = _position_labels(chain.ordered_codes("outer-first"), permutations)
    grids = [Claim("strat", rows=(0, stop), strength=s)
             for stop, s in zip(family.nested.rows, chain.sizes)]
    return _lift(family, labels, grids, seed, stage, permutations)


def build_ssfd_multi(family: NestedFamily, permutations: Optional[Sequence[Sequence[int]]] = None,
                     seed=0, stage: str = "full") -> LiftedDesign:
    """Relabel through sliced permutations keyed by the inner-first
    enumeration (by default one drawn per column); the result slices evenly
    at every layer below the top."""
    _check_stage(family, stage)
    chain, m = family.chain, family.top.n_cols
    if permutations is None:  # column c draws from the stream "<seed>:sp:<c>"
        permutations = [gen_sliced_permutation(chain.sizes, seed, tag=f"sp:{c}") for c in range(m)]
    _check_perms(permutations, m, chain.sizes, "sliced", is_sliced_permutation)
    labels = _position_labels(chain.ordered_codes("inner-first"), permutations)
    grids = [Claim("strat", strength=s, size=stop)
             for stop, s in zip(family.nested.rows[:-1], chain.sizes)]
    grids.append(Claim("strat", rows=(0, family.top.n_rows), strength=chain.top_size))
    return _lift(family, labels, grids, seed, stage, permutations)


def build_ssfd_grouped(family: NestedFamily, i: int, j: int,
                       group_order: Optional[Sequence[int]] = None, seed=0,
                       stage: str = "full") -> LiftedDesign:
    """Relabel by collapse groups: levels collapsing together under the layer-j
    projection get consecutive integer labels, group blocks ordered by the
    layer-j codes of `group_order` (default: ascending code), then lift;
    slices of the layer-i block size stratify the s_j grid."""
    _check_stage(family, stage)
    chain = family.chain
    if not 1 <= j <= i <= chain.layers:
        raise SpecError(f"need 1 <= j <= i <= {chain.layers}, got i={i}, j={j}")
    reps = chain.layer_codes(j)
    if group_order is not None:
        if sorted(group_order) != reps:
            raise SpecError("group order must list each layer-j element once")
        reps = group_order
    q = chain.top_size // chain.sizes[j - 1]
    proj = chain.projection_table(j)
    label = [0] * chain.top_size
    for g, alpha in enumerate(reps):
        members = [c for c, v in enumerate(proj) if v == alpha]
        for offset, c in enumerate(members):
            label[c] = g * q + offset
    grids = [Claim("strat", strength=chain.sizes[j - 1], size=family.nested.rows[i - 1]),
             Claim("strat", rows=(0, family.top.n_rows), strength=chain.top_size)]
    return _lift(family, [label] * family.top.n_cols, grids, seed, stage)


def compose_qual_quant(
    quant_rows: Sequence[Sequence[int]],
    slice_size: int,
    qual_rows: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Append qualitative row l to every run of slice l; slice count must
    equal the qualitative row count."""
    n = len(quant_rows)
    if slice_size < 1 or n % slice_size:
        raise SpecError(f"slice size {slice_size} does not divide {n} runs")
    v = n // slice_size
    if v != len(qual_rows):
        raise SpecError(
            f"{v} slices but {len(qual_rows)} qualitative level combinations"
        )
    out = []
    for idx, row in enumerate(quant_rows):
        out.append(list(row) + list(qual_rows[idx // slice_size]))
    return out
