"""Brute-force oracles for every structural claim.

Checkers operate on raw matrices of integer levels or integer codes of
group elements, and count exhaustively with exact integer histograms.
They never call construction code; collapsing projections and group
subtraction are handed in as plain mappings and callables.
Column subsets are scanned in lexicographic order and the first failure is
reported with a concrete counterexample.

The kernel works column by column.  :func:`check_claims` is the one place
that cuts a matrix: it builds one column view for all its claims, collapses
it at most once per layer (one table lookup per column), and cuts every
nested layer prefix, slice and row range from that view or collapse, so
the nested and sliced checks share the oa/dm oracles and the collapses of
the plain claims.  Within one call, a block equal, cell for cell, to one
that already passed takes that block's report instead of being counted
again.  :func:`check_nested`, :func:`check_nested_dm` and
:func:`check_sliced` are one-claim calls of it on a top matrix, cut at its
prefix stops or in slices, so a layer is a row prefix by construction.  One
strength kernel counts the level ranks of an orthogonal array and, as a
strength-2 count over g levels, the grid cells ``v*g // scale`` of a
stratification claim.  It counts a family of equal row blocks at once as
packed int keys (``block*s**t`` plus a digit tuple's base-s number),
accepts a histogram by C-level tests (`len`, `min`, `set`), and scans only
a failing family, block by block and tuple by tuple, in order.

A :class:`Claim` names one oracle run on a matrix; :func:`check_claims` runs a
list of them, so the constructors' self-checks and ``nestfill verify`` share
one description of what a design claims.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, combinations, permutations
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import SpecError


class VerificationReport(NamedTuple):
    check: str
    passed: bool
    detail: str = ""
    counterexample: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.passed

    def message(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.check}: {status}"
        if self.detail:
            out += f" ({self.detail})"
        if self.counterexample:
            out += f" counterexample={self.counterexample}"
        return out

    def with_levels(self, to_level: Callable) -> "VerificationReport":
        """This report with the level-valued counterexample entries
        (`levels`, `element`, `pair`) passed through `to_level`, e.g. to print
        codes as their group's text."""
        if not self.counterexample:
            return self
        ce = dict(self.counterexample)
        if "element" in ce:
            ce["element"] = to_level(ce["element"])
        for key in ("levels", "pair"):
            if key in ce:
                ce[key] = [to_level(v) for v in ce[key]]
        return self._replace(counterexample=ce)

    def to_dict(self) -> dict:
        out = {"check": self.check, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class _ColumnView:
    """A column-major view of a matrix: `len()` is its row count, `[i]` its
    row i as a tuple, `[a:b]` the view of a row block, and `cols` the columns
    as lists."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: list[list], n: int):
        self.cols = cols
        self.n = n

    @classmethod
    def of(cls, rows) -> "_ColumnView":
        """`rows` (a view, or a sequence of rows) as a view."""
        if isinstance(rows, _ColumnView):
            return rows
        return cls(list(map(list, zip(*rows))), len(rows))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _ColumnView([col[i] for col in self.cols], len(range(self.n)[i]))
        # a row by index: bench/layers.py reads len(rows[0]) of the view check_oa_strength gets
        return tuple(col[i] for col in self.cols)

    def project(self, table: Mapping) -> "_ColumnView":
        """The view with every cell v replaced by table[v]."""
        return _ColumnView([list(map(table.__getitem__, col)) for col in self.cols], self.n)


def _columns(rows) -> tuple[int, list[list]]:
    """The row count and the columns of a non-empty matrix."""
    view = _ColumnView.of(rows)
    if not view.n:
        raise SpecError("empty matrix")
    return view.n, view.cols


def _uneven(counts: Counter, cells: Iterable, expected: int, complete: bool) -> Optional[tuple]:
    """The first of `cells` whose count is not `expected`, with that count,
    or None.  As every caller counts expected * len(cells) items, a histogram
    whose keys are exactly the cells (`complete`) and least count `expected`
    is flat and is accepted without a scan."""
    if complete and min(counts.values()) == expected:
        return None
    for cell in cells:
        got = counts.get(cell, 0)
        if got != expected:
            return cell, got
    return None


def _require_positive(**params: int) -> None:
    """Refuse a level count, group order, strength, grid, scale or block
    size below 1."""
    for key, value in params.items():
        if value < 1:
            raise SpecError(f"{key} must be at least 1, got {value}")


def _packed(columns, tables: list[dict], subsets: Iterable[tuple], offsets: Optional[list] = None) -> Iterator:
    """The keys of each t-subset: a row's digits as a base-s number, plus its
    entry of `offsets`.  tables[e] maps the digit at place e to its value,
    and the last digit is its own.  The subsets come grouped by their first
    t - 1 columns, whose summed keys are built once and alive one at a time."""
    head = None
    for sub in subsets:
        if sub[:-1] != head:
            head, prefix = sub[:-1], offsets
            for table, c in zip(tables, head):
                digits = map(table.__getitem__, columns[c])
                prefix = list(digits if prefix is None else map(operator.add, prefix, digits))
        yield columns[sub[-1]] if prefix is None else map(operator.add, prefix, columns[sub[-1]])


def _first_uneven(columns, s: int, t: int, subsets: Sequence[tuple], size: int) -> Optional[tuple]:
    """The first (block, subset, key, count), in that order, whose count is
    not size/s**t, `key` being a digit tuple's base-s number; None if none.

    `columns[c]` holds the digits (0..s-1 on the grid) of each column c in
    `subsets` (non-empty, in lexicographic order); the rows are blocks of
    `size` rows, a multiple of s**t.  A family off the grid, or failing the
    one-pass test over all blocks, is scanned block by block, in order."""
    used, grid = set(chain.from_iterable(subsets)), set(range(s))
    n, cells = len(columns[subsets[0][0]]), s**t
    expected = size // cells
    tables = [{d: d * s ** (t - 1 - e) for d in grid} for e in range(t - 1)]
    # a column ever looked up in `tables` is on the grid or raises KeyError,
    # so a pass needs only the other columns tested
    tail, first = used.difference(*(sub[:-1] for sub in subsets)), 0
    if all(grid.issuperset(columns[c]) for c in tail):
        offsets = [b * cells for b in range(n // size) for _ in range(size)] if size < n else None
        try:
            for first, keys in enumerate(_packed(columns, tables, subsets, offsets)):
                counts = set(keys) if expected == 1 else Counter(keys)  # one row per key: distinct
                if len(counts) != n // expected or expected > 1 and min(counts.values()) != expected:
                    break
                del counts  # not held while the next subset is counted
            else:
                return None
        except KeyError:
            pass
    if not all(grid.issuperset(columns[c]) for c in used):
        # an off-grid digit becomes -n: a key holding it is negative, never a tuple
        first, columns = 0, {c: [v if v in grid else -n for v in columns[c]] for c in used}
        tables = [{**table, -n: -n * s ** (t - 1 - e)} for e, table in enumerate(tables)]
    # the subsets before `first` passed in every block
    for b in range(0, n, size):
        block = {c: columns[c][b : b + size] for c in used}
        for sub, keys in zip(subsets[first:], _packed(block, tables, subsets[first:])):
            bad = _uneven(Counter(keys), range(cells), expected, False)
            if bad:
                return (b // size, sub) + bad
    return None


def check_oa_strength(rows: Sequence[Sequence], s: int, t: int, name: str = "oa-strength") -> VerificationReport:
    """Every t columns must carry each of the s**t level tuples n/s**t times."""
    _require_positive(s=s, t=t)
    n, columns = _columns(rows)
    m = len(columns)
    if t > m:
        raise SpecError(f"strength {t} exceeds column count {m}")
    if n % s**t:
        return VerificationReport(
            name, False, f"run size {n} not divisible by {s}^{t}",
            {"n": n, "s": s, "t": t},
        )
    levels = sorted(set(chain.from_iterable(columns)))
    if len(levels) != s:
        return VerificationReport(
            name, False, f"found {len(levels)} distinct levels, expected {s}",
            {"levels": levels},
        )
    if levels != list(range(s)):  # the kernel counts level ranks
        rank = {v: r for r, v in enumerate(levels)}
        columns = [list(map(rank.__getitem__, col)) for col in columns]
    bad = _first_uneven(columns, s, t, list(combinations(range(m), t)), n)
    if bad:
        _, cols, key, observed = bad
        return VerificationReport(
            name, False, "unbalanced level tuple",
            {"columns": list(cols), "levels": [levels[key // s**e % s] for e in range(t - 1, -1, -1)],
             "observed": observed, "expected": n // s**t},
        )
    return VerificationReport(name, True, f"OA({n}, {m}, {s}, {t})")


def check_difference_matrix(
    rows: Sequence[Sequence],
    elements: Sequence,
    subtract: Callable = operator.sub,
    name: str = "difference-matrix",
) -> VerificationReport:
    """Entry-wise differences of every ordered column pair must cover the
    group evenly (r/s occurrences of each element)."""
    s = len(elements)
    _require_positive(group_order=s)
    r, columns = _columns(rows)
    c = len(columns)
    if r % s:
        return VerificationReport(
            name, False, f"row count {r} not divisible by group order {s}",
            {"rows": r, "group order": s},
        )
    expected = r // s
    ordered = sorted(elements)
    element_set = set(elements)
    for c1, c2 in permutations(range(c), 2):
        counts = Counter(map(subtract, columns[c1], columns[c2]))
        bad = _uneven(counts, ordered, expected, counts.keys() == element_set)
        if bad:
            return VerificationReport(
                name, False, "uneven difference coverage",
                {"columns": [c1, c2], "element": bad[0], "observed": bad[1],
                 "expected": expected},
            )
    return VerificationReport(name, True, f"D({r}, {c}, {s})")


def check_latin_hypercube(rows: Sequence[Sequence[int]], name: str = "latin-hypercube") -> VerificationReport:
    n, columns = _columns(rows)
    want = set(range(n))
    for j, col in enumerate(columns):
        # n cells are a permutation of 0..n-1 exactly when they hold all n values
        present = set(col)
        if present != want:
            return VerificationReport(
                name, False, f"column {j} is not a permutation of 0..{n - 1}",
                {"column": j, "missing": sorted(want - present)[:5]},
            )
    return VerificationReport(name, True, f"{n}x{len(columns)} Latin hypercube")


def check_stratification(
    rows: Sequence[Sequence[int]],
    scale: int,
    g: int,
    name: str = "stratification",
    size: int = 0,
) -> VerificationReport:
    """Each cell of the g x g grid (cell index floor(value*g/scale)) must hold
    the same number of points, for every pair of columns.

    With `size`, the rows are consecutive blocks of `size` rows and each
    block must stratify on its own.  The report stands for the whole block
    family: a pass carries the detail of one block, and a failure is the
    first failing block's report with its 1-based index as `block`."""
    n, columns = _columns(rows)
    size = size or n
    _require_positive(scale=scale, g=g, size=size)
    if n % size:
        return VerificationReport(
            name, False, f"run size {n} not divisible by block size {size}",
            {"n": n, "size": size},
        )
    pairs = list(combinations(range(len(columns)), 2))
    if size % (g * g):
        block, rep = 0, VerificationReport(
            name, False, f"run size {size} not divisible by {g}^2", {"n": size, "g": g})
    else:
        cells = [[v * g // scale for v in col] for col in columns]
        bad = pairs and _first_uneven(cells, g, 2, pairs, size)
        if not bad:
            return VerificationReport(name, True, f"{g}x{g} grid, {size // (g * g)}/cell")
        block, dims, key, observed = bad
        rep = VerificationReport(
            name, False, "uneven grid cell",
            {"dims": list(dims), "cell": list(divmod(key, g)), "observed": observed,
             "expected": size // (g * g)},
        )
    return rep if size == n else rep._replace(counterexample={"block": block + 1, **rep.counterexample})


def check_projection_compatibility(
    projections: Sequence[Mapping], name: str = "projection-compatibility"
) -> VerificationReport:
    """Coarser projections must refine finer ones: if two values collapse
    together at layer i they must also collapse together at every j <= i.

    A failure names the first violating (j, i) layer pair and its
    lexicographically first pair (a, b) in the domain order of layer i: a is
    the first member of the first layer-i class (in order of first members)
    that layer j splits, and b the first member of that class split from a.
    """
    for i, proj_i in enumerate(projections):
        classes: dict = {}  # layer-i image -> its members in domain order
        for a in proj_i:
            classes.setdefault(proj_i[a], []).append(a)
        for j in range(i):
            proj_j = projections[j]
            for a, *rest in classes.values():
                b = next((b for b in rest if proj_j[b] != proj_j[a]), None)
                if b is not None:
                    return VerificationReport(
                        name, False, "refinement violated",
                        {"layers": [j + 1, i + 1], "pair": [a, b]},
                    )
    return VerificationReport(name, True)


def check_nested(
    rows: Sequence[Sequence],
    stops: Sequence[int],
    projections: Sequence[Mapping],
    s_levels: Sequence[int],
    t: int,
    name: str = "nested-oa",
) -> VerificationReport:
    """The strength condition on every collapse rho_j of every layer i, the
    first stops[i-1] rows (j <= i), plus compatibility of the projections."""
    claim = Claim("nested", name, tuple(stops), tuple(range(1, len(stops) + 1)), t)
    return next(check_claims(rows, [claim], projections, s_levels))


def check_nested_dm(
    rows: Sequence[Sequence],
    stops: Sequence[int],
    projections: Sequence[Mapping],
    element_sets: Sequence[Sequence],
    subtract: Callable = operator.sub,
    name: str = "nested-dm",
) -> VerificationReport:
    """check_nested with a difference matrix over element_sets[j-1] in place of each OA."""
    claim = Claim("nested-dm", name, tuple(stops), tuple(range(1, len(stops) + 1)))
    return next(check_claims(rows, [claim], projections, list(map(len, element_sets)),
                             element_sets, subtract))


def check_sliced(
    rows: Sequence[Sequence],
    slice_size: int,
    projection: Mapping,
    s_low: int,
    t: int,
    name: str = "sliced-oa",
) -> VerificationReport:
    """Each consecutive row block must collapse into a strength-t array."""
    claims = [Claim("sliced", name, layers=(1,), strength=t, size=slice_size)]
    return next(check_claims(rows, claims, [projection], [s_low]))


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
    rows on its own.  :func:`check_claims` yields one report per claim.
    """

    kind: str
    name: str = ""
    rows: tuple[int, ...] = ()
    layers: tuple[int, ...] = ()
    strength: int = 2
    size: int = 0


# each claim kind's default report name
_NAMES = {"oa": "oa-strength", "dm": "difference-matrix", "nested": "nested-oa",
          "nested-dm": "nested-dm", "sliced": "sliced-oa", "lh": "latin-hypercube",
          "strat": "stratification"}


def check_claims(
    rows: Sequence[Sequence],
    claims: Sequence[Claim],
    projections: Sequence[Mapping] = (),
    levels: Sequence[int] = (),
    element_sets: Sequence[Sequence] = (),
    subtract: Callable = operator.sub,
) -> Iterator[VerificationReport]:
    """Yield the reports of the claims on `rows`, in list order: one report
    per claim.

    projections[j-1], levels[j-1] and element_sets[j-1] are layer j's
    collapse map, level count and elements; the last entry of `levels` (and
    of `element_sets`) is the top layer's, and a "strat" claim reads it as
    the scale of the values.  `subtract` is the group difference the
    difference-matrix claims count.  The reports are yielded lazily, so a caller
    may stop at the first failure.

    This is the one place that cuts a matrix into row prefixes and blocks:
    `rows` becomes one column view for all the claims, each layer's collapse
    of it is made once, when a claim first needs it, and every nested
    prefix, slice and row range is cut from that view or collapse.  A nested
    claim's stops must lie in 1..n (increasing, or the claim fails), and any
    other claim's row range in 0..n; a stop outside is a SpecError, and so
    is a claim whose layers have no entry in `levels`, `projections` (when
    it collapses) or `element_sets` (for the dm kinds), and a nested claim
    that names no layers.

    Each distinct block is counted once per call.  The passing report of an
    oa or dm oracle run is kept under (oa or dm, collapse layer j, strength,
    block), and a later block with the same key takes that report under its
    own name.  A block with fewer rows than the matrix is keyed by its
    cells, compared cell by cell, so every block a report stands for was
    counted or equals one that was; a whole-matrix block is keyed only by
    whether it is the view or the collapse by rho_j, which fixes its cells.
    Failing reports are not kept: a failing block is counted again where it
    recurs, so its report carries its own name and counterexample.
    """
    view = _ColumnView.of(rows)
    n, collapsed, proven = len(view), {}, {}

    def collapse(j):
        if j not in collapsed:
            collapsed[j] = view.project(projections[j - 1])
        return collapsed[j]

    def oracle(base, j, a, b, name):  # the oa or dm oracle of the current claim on base[a:b]
        block = base if b - a == n else base[a:b]
        # a whole base is fixed by j and whether it is the view; a smaller block
        # by its cells, compared cell by cell
        key = (dm, j, c.strength, base is view if block is base else tuple(map(tuple, block.cols)))
        rep = proven.get(key) or (
            check_difference_matrix(block, element_sets[j - 1], subtract, name=name) if dm
            else check_oa_strength(block, levels[j - 1], c.strength, name=name))
        if rep:
            proven[key] = rep
        return rep._replace(check=name)

    for c in claims:
        if c.kind not in _NAMES:
            raise SpecError(f"unknown claim kind {c.kind!r}")
        if any(not 1 <= j <= len(levels) for j in c.layers):
            raise SpecError(f"claim {c.name or c.kind!r} names a layer outside 1..{len(levels)}")
        nested, dm, name = c.kind.startswith("nested"), c.kind.endswith("dm"), c.name or _NAMES[c.kind]
        # the inputs each layer of the claim reads; an lh claim on the rows reads none
        inputs = levels, *[projections] * bool(c.layers), *[element_sets] * dm
        if min(map(len, inputs)) < max(c.layers, default=len(levels) or c.kind != "lh"):
            raise SpecError(f"claim {name!r} lacks the level count, projection or element set "
                            f"of a layer it reads")
        if nested and not c.layers:
            raise SpecError(f"claim {name!r} names no layers")
        if not (len(c.rows) == len(c.layers) and all(0 < k <= n for k in c.rows) if nested
                else not c.rows or len(c.rows) == 2 and 0 <= c.rows[0] < c.rows[1] <= n):
            raise SpecError(f"claim {name!r} cuts rows {list(c.rows)} that do not fit "
                            f"its layers {list(c.layers)} in {n} rows")
        if nested:
            stops, layers = c.rows, c.layers
            # the first failing step decides: layer sizes, compatibility, then every collapse
            steps = chain(
                (VerificationReport(name, a < b, f"layer {i + 2} not larger than layer {i + 1}")
                 for i, (a, b) in enumerate(zip(stops, stops[1:]))),
                map(check_projection_compatibility, [[projections[j - 1] for j in layers]], [name]),
                (oracle(collapse(j), j, 0, stop, f"{name}[layer {i + 1} via rho_{p + 1}]")
                 for i, stop in enumerate(stops) for p, j in enumerate(layers[: i + 1])),
            )
            strength = f", strength {c.strength}" if c.kind == "nested" else ""
            yield next((rep for rep in steps if not rep),
                       VerificationReport(name, True, f"{len(stops)} layers{strength}"))
            continue
        j = c.layers[0] if c.layers else len(levels)
        base = collapse(j) if c.layers else view
        start, stop = c.rows or (0, n)
        if c.kind == "sliced":
            size, total = c.size, stop - start
            _require_positive(slice_size=size)  # the oracle refuses s or t below 1
            steps = chain(
                [VerificationReport(name, not total % size,
                                    f"run size {total} not divisible by slice size {size}")],
                (oracle(base, j, b, b + size, f"{name}[slice {(b - start) // size + 1}]")
                 for b in range(start, stop, size)),
            )
            yield next((rep for rep in steps if not rep),
                       VerificationReport(name, True, f"{total // size} slices of {size} rows"))
        elif c.kind in ("oa", "dm"):
            yield oracle(base, j, start, stop, name)
        else:
            block = base[start:stop] if c.rows else base
            yield (check_latin_hypercube(block, name=name) if c.kind == "lh" else
                   check_stratification(block, levels[-1], c.strength, name=name, size=c.size))
