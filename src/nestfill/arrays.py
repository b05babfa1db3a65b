"""Array-level constructions: generator matrices, the H-tower expansion,
nested/sliced orthogonal arrays, difference-matrix products, and the
column-wise Kronecker constructions with general level counts.

Every constructor declares the structural claims of what it built as a
list of :class:`~nestfill.verify.Claim` and re-verifies them with the
brute-force oracles in :mod:`nestfill.verify` before returning; a failed
oracle raises :class:`VerificationFailure` rather than handing back a
mislabeled object.  The reports of the checks that ran are kept on the
result for callers that want to surface them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from .errors import SpecError, VerificationFailure
from .galois import FieldElement
from .groups import FieldTowerChain, GroupChain, GroupElement, SubfieldTowerChain
from .kronecker import GroupMatrix, col_kron_sum, kron_sum
from .verify import (
    Claim,
    VerificationReport,
    check_claims,
    check_difference_matrix,
    check_oa_strength,
)


@dataclass
class OrthogonalArray:
    """A design matrix together with its claimed OA parameters."""

    matrix: GroupMatrix
    levels: int
    strength: int
    chain: Optional[GroupChain] = None
    layer: Optional[int] = None
    alphabet: str = "layer"  # "layer" (F_i) or "transversal" (T_i)

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def m(self) -> int:
        return self.matrix.n_cols


@dataclass
class DifferenceMatrix:
    matrix: GroupMatrix
    group_order: int
    chain: Optional[GroupChain] = None
    layer: Optional[int] = None
    alphabet: str = "layer"


@dataclass
class NestedArray:
    """Row-prefix nested layers of one top matrix, collapsed by chain layers.

    prefix_sizes[i] rows of `top` form layer i+1; proj_layers[i] names the
    chain projection whose collapse turns that layer into an OA/DM.
    """

    chain: GroupChain
    top: GroupMatrix
    prefix_sizes: tuple[int, ...]
    proj_layers: tuple[int, ...]
    strength: int
    kind: str = "oa"

    def layer_matrix(self, i: int) -> GroupMatrix:
        return self.top.prefix(self.prefix_sizes[i - 1])

    @property
    def layers(self) -> int:
        return len(self.prefix_sizes)

    def claim(self, name: str = "") -> Claim:
        kind = "nested" if self.kind == "oa" else "nested-dm"
        return Claim(kind, name, self.prefix_sizes, self.proj_layers, self.strength)


@dataclass
class SlicedArray:
    """A top matrix partitioned into consecutive row blocks, each of which
    collapses to a lower-layer array under the named projection."""

    chain: GroupChain
    top: GroupMatrix
    slice_size: int
    proj_layer: int
    strength: int

    def slices(self) -> list[GroupMatrix]:
        n = self.top.n_rows
        return [
            self.top.row_block(l * self.slice_size, (l + 1) * self.slice_size)
            for l in range(n // self.slice_size)
        ]

    def claim(self, name: str = "") -> Claim:
        return Claim("sliced", name, layers=(self.proj_layer,), strength=self.strength,
                     size=self.slice_size)


@dataclass(frozen=True)
class GeneratorMatrix:
    """k x m coefficient matrix; every column starts (after zeros) with 1."""

    k: int
    columns: tuple[tuple[FieldElement, ...], ...]

    @property
    def m(self) -> int:
        return len(self.columns)

    def column_codes(self) -> list[list[int]]:
        return [[e.code for e in col] for col in self.columns]


def _first_nonzero(vec: Sequence[FieldElement]) -> Optional[FieldElement]:
    for x in vec:
        if x.code != 0:
            return x
    return None


def generator_matrix(
    base: Sequence[FieldElement], k: int, columns: Optional[Sequence[Sequence[FieldElement]]] = None
) -> GeneratorMatrix:
    """Coefficient columns over `base` whose first nonzero entry is one.

    With `columns` omitted, the k identity columns come first and the other
    admissible coefficient vectors follow in lexicographic order of `base`
    (which callers pass in ascending canonical code order).
    """
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    base = list(base)
    codes = [e.code for e in base]
    if 0 not in codes or 1 not in codes:
        raise SpecError("base must contain 0 and 1")
    fld = base[0].field
    zero, one = fld.zero, fld.one
    if columns is None:
        identity = [
            tuple(one if r == j else zero for r in range(k)) for j in range(k)
        ]
        ident_set = set(identity)
        cols = identity + [
            vec
            for vec in product(base, repeat=k)
            if (fn := _first_nonzero(vec)) is not None
            and fn.code == 1
            and vec not in ident_set
        ]
        return GeneratorMatrix(k, tuple(cols))
    cols = [tuple(col) for col in columns]
    seen = set()
    for col in cols:
        if len(col) != k:
            raise SpecError(f"column {col!r} does not have length {k}")
        fn = _first_nonzero(col)
        if fn is None or fn.code != 1:
            raise SpecError("column's first nonzero entry must be one")
        if col in seen:
            raise SpecError("duplicate generator column")
        seen.add(col)
    return GeneratorMatrix(k, tuple(cols))


def full_factorial(elements: Sequence[GroupElement], k: int) -> GroupMatrix:
    """All k-tuples over `elements` in lexicographic order, zero row first."""
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    return GroupMatrix(list(product(elements, repeat=k)))


def _dot(row: Sequence[FieldElement], col: Sequence[FieldElement]) -> FieldElement:
    acc = None
    for x, c in zip(row, col):
        term = x * c
        acc = term if acc is None else acc + term
    return acc


def _matmul(h: GroupMatrix, gen: GeneratorMatrix) -> GroupMatrix:
    return GroupMatrix(
        [tuple(_dot(row, col) for col in gen.columns) for row in h.rows]
    )


def _require(rep: VerificationReport) -> VerificationReport:
    if not rep.passed:
        raise VerificationFailure(rep.message(), rep)
    return rep


def _require_claims(reports: list, rows, claims, chain: GroupChain, projections,
                    element_sets=()) -> None:
    """Check `claims` on `rows` in order, keeping each report; the first
    failure raises."""
    reports.extend(
        map(_require, check_claims(rows, claims, projections, chain.sizes, element_sets))
    )


def _projections(chain: GroupChain) -> list:
    return [chain.projection_map(j) for j in range(1, chain.layers + 1)]


def _family_claims(nested: NestedArray, sliced: Sequence[SlicedArray]) -> list[Claim]:
    return [nested.claim()] + [
        sl.claim(f"sliced[{sl.slice_size} rows via rho_{sl.proj_layer}]") for sl in sliced
    ]


def _delta_claims(i: int, size: int, n_blocks: int) -> list[Claim]:
    """Block l of `size` rows, collapsed to each layer j <= i, is a DM."""
    return [
        Claim("dm", f"rho_{j}(Delta^{i}_{l})", ((l - 1) * size, l * size), (j,))
        for l in range(1, n_blocks + 1)
        for j in range(1, i + 1)
    ]


def rao_hamming_oa(
    elements: Sequence[FieldElement],
    k: int,
    columns: Optional[Sequence[Sequence[FieldElement]]] = None,
    chain: Optional[GroupChain] = None,
    layer: Optional[int] = None,
) -> OrthogonalArray:
    """Full factorial rows times a generator matrix; verified at strength 2."""
    gen = generator_matrix(elements, k, columns)
    mat = _matmul(full_factorial(elements, k), gen)
    s = len(elements)
    _require(check_oa_strength(mat.rows, s, 2, name="rao-hamming"))
    return OrthogonalArray(mat, s, 2, chain=chain, layer=layer)


def build_h_tower(chain: GroupChain, k: int) -> list[GroupMatrix]:
    """Stacked tuple arrays H_1, ..., H_I; H_i enumerates layer i's k-tuples
    and is a row prefix of H_{i+1}.

    H_1 lists layer-1 tuples lexicographically (zero row first); each later
    H_i stacks H_{i-1} under beta (+c) H_{i-1} for the nonzero transversal
    tuples beta in lexicographic order.
    """
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    h = full_factorial(chain.layer_elements(1), k)
    tower = [h]
    for i in range(2, chain.layers + 1):
        blocks = [h]
        for beta in product(chain.transversal(i), repeat=k):
            if not any(beta):
                continue
            blocks.append(col_kron_sum(GroupMatrix([beta]), h))
        h = GroupMatrix.vstack(blocks)
        tower.append(h)
    return tower


@dataclass
class NoaFamily:
    """A_I with its nested layers and every sliced family it carries."""

    chain: GroupChain
    k: int
    strength: int
    generator: GeneratorMatrix
    h_tower: list[GroupMatrix]
    top: GroupMatrix
    nested: NestedArray
    sliced: list[SlicedArray]
    verification: list[VerificationReport] = field(default_factory=list)

    def a(self, i: int) -> GroupMatrix:
        return self.nested.layer_matrix(i)


def _construct_noa(chain: GroupChain, k: int, gen: GeneratorMatrix, strength: int) -> NoaFamily:
    if k < 2:
        raise SpecError("k must be >= 2 so strength-2 claims are checkable")
    tower = build_h_tower(chain, k)
    top = _matmul(tower[-1], gen)
    prefix_sizes = tuple(s**k for s in chain.sizes)
    nested = NestedArray(
        chain, top, prefix_sizes, tuple(range(1, chain.layers + 1)), strength
    )
    sliced = [
        SlicedArray(chain, top, prefix_sizes[i - 1], j, strength)
        for i in range(1, chain.layers)
        for j in range(1, i + 1)
    ]
    fam = NoaFamily(chain, k, strength, gen, tower, top, nested, sliced)
    _require_claims(fam.verification, top.rows, _family_claims(nested, sliced), chain,
                    _projections(chain))
    return fam


def _require_tower(chain: GroupChain):
    if not isinstance(chain, (FieldTowerChain, SubfieldTowerChain)):
        raise SpecError("this construction needs a field or subfield tower chain")
    return chain


def construct_noa_rh(
    chain: GroupChain, k: int, columns: Optional[Sequence[Sequence[FieldElement]]] = None
) -> NoaFamily:
    """Strength-2 nested family from the prime-field generator matrix."""
    tower = _require_tower(chain)
    base = [tower.field.element(c) for c in range(tower.p)]
    gen = generator_matrix(base, k, columns)
    return _construct_noa(tower, k, gen, 2)


def construct_noa_subfield(
    chain: GroupChain, k: int, columns: Optional[Sequence[Sequence[FieldElement]]] = None
) -> NoaFamily:
    """As construct_noa_rh but with generator coefficients from layer 1,
    giving (s_1^k - 1)/(s_1 - 1) columns.

    Needs a subfield tower: layer 1 must be multiplicatively closed for the
    products H_i * C to stay inside layer i, and only genuine subfields
    provide that.
    """
    if not isinstance(chain, SubfieldTowerChain):
        raise SpecError(
            "construct_noa_subfield needs a subfield tower chain "
            "(kind 'subfield-tower', degrees dividing upward)"
        )
    gen = generator_matrix(chain.layer_elements(1), k, columns)
    return _construct_noa(chain, k, gen, 2)


def bush_matrix(chain: GroupChain, k: int) -> GeneratorMatrix:
    """The (s_1+1)-column power matrix: column j is (1, v_j, ..., v_j^{k-1})
    for each layer-1 element v_j, plus a final (0, ..., 0, 1) column."""
    tower = _require_tower(chain)
    if k < 2:
        raise SpecError(f"k must be >= 2, got {k}")
    base = tower.layer_elements(1)
    s1 = len(base)
    if s1 < k - 1:
        raise SpecError(f"needs s_1 >= k-1 (s_1={s1}, k={k})")
    one, zero = tower.field.one, tower.field.zero
    cols = []
    for v in base:
        col, power = [], one
        for _ in range(k):
            col.append(power)
            power = power * v
        cols.append(tuple(col))
    cols.append(tuple([zero] * (k - 1) + [one]))
    return GeneratorMatrix(k, tuple(cols))


def construct_noa_bush(chain: GroupChain, k: int) -> NoaFamily:
    """Strength-k nested family from the power-matrix columns; needs
    s_1 >= k-1 and u_i | u_{i+1}."""
    tower = _require_tower(chain)
    for a, b in zip(tower.u_chain, tower.u_chain[1:]):
        if b % a:
            raise SpecError(f"layer degrees must divide upward, got {list(tower.u_chain)}")
    gen = bush_matrix(tower, k)
    return _construct_noa(tower, k, gen, k)


@dataclass
class NdmProduct:
    """The difference matrix D built from the chain, its row blocks, and the
    OA/DM families obtained by Kronecker-summing an input array with them."""

    chain: GroupChain
    a: OrthogonalArray
    d: GroupMatrix
    a_plus_d: GroupMatrix
    combined: GroupMatrix  # row reordering of a_plus_d: D-row-major
    dm_nested: NestedArray
    noa_nested: NestedArray
    verification: list[VerificationReport] = field(default_factory=list)

    def delta(self, i: int, l: int) -> GroupMatrix:
        s_i = self.chain.sizes[i - 1]
        return self.d.row_block((l - 1) * s_i, l * s_i)

    def soa(self, i: int, j: int) -> SlicedArray:
        return SlicedArray(
            self.chain,
            self.combined,
            self.a.n * self.chain.sizes[i - 1],
            j,
            self.a.strength,
        )


def construct_from_ndm(chain: GroupChain, a: OrthogonalArray) -> NdmProduct:
    """Difference-matrix product bundle: D from the outer-first enumeration
    times the layer-1 transversal, plus every nested/sliced wrapper around
    the Kronecker sum of A with D."""
    tower = _require_tower(chain)
    s = tower.sizes
    s_top, s_1 = s[-1], s[0]
    if a.levels != s_top:
        raise SpecError(f"input array must use {s_top} levels, has {a.levels}")
    if a.matrix.owner != tower.field:
        raise SpecError("input array is not over this chain's field")
    reports: list[VerificationReport] = []
    reports.append(
        _require(check_oa_strength(a.matrix.rows, s_top, 2, name="ndm-product input"))
    )
    v = tower.enumerate_ordered("outer-first")
    t1 = tower.transversal(1)
    d = GroupMatrix([tuple(ve * te for te in t1) for ve in v])
    a_plus_d = kron_sum(a.matrix, d)
    n, m = a.n, a.m
    combined = GroupMatrix(
        [
            tuple(a.matrix.rows[r][j] + d.rows[w][c] for j in range(m) for c in range(s_1))
            for w in range(s_top)
            for r in range(n)
        ]
    )
    layers = tower.layers
    dm_nested = NestedArray(
        tower,
        d,
        tuple(s),
        tuple(range(1, layers + 1)),
        strength=0,
        kind="dm",
    )
    noa_nested = NestedArray(
        tower,
        combined,
        tuple(n * si for si in s),
        tuple(range(1, layers + 1)),
        strength=2,
    )
    out = NdmProduct(tower, a, d, a_plus_d, combined, dm_nested, noa_nested, reports)
    projections = _projections(tower)
    el_sets = [tower.layer_elements(j) for j in range(1, layers + 1)]

    # D and the full-size OA
    _require_claims(reports, d.rows, [Claim("dm", "D")], tower, projections, el_sets)
    reports.append(_require(check_oa_strength(a_plus_d.rows, s_top, 2, name="A(+)D")))
    # row blocks of D and their collapses, then the I-layer NDM
    # (Delta^1_1, ..., Delta^{I-1}_1, D)
    d_claims = []
    for i in range(1, layers):
        d_claims += _delta_claims(i, s[i - 1], s_top // s[i - 1])
        d_claims += [
            Claim("nested-dm",
                  f"two-layer ndm (Delta({i},{blocks}), D; rho_{j}, rho_{layers})",
                  (blocks * s[i - 1], s_top), (j, layers))
            for blocks in range(1, s_top // s[i - 1])
            for j in range(1, i + 1)
        ]
    d_claims.append(dm_nested.claim("I-layer ndm"))
    _require_claims(reports, d.rows, d_claims, tower, projections, el_sets)
    # sliced and nested OA wrappers around the combined array
    combined_claims = []
    for i in range(1, layers):
        for j in range(1, i + 1):
            combined_claims.append(out.soa(i, j).claim(f"sliced A(+)Delta^{i} via rho_{j}"))
            combined_claims += [
                Claim("nested",
                      f"two-layer noa (A(+)Delta({i},{blocks}), A(+)D; rho_{j}, rho_{layers})",
                      (blocks * s[i - 1] * n, combined.n_rows), (j, layers))
                for blocks in range(1, s_top // s[i - 1])
            ]
    combined_claims.append(noa_nested.claim("I-layer noa"))
    _require_claims(reports, combined.rows, combined_claims, tower, projections)
    return out


def _validate_kron_inputs(
    chain: GroupChain, items: Sequence, what: str, require_zero_rows: bool
) -> int:
    if len(items) != chain.layers:
        raise SpecError(
            f"need one {what} per chain layer ({chain.layers}), got {len(items)}"
        )
    m = items[0].matrix.n_cols
    for i, item in enumerate(items, start=1):
        if item.matrix.n_cols != m:
            raise SpecError("column counts differ across inputs")
        allowed = set(chain.transversal(i))
        for row in item.matrix.rows:
            for e in row:
                if e not in allowed:
                    raise SpecError(
                        f"{what} {i} uses entries outside transversal {i}"
                    )
        if require_zero_rows and i >= 2 and any(item.matrix.rows[0]):
            raise SpecError(
                f"{what} {i} must start with an all-zero row for prefix nesting"
            )
    return m


@dataclass
class KronNoa:
    chain: GroupChain
    strength: int
    tops: list[GroupMatrix]  # B_1, ..., B_I
    nested: NestedArray
    sliced: list[SlicedArray]
    verification: list[VerificationReport] = field(default_factory=list)

    @property
    def top(self) -> GroupMatrix:
        return self.tops[-1]


def construct_noa_kron_multi(arrays: Sequence[OrthogonalArray], chain: GroupChain) -> KronNoa:
    """B_i = A_i (+c) ... (+c) A_1 for inputs over the chain's transversals.

    Every input beyond the first must start with an all-zero row so that
    each B_i is literally a row prefix of B_{i+1}.
    """
    _validate_kron_inputs(chain, arrays, "array", require_zero_rows=True)
    strength = min(a.strength for a in arrays)
    reports: list[VerificationReport] = []
    for i, a in enumerate(arrays, start=1):
        reports.append(
            _require(
                check_oa_strength(
                    a.matrix.rows, len(chain.transversal(i)), a.strength,
                    name=f"input A_{i}",
                )
            )
        )
    tops = [arrays[0].matrix]
    for a in arrays[1:]:
        tops.append(col_kron_sum(a.matrix, tops[-1]))
    cum = []
    total = 1
    for a in arrays:
        total *= a.matrix.n_rows
        cum.append(total)
    nested = NestedArray(
        chain, tops[-1], tuple(cum), tuple(range(1, chain.layers + 1)), strength
    )
    sliced = [
        SlicedArray(chain, tops[-1], cum[i - 1], j, strength)
        for i in range(1, chain.layers)
        for j in range(1, i + 1)
    ]
    out = KronNoa(chain, strength, tops, nested, sliced, reports)
    for i, b in enumerate(tops, start=1):
        if b.rows != tops[-1].rows[: b.n_rows]:
            raise VerificationFailure(f"B_{i} is not a prefix of the top array")
    _require_claims(reports, tops[-1].rows, _family_claims(nested, sliced), chain,
                    _projections(chain))
    return out


@dataclass
class KronSoa:
    chain: GroupChain
    strength: int
    b: OrthogonalArray
    soa: SlicedArray
    verification: list[VerificationReport] = field(default_factory=list)

    def prefix(self, l: int) -> GroupMatrix:
        return self.b.matrix.prefix(l * self.soa.slice_size)

    def prefix_noa(self, l: int) -> NestedArray:
        return NestedArray(
            self.chain,
            self.b.matrix,
            (l * self.soa.slice_size, self.b.n),
            (1, self.chain.layers),
            self.strength,
        )


def construct_soa_kron(
    a2: OrthogonalArray, a1: OrthogonalArray, chain: GroupChain
) -> KronSoa:
    """B = A_2 (+c) A_1: a sliced array in blocks of A_1's run size whose
    prefixes form two-layer nested families.

    Unlike the multi-layer variant, A_2 need not start with a zero row: the
    nesting claims here are about prefixes of B itself.
    """
    if chain.layers != 2:
        raise SpecError("construct_soa_kron needs a two-layer chain")
    _validate_kron_inputs(chain, [a1, a2], "array", require_zero_rows=False)
    strength = min(a1.strength, a2.strength)
    reports: list[VerificationReport] = []
    for i, a in ((1, a1), (2, a2)):
        reports.append(
            _require(
                check_oa_strength(
                    a.matrix.rows, len(chain.transversal(i)), a.strength,
                    name=f"input A_{i}",
                )
            )
        )
    b_mat = col_kron_sum(a2.matrix, a1.matrix)
    n1 = a1.matrix.n_rows
    b = OrthogonalArray(b_mat, chain.sizes[-1], strength, chain=chain, layer=2)
    soa = SlicedArray(chain, b_mat, n1, 1, strength)
    out = KronSoa(chain, strength, b, soa, reports)
    claims = [Claim("oa", "B", strength=strength), soa.claim("B slices")] + [
        out.prefix_noa(l).claim(f"two-layer noa (B^{l}, B)")
        for l in range(1, a2.matrix.n_rows)
    ]
    _require_claims(reports, b_mat.rows, claims, chain, _projections(chain))
    return out


@dataclass
class KronNdm:
    chain: GroupChain
    tops: list[GroupMatrix]  # E_1, ..., E_I
    nested: NestedArray
    verification: list[VerificationReport] = field(default_factory=list)

    @property
    def top(self) -> GroupMatrix:
        return self.tops[-1]

    def delta(self, i: int, l: int) -> GroupMatrix:
        size = self.nested.prefix_sizes[i - 1]
        return self.top.row_block((l - 1) * size, l * size)


def construct_ndm_kron(dms: Sequence[DifferenceMatrix], chain: GroupChain) -> KronNdm:
    """E_i = D_i (+c) ... (+c) D_1 for difference matrices over the chain's
    transversals; verified as a nested difference-matrix tower with slices."""
    _validate_kron_inputs(chain, dms, "difference matrix", require_zero_rows=True)
    reports: list[VerificationReport] = []
    for i, dm in enumerate(dms, start=1):
        reports.append(
            _require(
                check_difference_matrix(
                    dm.matrix.rows, chain.transversal(i), name=f"input D_{i}"
                )
            )
        )
    tops = [dms[0].matrix]
    for dm in dms[1:]:
        tops.append(col_kron_sum(dm.matrix, tops[-1]))
    cum = []
    total = 1
    for dm in dms:
        total *= dm.matrix.n_rows
        cum.append(total)
    nested = NestedArray(
        chain, tops[-1], tuple(cum), tuple(range(1, chain.layers + 1)), 0, kind="dm"
    )
    out = KronNdm(chain, tops, nested, reports)
    el_sets = [chain.layer_elements(j) for j in range(1, chain.layers + 1)]
    for i, e in enumerate(tops, start=1):
        if e.rows != tops[-1].rows[: e.n_rows]:
            raise VerificationFailure(f"E_{i} is not a prefix of the top matrix")
    claims = [nested.claim()]
    for i in range(1, chain.layers):
        claims += _delta_claims(i, cum[i - 1], tops[-1].n_rows // cum[i - 1])
    _require_claims(reports, tops[-1].rows, claims, chain, _projections(chain), el_sets)
    return out
