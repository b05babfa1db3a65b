"""Array-level constructions: generator matrices, the H-tower expansion,
nested/sliced orthogonal arrays, difference-matrix products, and the
column-wise Kronecker constructions with general level counts.

Every constructor declares the structural claims of what it built as a
list of :class:`~nestfill.errors.Claim` and re-verifies them with the
brute-force oracles in :mod:`nestfill.verify` before returning; a failed
oracle raises :class:`VerificationFailure` rather than handing back a
mislabeled object.  Every construction returns a
:class:`~nestfill.errors.NestedFamily` (`construct_from_ndm` two of them): a
top matrix whose nested and sliced structure is named by these claims (a
nested claim's `rows` are the prefix stops, a sliced claim's `size` the
block size), with the reports of the checks that ran.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import Claim, NestedFamily, SpecError, VerificationFailure
from .galois import Field
from .groups import FieldTowerChain, GroupChain, SubfieldTowerChain
from .kronecker import GroupMatrix, col_kron_sum, kron_sum
from .verify import VerificationReport, check_claims

# the most cells an array built here may hold; a build measured ~100 bytes a cell
# (--p 2 --u 1,10 --k 2: 3,145,728 cells, 325 MB peak RSS), so ~430 MB at the limit
MAX_CELLS = 2**22


class OrthogonalArray(NamedTuple):
    """A design matrix together with its claimed OA parameters."""

    matrix: GroupMatrix
    levels: int
    strength: int

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def m(self) -> int:
        return self.matrix.n_cols


class DifferenceMatrix(NamedTuple):
    """An input difference matrix of a column-wise Kronecker tower."""

    matrix: GroupMatrix


class GeneratorMatrix(NamedTuple):
    """k x m coefficient matrix over `field`, held as code columns; every
    column starts (after zeros) with 1."""

    k: int
    field: Field
    codes: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.codes)


def _require_cells(rows: int, cols: int, rows_text: str = "") -> None:
    """Refuse, before it is allocated, an array of `rows` x `cols` cells above
    MAX_CELLS; `rows_text` names the row count where it is not spelled out."""
    if rows * cols > MAX_CELLS:
        raise SpecError(f"an array of {rows_text or rows} rows and {cols} columns is too large: "
                        f"the limit is {MAX_CELLS} cells")


def _leads_with_one(col: Sequence[int]) -> bool:
    return next((c for c in col if c), None) == 1


def generator_matrix(
    field: Field, base: Sequence[int], k: int, columns: Optional[Sequence[Sequence[int]]] = None
) -> GeneratorMatrix:
    """Coefficient columns over `base` (codes of `field`) whose first nonzero
    entry is one.

    With `columns` omitted, the k identity columns come first and the other
    admissible coefficient vectors follow in lexicographic order of `base`
    (which callers pass in ascending code order).
    """
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    if 0 not in base or 1 not in base:
        raise SpecError("base must contain 0 and 1")
    if columns is None:
        identity = [tuple(int(r == j) for r in range(k)) for j in range(k)]
        cols = identity + [
            vec for vec in product(base, repeat=k)
            if _leads_with_one(vec) and vec not in identity
        ]
        return GeneratorMatrix(k, field, tuple(cols))
    cols = []
    for pos, col in enumerate(map(tuple, columns), start=1):
        codes = ",".join(map(str, col))
        if len(col) != k:
            raise SpecError(f"generator column {pos} (codes {codes}) does not have length {k}")
        bad = [c for c in col if c not in base]
        if bad:
            raise SpecError(f"generator column {pos} (codes {codes}) has entry {bad[0]} outside "
                            f"the generator base {{{','.join(map(str, base))}}}")
        if not _leads_with_one(col):
            raise SpecError("column's first nonzero entry must be one")
        if col in cols:
            raise SpecError("duplicate generator column")
        cols.append(col)
    return GeneratorMatrix(k, field, tuple(cols))


def full_factorial(codes: Sequence[int], k: int, owner) -> GroupMatrix:
    """All k-tuples over `codes` (of the group `owner`) in lexicographic
    order, zero row first."""
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    return GroupMatrix(list(product(codes, repeat=k)), owner)


def _matmul(h: GroupMatrix, gen: GeneratorMatrix) -> GroupMatrix:
    """h times the generator: entry (r, j) is the dot product of row r of h
    with column j.  Output column j is built column-wise: for each nonzero
    coefficient c of generator column j, c times h's column is added to it
    by table lookups."""
    if h.owner != gen.field:
        raise SpecError("matrix and generator live in different fields")
    add, mul = gen.field.add, gen.field.mul
    h_cols = list(zip(*h.code_rows))
    out = []
    for col in gen.codes:
        acc = [0] * h.n_rows
        for c, x in zip(col, h_cols):
            if c:
                acc = list(map(list.__getitem__, map(add.__getitem__, acc),
                               map(mul[c].__getitem__, x)))
        out.append(acc)
    return GroupMatrix(zip(*out), gen.field)


def _require(matrix: GroupMatrix, claims: Sequence[Claim], **inputs) -> list[VerificationReport]:
    """The reports of `check_claims` on `matrix`, in order; the first failure
    raises VerificationFailure naming its counterexample in the text of
    `matrix`'s group."""
    reports = []
    for rep in check_claims(matrix.code_rows, claims, **inputs):
        if not rep.passed:
            rep = rep.with_levels(matrix.owner.text_code)
            raise VerificationFailure(rep.message(), rep)
        reports.append(rep)
    return reports


def _delta_claims(i: int, size: int, n_blocks: int) -> list[Claim]:
    """Block l of `size` rows, collapsed to each layer j <= i, is a DM."""
    return [
        Claim("dm", f"rho_{j}(Delta^{i}_{l})", ((l - 1) * size, l * size), (j,))
        for l in range(1, n_blocks + 1)
        for j in range(1, i + 1)
    ]


def rao_hamming_oa(
    field: Field, codes: Sequence[int], k: int, columns: Optional[Sequence[Sequence[int]]] = None
) -> OrthogonalArray:
    """Full factorial rows over `codes` (of `field`) times a generator matrix
    over them; verified at strength 2."""
    gen = generator_matrix(field, codes, k, columns)
    mat = _matmul(full_factorial(codes, k, field), gen)
    s = len(codes)
    _require(mat, [Claim("oa", "rao-hamming")], levels=[s])
    return OrthogonalArray(mat, s, 2)


def build_h_tower(chain: GroupChain, k: int) -> list[GroupMatrix]:
    """Tuple arrays H_1, ..., H_I; H_i enumerates layer i's k-tuples and is
    a row prefix of H_{i+1}.

    H_i is the column-wise Kronecker tower of the full factorials of
    T_1, ..., T_i: each lists its transversal's k-tuples lexicographically,
    zero tuple first, so H_i stacks beta (+c) H_{i-1} over the tuples beta of
    T_i with H_{i-1} itself as the first block.
    """
    return _kron_tower([full_factorial(chain.transversal_codes(i), k, chain.group)
                        for i in range(1, chain.layers + 1)], "H")


def _noa_family(chain: GroupChain, top: GroupMatrix, stops: tuple[int, ...], strength: int,
                reports: list, generator: Optional[GeneratorMatrix] = None) -> NestedFamily:
    """Verify `top` as a nested family with prefix stops `stops` and, for
    every layer i below the top and j <= i, sliced in blocks of stop i
    collapsed by rho_j."""
    sliced = [
        Claim("sliced", f"sliced[{stops[i - 1]} rows via rho_{j}]", layers=(j,),
              strength=strength, size=stops[i - 1])
        for i in range(1, chain.layers)
        for j in range(1, i + 1)
    ]
    nested = Claim("nested", rows=stops, layers=tuple(range(1, chain.layers + 1)),
                   strength=strength)
    reports += _require(top, [nested, *sliced], **chain.oracle_inputs())
    return NestedFamily(chain, top, nested, sliced, reports, generator)


def _construct_noa(chain: GroupChain, k: int, strength: int,
                   generator: Callable[[], GeneratorMatrix]) -> NestedFamily:
    """The nested family of H_I times `generator()`, which is called only once
    the top_size**k rows of H_I are known to fit."""
    q, rows = chain.top_size, f"{chain.top_size}^{k}"
    _require_cells(q ** min(k, 23), k, rows)  # q >= 2, so any k above 22 is refused
    gen = generator()
    if gen.k < 2:
        raise SpecError("k must be >= 2 so strength-2 claims are checkable")
    _require_cells(q**k, gen.m, rows)
    top = _matmul(build_h_tower(chain, k)[-1], gen)
    return _noa_family(chain, top, tuple(s**k for s in chain.sizes), strength, [], gen)


def _require_tower(chain: GroupChain):
    if not isinstance(chain, (FieldTowerChain, SubfieldTowerChain)):
        raise SpecError("this construction needs a field or subfield tower chain")
    return chain


def construct_noa_rh(
    chain: GroupChain, k: int, columns: Optional[Sequence[Sequence[int]]] = None
) -> NestedFamily:
    """Strength-2 nested family from the prime-field generator matrix;
    `columns` are code tuples over GF(p)."""
    tower = _require_tower(chain)
    return _construct_noa(tower, k, 2,
                          lambda: generator_matrix(tower.field, range(tower.p), k, columns))


def construct_noa_subfield(
    chain: GroupChain, k: int, columns: Optional[Sequence[Sequence[int]]] = None
) -> NestedFamily:
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
    return _construct_noa(chain, k, 2, lambda: generator_matrix(
        chain.field, chain.layer_codes(1), k, columns))


def bush_matrix(chain: GroupChain, k: int) -> GeneratorMatrix:
    """The (s_1+1)-column power matrix: column j is (1, v_j, ..., v_j^{k-1})
    for each layer-1 element v_j, plus a final (0, ..., 0, 1) column."""
    tower = _require_tower(chain)
    if k < 2:
        raise SpecError(f"k must be >= 2, got {k}")
    base = tower.layer_codes(1)
    s1 = len(base)
    if s1 < k - 1:
        raise SpecError(f"needs s_1 >= k-1 (s_1={s1}, k={k})")
    cols = [tuple(tower.field.pow_code(v, e) for e in range(k)) for v in base]
    cols.append((0,) * (k - 1) + (1,))
    return GeneratorMatrix(k, tower.field, tuple(cols))


def construct_noa_bush(chain: GroupChain, k: int) -> NestedFamily:
    """Strength-k nested family from the power-matrix columns; needs s_1 >= k-1
    and a layer 1 closed under multiplication: a subfield tower, or a field
    tower with u_1 = 1 (layer 1 is GF(p), and every layer a GF(p)-space)."""
    tower = _require_tower(chain)
    if isinstance(tower, FieldTowerChain) and tower.u_chain[0] != 1:
        raise SpecError("the bush construction needs a subfield tower or a field tower "
                        f"with u_1 = 1, got a field tower with u_chain {list(tower.u_chain)}")
    return _construct_noa(tower, k, k, lambda: bush_matrix(tower, k))


def construct_from_ndm(chain: GroupChain, a: OrthogonalArray) -> tuple[NestedFamily, NestedFamily]:
    """The nested difference-matrix family of D (the outer-first enumeration
    times the layer-1 transversal, its row blocks the Delta blocks) and the
    nested/sliced family of A (+) D in D-row-major order; both records share
    one list of reports.  A is checked at its claimed strength, at least 2,
    and so are the sliced claims; the nested claims stay at strength 2."""
    tower = _require_tower(chain)
    s = tower.sizes
    s_top = s[-1]
    if a.levels != s_top:
        raise SpecError(f"input array must use {s_top} levels, has {a.levels}")
    if a.matrix.owner != tower.field:
        raise SpecError("input array is not over this chain's field")
    inputs = tower.oracle_inputs()
    t = max(a.strength, 2)
    reports = _require(a.matrix, [Claim("oa", "ndm-product input", strength=t)], **inputs)
    fld = tower.field
    t1 = tower.transversal_codes(1)
    _require_cells(a.n * s_top, a.m * len(t1))  # A (+) D
    d = GroupMatrix(
        [tuple(fld.mul[v][t] for t in t1) for v in tower.ordered_codes("outer-first")], fld
    )
    a_plus_d = kron_sum(a.matrix, d)
    n, nd = a.n, d.n_rows
    # D-row-major: A (+) d_w for each row d_w of D in turn, i.e. row a*nd + w
    # of a_plus_d becomes row w*n + a
    combined = GroupMatrix([r for w in range(nd) for r in a_plus_d.code_rows[w::nd]], fld)
    layers = tower.layers
    all_layers = tuple(range(1, layers + 1))
    dm = NestedFamily(tower, d, Claim("nested-dm", "I-layer ndm", tuple(s), all_layers),
                      verification=reports)
    noa = NestedFamily(tower, combined, Claim("nested", "I-layer noa", tuple(n * si for si in s),
                                              all_layers), verification=reports)

    # D and the full-size OA
    reports += _require(d, [Claim("dm", "D")], **inputs)
    reports += _require(a_plus_d, [Claim("oa", "A(+)D")], **inputs)
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
    d_claims.append(dm.nested)
    reports += _require(d, d_claims, **inputs)
    # the combined array in blocks A (+) Delta^i_l collapsed by rho_j, and
    # its two-layer and I-layer nests
    combined_claims = []
    for i in range(1, layers):
        for j in range(1, i + 1):
            noa.sliced.append(Claim("sliced", f"sliced A(+)Delta^{i} via rho_{j}", layers=(j,),
                                    strength=t, size=n * s[i - 1]))
            combined_claims.append(noa.sliced[-1])
            combined_claims += [
                Claim("nested",
                      f"two-layer noa (A(+)Delta({i},{blocks}), A(+)D; rho_{j}, rho_{layers})",
                      (blocks * s[i - 1] * n, combined.n_rows), (j, layers))
                for blocks in range(1, s_top // s[i - 1])
            ]
    combined_claims.append(noa.nested)
    reports += _require(combined, combined_claims, **inputs)
    return dm, noa


def _check_kron_inputs(
    chain: GroupChain, items: Sequence, require_zero_rows: bool
) -> list[VerificationReport]:
    """Check that the chain's layers strictly grow and that input i is over
    transversal i (starting with a zero row where prefix nesting needs one),
    then run each input's own oracle."""
    if not items:
        raise SpecError(f"need one input per chain layer ({chain.layers}), got none")
    what = "difference matrix" if isinstance(items[0], DifferenceMatrix) else "array"
    if len(items) != chain.layers:
        raise SpecError(
            f"need one {what} per chain layer ({chain.layers}), got {len(items)}"
        )
    if any(b <= a for a, b in zip(chain.sizes, chain.sizes[1:])):
        raise SpecError(f"chain layer sizes {list(chain.sizes)} do not strictly increase")
    for i, item in enumerate(items, start=1):
        if item.matrix.n_cols != items[0].matrix.n_cols:
            raise SpecError("column counts differ across inputs")
        if item.matrix.owner != chain.group or not {
            c for row in item.matrix.code_rows for c in row
        } <= set(chain.transversal_codes(i)):
            raise SpecError(f"{what} {i} uses entries outside transversal {i}")
        if require_zero_rows and i >= 2 and any(item.matrix.code_rows[0]):
            raise SpecError(
                f"{what} {i} must start with an all-zero row for prefix nesting"
            )
    reports = []
    for i, item in enumerate(items, start=1):
        codes = chain.transversal_codes(i)
        claim = (Claim("dm", f"input D_{i}") if isinstance(item, DifferenceMatrix)
                 else Claim("oa", f"input A_{i}", strength=item.strength))
        reports += _require(item.matrix, [claim], levels=[len(codes)], element_sets=[codes],
                            subtract=chain.group.sub_codes)
    return reports


def _kron_tower(mats: Sequence[GroupMatrix], name: str) -> list[GroupMatrix]:
    """T_1 = M_1 and T_i = M_i (+c) T_{i-1}; each T_i must be a row prefix of
    the top T_I.  Returns T_1, ..., T_I."""
    _require_cells(prod(m.n_rows for m in mats), mats[0].n_cols)
    tops = [mats[0]]
    for m in mats[1:]:
        tops.append(col_kron_sum(m, tops[-1]))
    for i, t in enumerate(tops, start=1):
        if t.code_rows != tops[-1].code_rows[: t.n_rows]:
            raise VerificationFailure(f"{name}_{i} is not a prefix of the top matrix")
    return tops


def construct_noa_kron_multi(
    arrays: Sequence[OrthogonalArray], chain: GroupChain
) -> NestedFamily:
    """B_i = A_i (+c) ... (+c) A_1 for inputs over the chain's transversals.

    Every input beyond the first must start with an all-zero row so that
    each B_i is literally a row prefix of B_{i+1}.
    """
    reports = _check_kron_inputs(chain, arrays, require_zero_rows=True)
    tops = _kron_tower([a.matrix for a in arrays], "B")
    return _noa_family(chain, tops[-1], tuple(t.n_rows for t in tops),
                       min(a.strength for a in arrays), reports)


def construct_soa_kron(
    a2: OrthogonalArray, a1: OrthogonalArray, chain: GroupChain
) -> NestedFamily:
    """B = A_2 (+c) A_1: a sliced array in blocks of A_1's run size (collapsed
    by rho_1) whose first l blocks, l = 1, ..., |A_2| - 1, nest in B.  The
    record's `nested` claim is the first of these, B^1 in B.

    Unlike the multi-layer variant, A_2 need not start with a zero row: the
    nesting claims here are about prefixes of B itself.
    """
    if chain.layers != 2:
        raise SpecError("construct_soa_kron needs a two-layer chain")
    reports = _check_kron_inputs(chain, [a1, a2], require_zero_rows=False)
    strength = min(a1.strength, a2.strength)
    _require_cells(a2.n * a1.n, a1.m)
    top = col_kron_sum(a2.matrix, a1.matrix)
    size = a1.matrix.n_rows
    soa = Claim("sliced", "B slices", layers=(1,), strength=strength, size=size)
    nests = [Claim("nested", f"two-layer noa (B^{l}, B)", (l * size, top.n_rows), (1, 2), strength)
             for l in range(1, a2.matrix.n_rows)]
    reports += _require(top, [Claim("oa", "B", strength=strength), soa, *nests],
                        **chain.oracle_inputs())
    return NestedFamily(chain, top, nests[0], [soa], reports)


def construct_ndm_kron(dms: Sequence[DifferenceMatrix], chain: GroupChain) -> NestedFamily:
    """E_i = D_i (+c) ... (+c) D_1 for difference matrices over the chain's
    transversals; verified as a nested difference-matrix tower with slices."""
    reports = _check_kron_inputs(chain, dms, require_zero_rows=True)
    tops = _kron_tower([dm.matrix for dm in dms], "E")
    top, stops = tops[-1], tuple(t.n_rows for t in tops)
    out = NestedFamily(chain, top, Claim("nested-dm", rows=stops,
                                         layers=tuple(range(1, chain.layers + 1))),
                       verification=reports)
    claims = [out.nested]
    for i in range(1, chain.layers):
        claims += _delta_claims(i, stops[i - 1], top.n_rows // stops[i - 1])
    reports += _require(top, claims, **chain.oracle_inputs())
    return out
