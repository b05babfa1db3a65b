import random
import re
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import RELABELED_NESTED_M3, RELABELED_SLICED_M, QUAL_OA_16_RUNS, code_of
from nestfill.arrays import (DifferenceMatrix, construct_from_ndm, construct_ndm_kron,
                             construct_noa_rh, rao_hamming_oa)
from nestfill.errors import Claim, NestedFamily, SpecError
from nestfill.galois import Field
from nestfill.groups import Zn, chain_field_tower, chain_omega_ring, chain_subfield_tower
from nestfill.kronecker import GroupMatrix
from nestfill.spacefill import (
    _stream,
    build_nsfd,
    build_ssfd_grouped,
    build_ssfd_multi,
    compose_qual_quant,
    gen_nested_permutation,
    gen_sliced_permutation,
    is_nested_permutation,
    is_sliced_permutation,
    oa_based_lh,
)
from nestfill.verify import check_claims, check_latin_hypercube, check_stratification

NESTED_PERMS = [(4, 1, 2, 7, 6, 5, 3, 0), (5, 2, 0, 7, 3, 4, 1, 6), (2, 6, 1, 4, 3, 5, 7, 0)]
SLICED_PERMS = [(0, 1, 2, 3, 7, 6, 5, 4), (7, 6, 5, 4, 1, 0, 2, 3), (0, 1, 3, 2, 4, 5, 7, 6)]
LAYERS = (2, 4, 8)


@pytest.fixture(scope="module")
def rh_family():
    return construct_noa_rh(chain_field_tower(2, [1, 2, 3]), 2)


@pytest.mark.parametrize("build", [
    lambda fam: build_nsfd(fam, NESTED_PERMS, stage="lift"),
    lambda fam: build_ssfd_multi(fam, SLICED_PERMS, stage="lift"),
    lambda fam: build_ssfd_grouped(fam, i=2, j=1, stage="lift"),
], ids=["nested", "sliced", "grouped"])
def test_unknown_stage_rejected(rh_family, build):
    with pytest.raises(SpecError, match="unknown stage 'lift'"):
        build(rh_family)


class TestPermutationValidators:
    def test_reference_nested_perms_valid(self):
        for p in NESTED_PERMS:
            assert is_nested_permutation(p, LAYERS)

    def test_identity_is_not_nested_here(self):
        # first two entries 0,1 share the coarse block {0..3}
        assert not is_nested_permutation(tuple(range(8)), LAYERS)

    def test_reference_sliced_perms_valid(self):
        for p in SLICED_PERMS:
            assert is_sliced_permutation(p, LAYERS)

    def test_identity_is_sliced(self):
        assert is_sliced_permutation(tuple(range(8)), LAYERS)

    def test_nested_perm_fails_sliced_check(self):
        # positions 1-4 map to {4,1,2,7}: not one width-4 block
        assert not is_sliced_permutation(NESTED_PERMS[0], LAYERS)

    def test_non_permutation_rejected(self):
        assert not is_nested_permutation((0, 0, 1, 2, 3, 4, 5, 6), LAYERS)
        assert not is_sliced_permutation((0, 0, 1, 2, 3, 4, 5, 6), LAYERS)

    def test_bad_layer_sizes(self):
        with pytest.raises(SpecError):
            is_nested_permutation(tuple(range(8)), (3, 8))  # 3 does not divide 8

    def test_generator_refuses_non_increasing_layer_sizes(self):
        with pytest.raises(SpecError,
                           match=r"^layer sizes must be strictly increasing, got \[4, 2\]$"):
            gen_nested_permutation((4, 2), 0)

    def test_validators_match_first_principles_definitions(self):
        from itertools import permutations as iperms

        def nested_def(p, sizes):
            top = sizes[-1]
            return all(
                sorted(p[t] * s // top for t in range(s)) == list(range(s))
                for s in sizes
            )

        def sliced_def(p, sizes):
            top = sizes[-1]
            for s in sizes[:-1]:
                q = top // s
                for g in range(s):
                    block = set(p[g * q : (g + 1) * q])
                    if not any(
                        block == set(range(d * q, (d + 1) * q)) for d in range(s)
                    ):
                        return False
            return True

        for p in iperms(range(4)):
            assert is_nested_permutation(p, (2, 4)) == nested_def(p, (2, 4))
            assert is_sliced_permutation(p, (2, 4)) == sliced_def(p, (2, 4))


def _nested_permutation_reference(layer_sizes, seed, tag="np"):
    """The greedy draw as first written: at every position it rebuilds the
    candidate list over all top values (O(top^2) a permutation)."""
    sizes = tuple(layer_sizes)
    top = sizes[-1]
    rng = _stream(seed, tag)
    values = []
    for t in range(1, top + 1):
        i0 = next(s for s in sizes if s >= t)
        q = top // i0
        used = {v // q for v in values}
        candidates = [v for v in range(top) if v // q not in used]
        values.append(rng.choice(candidates))
    return tuple(values)


# the layer sizes of every golden case's chain, and a deeper 5^3 tower
_GOLDEN_SIZES = sorted({chain.sizes for chain in (
    chain_field_tower(2, [1, 2, 3]), chain_field_tower(2, [1, 2]), chain_subfield_tower(2, [1, 2]),
    chain_omega_ring([Field(2, 2), Zn(3), Zn(2)]), chain_omega_ring([Zn(6), Zn(2)]),
    chain_omega_ring([Zn(2), Zn(2)]), chain_omega_ring([Zn(5)] * 3))})


class TestGenerators:
    @pytest.mark.parametrize("sizes", _GOLDEN_SIZES, ids=str)
    def test_nested_generator_keeps_its_draws(self, sizes):
        """Rebuilding the candidates once a layer leaves every draw as it was."""
        for seed in range(6):
            for tag in ("np", "np:3"):
                assert (gen_nested_permutation(sizes, seed, tag)
                        == _nested_permutation_reference(sizes, seed, tag))

    @pytest.mark.parametrize("seed", range(25))
    def test_nested_generator_validity(self, seed):
        p = gen_nested_permutation(LAYERS, seed)
        assert type(p) is tuple and is_nested_permutation(p, LAYERS)

    @pytest.mark.parametrize("seed", range(25))
    def test_sliced_generator_validity(self, seed):
        p = gen_sliced_permutation(LAYERS, seed)
        assert type(p) is tuple and is_sliced_permutation(p, LAYERS)

    @pytest.mark.parametrize("sizes", [(2, 4), (3, 6, 12), (2, 4, 8, 16), (4, 8)])
    def test_generators_other_layer_shapes(self, sizes):
        for seed in range(5):
            assert is_nested_permutation(gen_nested_permutation(sizes, seed), sizes)
            assert is_sliced_permutation(gen_sliced_permutation(sizes, seed), sizes)

    def test_determinism(self):
        a = gen_nested_permutation(LAYERS, 7)
        b = gen_nested_permutation(LAYERS, 7)
        assert a == b
        c = gen_sliced_permutation(LAYERS, 7)
        d = gen_sliced_permutation(LAYERS, 7)
        assert c == d

    def test_seeds_vary_output(self):
        outs = {gen_nested_permutation(LAYERS, s) for s in range(20)}
        assert len(outs) > 1


class TestOaBasedLh:
    def test_q_one_is_identity(self):
        rows = [[0, 1], [1, 0]]
        assert oa_based_lh(rows, 2, seed=3) == rows

    def test_single_column_identity(self):
        assert oa_based_lh([[0], [1]], 2, seed=9) == [[0], [1]]

    def test_floor_identity_and_lh_validity(self, rh_family):
        out = build_nsfd(rh_family, NESTED_PERMS, seed=11)
        n, s = 64, 8
        assert check_latin_hypercube(out.lifted).passed
        q = n // s
        for drow, lrow in zip(out.design, out.lifted):
            assert [v // q for v in lrow] == drow

    def test_unbalanced_column_rejected(self):
        with pytest.raises(SpecError):
            oa_based_lh([[0, 0], [0, 1]], 2, seed=0)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(SpecError):
            oa_based_lh([[5], [0]], 2, seed=0)

    def test_seed_determinism(self):
        rows = [[0], [0], [1], [1]]
        assert oa_based_lh(rows, 2, seed=4) == oa_based_lh(rows, 2, seed=4)


class TestNsfd:
    def test_relabel_matches_reference(self, rh_family):
        out = build_nsfd(rh_family, NESTED_PERMS, stage="relabel-only")
        assert [tuple(r) for r in out.design] == RELABELED_NESTED_M3
        assert out.lifted is None

    def test_spot_rows(self, rh_family):
        out = build_nsfd(rh_family, NESTED_PERMS, stage="relabel-only")
        assert tuple(out.design[0]) == (4, 5, 2)
        assert tuple(out.design[32]) == (6, 5, 3)

    def test_full_lift_stratifies_prefixes(self, rh_family):
        out = build_nsfd(rh_family, NESTED_PERMS, seed=7)
        for i, g in [(1, 2), (2, 4), (3, 8)]:
            prefix = out.lifted[: 4**i]
            rep = check_stratification(prefix, scale=64, g=g)
            assert rep.passed, (i, rep.message())

    def test_wrong_perm_count(self, rh_family):
        with pytest.raises(SpecError, match=r"^need one permutation per column \(3\), got 2$"):
            build_nsfd(rh_family, NESTED_PERMS[:2])

    def test_wrong_layer_sizes(self, rh_family):
        p = gen_nested_permutation((2, 4), 0)
        with pytest.raises(SpecError, match=rf"^{re.escape(str(list(p)))} is not a nested "
                                            r"permutation for layers \[2, 4, 8\]$"):
            build_nsfd(rh_family, [p, p, p])

    def test_sliced_permutations_refused(self, rh_family):
        """Each lift checks every permutation by value against its chain: the
        nested lift refuses the sliced reference permutations and the
        identity, and the sliced lift refuses the nested ones."""
        for build, perms, kind in ((build_nsfd, SLICED_PERMS, "nested"),
                                   (build_nsfd, [tuple(range(8))] * 3, "nested"),
                                   (build_ssfd_multi, NESTED_PERMS, "sliced")):
            bad = re.escape(str(list(perms[0])))
            with pytest.raises(SpecError, match=rf"^{bad} is not a {kind} permutation "
                                                r"for layers \[2, 4, 8\]$"):
                build(rh_family, perms)

    @pytest.mark.parametrize("build, kind, values", [
        (build_nsfd, "nested", [0, 2, 1, 3]),
        (build_ssfd_multi, "sliced", [0, 1, 3, 2]),
    ], ids=["nested", "sliced"])
    def test_non_integer_values_refused(self, build, kind, values):
        """A permutation holds integers: the same values as floats, or with
        bools for 0 and 1, are refused as no permutation, while the integer
        values lift."""
        family = construct_noa_rh(chain_field_tower(2, [1, 2]), 2)
        build(family, [values] * 3, stage="relabel-only")
        for bad in ([float(v) for v in values], [{0: False, 1: True}.get(v, v) for v in values]):
            with pytest.raises(SpecError, match=rf"^{re.escape(str(bad))} is not a {kind} "
                                                r"permutation for layers \[2, 4\]$"):
                build(family, [bad] * 3, stage="relabel-only")

    def test_single_layer_relabel_is_bijective_recoding(self):
        family = construct_noa_rh(chain_field_tower(2, [2]), 2)
        perm = gen_nested_permutation((4,), seed=1)
        out = build_nsfd(family, [perm] * 3, stage="relabel-only")
        # one layer: the relabel permutes levels and nothing else
        recoded = {
            (c, v) for row_a, row_m in zip(family.top.code_rows, out.design)
            for c, v in zip(row_a, row_m)
        }
        assert len(recoded) == 4
        assert sorted(v for _, v in recoded) == [0, 1, 2, 3]


def test_nested_lift_refuses_prefix_outside_its_layer():
    """The A(+)D nest of `construct_from_ndm` exists only through collapses:
    its layer-1 prefix holds higher-layer codes, so the nested lift refuses
    it and the sliced and grouped lifts, which key on collapses, take it."""
    chain = chain_field_tower(2, [1, 2, 3])
    _, family = construct_from_ndm(chain, rao_hamming_oa(chain.field, chain.layer_codes(3), 2))
    m = family.top.n_cols
    nested = [gen_nested_permutation(chain.sizes, 0, tag=c) for c in range(m)]
    with pytest.raises(SpecError, match=r"^row 1 of the layer-1 prefix holds code 2 \(x\), "
                                        r"which is not in layer 1$"):
        build_nsfd(family, nested)
    sliced = [gen_sliced_permutation(chain.sizes, 0, tag=c) for c in range(m)]
    assert build_ssfd_multi(family, sliced).n == family.top.n_rows
    assert build_ssfd_grouped(family, i=2, j=1).n == family.top.n_rows


@pytest.mark.parametrize("build", [
    lambda fam: build_nsfd(fam, [(0, 2, 1, 3)]),
    lambda fam: build_ssfd_multi(fam, [(0, 0)]),
    lambda fam: build_ssfd_grouped(fam, i=3, j=1),
], ids=["nested", "sliced", "grouped"])
def test_full_lift_refuses_strength_1(build):
    """A strength-1 nested OA stratifies no 2-D grid, so every builder
    refuses its full lift with the CLI's line, before it reads the
    permutations or the layers (each given here is itself refused)."""
    chain = chain_field_tower(2, [1, 2])
    rows = [[0, 0], [1, 1], [2, 2], [3, 3]]
    claim = Claim("nested", rows=(2, 4), layers=(1, 2), strength=1)
    assert all(check_claims(rows, [claim], **chain.oracle_inputs()))
    family = NestedFamily(chain, GroupMatrix(rows, chain.group), claim)
    with pytest.raises(SpecError, match=r"^a full lift claims 2-D grids, which an array of "
                                        r"strength 1 does not stratify$"):
        build(family)



def _dm_families():
    """The difference-matrix families of `construct_from_ndm` (with its A (+) D
    family) and of `construct_ndm_kron` (golden example 3)."""
    tower = chain_field_tower(2, [1, 2])
    dm, product = construct_from_ndm(tower, rao_hamming_oa(tower.field, tower.layer_codes(2), 2))
    ring = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    mk = lambda rows: DifferenceMatrix(
        GroupMatrix([[code_of(ring, t) for t in r] for r in rows], ring.group))
    kron = construct_ndm_kron([
        mk([("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")]),
        mk([("0", "0", "0"), ("0", "w", "2w"), ("0", "2w", "w")]),
        mk([("0", "0", "0"), ("0", "0", "w2"), ("0", "w2", "0"), ("0", "w2", "w2")])], ring)
    return dm, kron, product


@pytest.mark.parametrize("stage", ["full", "relabel-only"])
@pytest.mark.parametrize("build", [
    lambda fam, stage: build_nsfd(fam, stage=stage),
    lambda fam, stage: build_ssfd_multi(fam, stage=stage),
    lambda fam, stage: build_ssfd_grouped(fam, i=1, j=1, stage=stage),
], ids=["nested", "sliced", "grouped"])
def test_lift_refuses_a_difference_matrix_family(build, stage):
    """A nested-DM family is not an orthogonal array, so each `build_*` lift
    refuses it at both stages with one line naming the cause; the A (+) D
    family built beside one still lifts."""
    dm, kron, product = _dm_families()
    for family in (dm, kron):
        assert family.nested.kind == "nested-dm"
        with pytest.raises(SpecError, match=r"^cannot lift a difference-matrix family; "
                                            r"lifting needs an orthogonal-array family$"):
            build(family, stage)
    assert build_ssfd_multi(product, stage=stage).n == product.top.n_rows
    assert build_ssfd_grouped(product, i=1, j=1, stage=stage).n == product.top.n_rows


class TestSsfdMulti:
    def test_relabel_matches_reference(self, rh_family):
        out = build_ssfd_multi(rh_family, SLICED_PERMS, stage="relabel-only")
        assert [tuple(r) for r in out.design] == RELABELED_SLICED_M
        assert tuple(out.design[0]) == (0, 7, 0)
        assert tuple(out.design[40]) == (3, 7, 2)

    def test_identity_perms_give_inner_first_recoding(self, rh_family):
        chain = rh_family.chain
        ident = tuple(range(8))
        out = build_ssfd_multi(rh_family, [ident] * 3, stage="relabel-only")
        pos = {c: r for r, c in enumerate(chain.ordered_codes("inner-first"))}
        expected = [[pos[c] for c in row] for row in rh_family.top.code_rows]
        assert out.design == expected

    def test_full_lift_slices_stratify(self, rh_family):
        out = build_ssfd_multi(rh_family, SLICED_PERMS, seed=3)
        s = out.lifted
        for i, g in [(1, 2), (2, 4)]:
            size = 4**i
            for l in range(64 // size):
                block = s[l * size : (l + 1) * size]
                rep = check_stratification(block, scale=64, g=g)
                assert rep.passed, (i, l, rep.message())
        assert check_stratification(s, scale=64, g=8).passed


class TestSsfdGrouped:
    def test_group_relabel_default_order(self, rh_family):
        out = build_ssfd_grouped(rh_family, i=1, j=1, stage="relabel-only")
        # codes {0,2,4,6} form group 0, {1,3,5,7} group 1; ascending inside
        first = rh_family.top.code_rows[0]
        assert out.design[0] == [0, 0, 0]
        # row 2 of the top array is (0, 1, 1): level 1 leads group 1
        assert out.design[1] == [0, 4, 4]

    def test_pinned_group_order_matches_reference_scheme(self, rh_family):
        chain = rh_family.chain
        order = [code_of(chain.field, t) for t in ("0", "x", "1", "x+1")]
        out = build_ssfd_grouped(rh_family, i=2, j=2, group_order=order, stage="relabel-only")
        # collapse groups land on {0,1},{2,3},{4,5},{6,7} in the pinned order
        label_of = {}
        for row_a, row_m in zip(rh_family.top.code_rows, out.design):
            for c, v in zip(row_a, row_m):
                label_of[chain.field.text_code(c)] = v
        assert {label_of["0"], label_of["x^2"]} == {0, 1}
        assert {label_of["x"], label_of["x^2+x"]} == {2, 3}
        assert {label_of["1"], label_of["x^2+1"]} == {4, 5}
        assert {label_of["x+1"], label_of["x^2+x+1"]} == {6, 7}

    def test_sliced_stratification_each_granularity(self, rh_family):
        for i, j, g in [(1, 1, 2), (2, 2, 4)]:
            out = build_ssfd_grouped(rh_family, i=i, j=j, seed=5)
            size = 4**i
            for l in range(64 // size):
                block = out.lifted[l * size : (l + 1) * size]
                assert check_stratification(block, scale=64, g=g).passed
            assert check_stratification(out.lifted, scale=64, g=8).passed

    def test_degenerate_full_resolution(self, rh_family):
        out = build_ssfd_grouped(rh_family, i=3, j=3, stage="relabel-only")
        # relabeling by the top layer is a plain bijective recoding
        assert sorted({v for row in out.design for v in row}) == list(range(8))

    def test_invalid_layers(self, rh_family):
        with pytest.raises(SpecError):
            build_ssfd_grouped(rh_family, i=1, j=2)
        with pytest.raises(SpecError):
            build_ssfd_grouped(rh_family, i=4, j=1)

    def test_group_order_must_cover_layer(self, rh_family):
        with pytest.raises(SpecError):
            build_ssfd_grouped(rh_family, i=1, j=1, group_order=[0, 0])


@st.composite
def layer_chains(draw):
    # strictly increasing sizes, each dividing the next
    sizes = [draw(st.integers(2, 4))]
    for _ in range(draw(st.integers(0, 2))):
        sizes.append(sizes[-1] * draw(st.integers(2, 3)))
    return tuple(sizes)


@settings(max_examples=60, deadline=None)
@given(layer_chains(), st.integers(0, 10_000))
def test_generators_valid_on_random_layer_chains(sizes, seed):
    assert is_nested_permutation(gen_nested_permutation(sizes, seed), sizes)
    assert is_sliced_permutation(gen_sliced_permutation(sizes, seed), sizes)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_lh_lift_properties_random_balanced_columns(s, q, m, seed):
    # build a random column-balanced design, lift it, check the contracts
    rng = random.Random(seed)
    n = s * q
    cols = []
    for _ in range(m):
        col = [r for r in range(s) for _ in range(q)]
        rng.shuffle(col)
        cols.append(col)
    rows = [[cols[c][r] for c in range(m)] for r in range(n)]
    out = oa_based_lh(rows, s, seed)
    for j in range(m):
        assert sorted(row[j] for row in out) == list(range(n))
    for row_in, row_out in zip(rows, out):
        assert [v // q for v in row_out] == row_in


# the row-wise lift as it was before it shared one list(range(n)) between
# its columns: the reference the column-wise lift must equal
def _ref_oa_based_lh(rows: Sequence[Sequence[int]], s: int, seed, tag="lh") -> list[list[int]]:
    """Expand each level r of each column into the value block
    [r*q, (r+1)*q) via a per-column uniform shuffle, q = n/s.

    Every column must carry each level exactly q times; the result has each
    column a permutation of 0..n-1 and floor(out*s/n) == rows entry-wise.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0 or n % s:
        raise SpecError(f"run size {n} is not a multiple of the level count {s}")
    q = n // s
    m = len(rows[0])
    out = [[0] * m for _ in range(n)]
    for col in range(m):
        positions: dict[int, list[int]] = {r: [] for r in range(s)}
        for idx in range(n):
            v = rows[idx][col]
            if v not in positions:
                raise SpecError(f"column {col} holds level {v} outside 0..{s - 1}")
            positions[v].append(idx)
        bad = next((r for r, p in positions.items() if len(p) != q), None)
        if bad is not None:
            raise SpecError(
                f"column {col} is unbalanced: level {bad} occurs "
                f"{len(positions[bad])} times, expected {q}"
            )
        rng = _stream(seed, tag, col)
        for r in range(s):
            block = list(range(r * q, (r + 1) * q))
            rng.shuffle(block)
            for idx, value in zip(positions[r], block):
                out[idx][col] = value
    return out



@st.composite
def lift_cases(draw):
    """A column-balanced design over s levels, or one broken by up to two
    faults: a level out of range, an unbalanced column, a run size s does not
    divide."""
    s, q, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = s * q
    cols = [draw(st.permutations([r for r in range(s) for _ in range(q)])) for _ in range(m)]
    rows = [[cols[c][r] for c in range(m)] for r in range(n)]
    for fault in draw(st.lists(st.sampled_from(["out-of-range", "unbalanced", "run-size"]),
                               max_size=2)):
        if not rows:
            break
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, m - 1))
        if fault == "out-of-range":
            rows[row][col] = draw(st.sampled_from([-1, s, s + 3]))
        elif fault == "unbalanced" and s > 1:
            rows[row][col] = (rows[row][col] + draw(st.integers(1, s - 1))) % s
        elif fault == "run-size" and len(rows) == n:
            rows.pop()
    return rows, s


def _outcome(lift, rows, s, seed):
    try:
        return lift(rows, s, seed)
    except SpecError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(lift_cases(), st.integers(0, 10_000))
def test_lift_equals_row_wise_reference(case, seed):
    """The same values, or the same refusal with the same message, as the
    row-wise lift."""
    rows, s = case
    copy = [list(r) for r in rows]
    assert _outcome(oa_based_lh, rows, s, seed) == _outcome(_ref_oa_based_lh, rows, s, seed)
    assert rows == copy  # the input is read, not changed


def test_lift_holds_one_int_object_per_value():
    """All columns of an n-run lift share n int objects, above the interpreter's
    small-int cache (n > 256) too."""
    n, s = 512, 4
    rows = [[r % s, (r // s) % s, (r * 3 + 1) % s] for r in range(n)]
    out = oa_based_lh(rows, s, seed=5)
    assert out == _ref_oa_based_lh(rows, s, seed=5)
    assert len({id(v) for r in out for v in r}) == n


class TestCompose:
    def test_reference_composition_qualitative_columns(self, rh_family):
        lifted = build_ssfd_multi(rh_family, SLICED_PERMS, seed=1)
        combined = compose_qual_quant(lifted.lifted, 4, QUAL_OA_16_RUNS)
        assert len(combined) == 64 and len(combined[0]) == 9
        for r in range(4):
            assert combined[r][3:] == [0, 0, 0, 0, 0, 0]
        for r in range(60, 64):
            assert combined[r][3:] == [1, 1, 0, 3, 3, 0]

    def test_single_slice_appends_constant(self):
        out = compose_qual_quant([[0], [1]], 2, [[9, 9]])
        assert out == [[0, 9, 9], [1, 9, 9]]

    def test_count_mismatch(self):
        with pytest.raises(SpecError):
            compose_qual_quant([[0], [1], [2], [3]], 2, [[0]])
