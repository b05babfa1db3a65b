import pytest

from golden import (
    KRON_NDM_GF4_Z3_Z2,
    KRON_SOA_INPUT_A1,
    KRON_SOA_INPUT_A2,
    RH_NOA_P2_U123_K2,
)
from nestfill.arrays import (
    DifferenceMatrix,
    NestedFamily,
    OrthogonalArray,
    build_h_tower,
    bush_matrix,
    construct_from_ndm,
    construct_ndm_kron,
    construct_noa_bush,
    construct_noa_kron_multi,
    construct_noa_rh,
    construct_noa_subfield,
    construct_soa_kron,
    full_factorial,
    generator_matrix,
    rao_hamming_oa,
)
from nestfill.errors import SpecError, VerificationFailure
from nestfill.galois import Field
from nestfill.groups import Zn, chain_field_tower, chain_omega_ring, chain_subfield_tower
from nestfill.kronecker import GroupMatrix, col_kron_sum, kron_sum
from nestfill.verify import check_difference_matrix, check_oa_strength


def element_texts(matrix):
    return [tuple(map(matrix.owner.text_code, row)) for row in matrix.code_rows]


@pytest.fixture(scope="module")
def tower_238():
    return chain_field_tower(2, [1, 2, 3])


@pytest.fixture(scope="module")
def rh_family(tower_238):
    return construct_noa_rh(tower_238, 2)


class TestGeneratorMatrix:
    def test_default_gf2_k2(self):
        gen = generator_matrix(Field(2, 1), [0, 1], 2)
        assert gen.codes == ((1, 0), (0, 1), (1, 1))

    def test_default_gf2_k3_column_multiset(self):
        gen = generator_matrix(Field(2, 1), [0, 1], 3)
        assert gen.m == 7
        assert gen.codes[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        multiset = set(gen.codes)
        # all 7 nonzero binary vectors
        assert multiset == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)
        }

    def test_explicit_selection(self):
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        gen = generator_matrix(Field(2, 1), [0, 1], 3, cols)
        assert gen.m == 4

    def test_explicit_rejects_bad_first_nonzero(self):
        f = Field(2, 2)
        x = f.parse_code("x")
        with pytest.raises(SpecError):
            generator_matrix(f, range(4), 2, [(x, 0)])

    def test_explicit_rejects_duplicates(self):
        col = (1, 0)
        with pytest.raises(SpecError):
            generator_matrix(Field(2, 1), [0, 1], 2, [col, col])

    def test_explicit_rejects_entries_outside_the_base(self):
        """A coefficient of the field that is not in the base (here x over
        the GF(2) base of GF(4)) is refused naming its column and code."""
        f = Field(2, 2)
        with pytest.raises(SpecError, match=r"^generator column 2 \(codes 1,2\) has entry 2 "
                                            r"outside the generator base \{0,1\}$"):
            generator_matrix(f, [0, 1], 2, [(1, 0), (1, f.parse_code("x"))])

    def test_k_below_one(self):
        with pytest.raises(SpecError):
            generator_matrix(Field(2, 1), [0, 1], 0)

    def test_subfield_base_count(self):
        gen = generator_matrix(Field(2, 2), range(4), 2)
        assert gen.m == 5  # (16-1)/3


class TestHTower:
    def test_h1_rows(self, tower_238):
        h1 = build_h_tower(tower_238, 2)[0]
        assert element_texts(h1) == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
        ]

    def test_h2_block_order(self, tower_238):
        h2 = build_h_tower(tower_238, 2)[1]
        # rows 5, 9, 13 start the (0,x), (x,0), (x,x) blocks
        assert element_texts(h2)[4] == ("0", "x")
        assert element_texts(h2)[8] == ("x", "0")
        assert element_texts(h2)[12] == ("x", "x")

    def test_prefix_structure_and_zero_rows(self, tower_238):
        tower = build_h_tower(tower_238, 2)
        assert [h.n_rows for h in tower] == [4, 16, 64]
        for h in tower:
            assert all(c == 0 for c in h.code_rows[0])
        assert tower[2].code_rows[:16] == tower[1].code_rows
        assert tower[1].code_rows[:4] == tower[0].code_rows


class TestRaoHammingNoa:
    def test_reproduces_reference_table(self, rh_family):
        assert element_texts(rh_family.top) == RH_NOA_P2_U123_K2

    def test_spot_rows(self, rh_family):
        assert element_texts(rh_family.top)[4] == ("0", "x", "x")
        assert element_texts(rh_family.top)[32] == ("x^2", "0", "x^2")

    def test_first_layer_collapse(self, rh_family, tower_238):
        a1 = rh_family.top.code_rows[: rh_family.nested.rows[0]]
        rho1 = tower_238.projection_table(1)
        rows = [[rho1[c] for c in r] for r in a1]
        assert check_oa_strength(rows, 2, 2).passed

    def test_all_layer_collapses(self, rh_family, tower_238):
        for i, stop in enumerate(rh_family.nested.rows, start=1):
            for j in range(1, i + 1):
                rho = tower_238.projection_table(j)
                rows = [[rho[c] for c in r] for r in rh_family.top.code_rows[:stop]]
                rep = check_oa_strength(rows, 2**j, 2)
                assert rep.passed, (i, j, rep.message())

    def test_sliced_families_present(self, rh_family):
        sizes = {(f.size, f.layers[0]) for f in rh_family.sliced}
        assert sizes == {(4, 1), (16, 1), (16, 2)}

    def test_slices_partition_top(self, rh_family):
        top = rh_family.top
        for fam in rh_family.sliced:
            slices = [top.code_rows[l * fam.size : (l + 1) * fam.size]
                      for l in range(top.n_rows // fam.size)]
            rows = [r for sl in slices for r in sl]
            assert rows == list(top.code_rows)

    def test_families_without_sliced_claims_do_not_share_lists(self, rh_family):
        """A family built without `sliced` or `verification` gets new empty
        lists of its own, since constructions append to them; it equals a
        family of equal fields until one list changes."""
        a, b = (NestedFamily(rh_family.chain, rh_family.top, rh_family.nested) for _ in range(2))
        assert a == b and a.sliced is not b.sliced and a.verification is not b.verification
        a.sliced.append(rh_family.sliced[0])
        assert b.sliced == [] and a != b

    def test_block_identity_from_delta_vectors(self, rh_family, tower_238):
        # layer i rebuilds as (A_{i-1}; delta (+c) A_{i-1}) over the nonzero
        # transversal-tuple images
        from itertools import product as iproduct

        gen, stops, f = rh_family.generator, rh_family.nested.rows, tower_238.field
        for i in (2, 3):
            prev = GroupMatrix(rh_family.top.code_rows[: stops[i - 2]], f)
            rows = list(prev.code_rows)
            for beta in iproduct(tower_238.transversal_codes(i), repeat=2):
                if not any(beta):
                    continue
                delta = GroupMatrix([tuple(_dot(f, beta, col) for col in gen.codes)], f)
                rows += col_kron_sum(delta, prev).code_rows
            assert tuple(rows) == rh_family.top.code_rows[: stops[i - 1]]

    def test_strength3_from_selected_columns(self, tower_238):
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        fam = construct_noa_rh(tower_238, 3, cols)
        rep = check_oa_strength(fam.top.code_rows, 8, 3)
        assert rep.passed, rep.message()


def _dot(f, xs, ys):
    """The code of sum x*y over the paired codes of xs and ys in field f."""
    acc = 0
    for x, y in zip(xs, ys):
        acc = f.add[acc][f.mul[x][y]]
    return acc


class TestSubfieldNoa:
    def test_example_chain(self):
        chain = chain_subfield_tower(2, [2, 4])
        fam = construct_noa_subfield(chain, 2)
        assert fam.top.shape == (256, 5)
        assert check_oa_strength(fam.top.code_rows, 16, 2).passed
        rho1 = chain.projection_table(1)
        prefix = [[rho1[c] for c in r] for r in fam.top.code_rows[: fam.nested.rows[0]]]
        rep = check_oa_strength(prefix, 4, 2)
        assert rep.passed, rep.message()
        assert all(c == 0 for c in fam.top.code_rows[0])

    def test_layer_one_entries_stay_in_layer(self):
        chain = chain_subfield_tower(2, [2, 4])
        fam = construct_noa_subfield(chain, 2)
        layer1 = set(chain.layer_codes(1))
        assert all(c in layer1 for row in fam.top.code_rows[: fam.nested.rows[0]] for c in row)

    def test_divisibility_enforced(self):
        with pytest.raises(SpecError):
            chain_subfield_tower(2, [2, 3])

    def test_degree_filtered_chain_rejected(self):
        # layer 1 of the degree-filtered tower is not multiplicatively closed
        with pytest.raises(SpecError):
            construct_noa_subfield(chain_field_tower(2, [2, 4]), 2)


class TestBushNoa:
    def test_v_matrix_small(self):
        chain = chain_field_tower(2, [1, 2])
        gen = bush_matrix(chain, 2)
        assert gen.codes == ((1, 0), (1, 1), (0, 1))

    def test_strength_two_case(self):
        fam = construct_noa_bush(chain_field_tower(2, [1, 2]), 2)
        a1 = fam.top.code_rows[: fam.nested.rows[0]]
        assert (len(a1), len(a1[0])) == (4, 3)
        assert check_oa_strength(a1, 2, 2).passed

    def test_strength_three_case(self):
        chain = chain_field_tower(3, [1, 2])
        fam = construct_noa_bush(chain, 3)
        assert fam.top.shape == (729, 4)
        assert check_oa_strength(fam.top.code_rows[: fam.nested.rows[0]], 3, 3).passed
        assert check_oa_strength(fam.top.code_rows, 9, 3).passed

    def test_zero_row_maps_to_zero(self):
        fam = construct_noa_bush(chain_field_tower(2, [1, 2]), 2)
        # the all-zero input row hits the (0,...,0,1) column with zero too
        assert fam.top.code_rows[0] == (0,) * fam.top.n_cols

    def test_s1_too_small(self):
        with pytest.raises(SpecError):
            construct_noa_bush(chain_field_tower(2, [1, 2]), 4)

    def test_divisibility_enforced(self):
        # a field tower with u_1 = 2: its layer 1 is not closed under multiplication
        with pytest.raises(SpecError, match="field tower with u_1 = 1"):
            construct_noa_bush(chain_field_tower(2, [2, 3]), 2)


@pytest.mark.parametrize(
    "p,u,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3)]
)
def test_rao_hamming_small_fields(p, u, k):
    oa = rao_hamming_oa(Field(p, u), range(p**u), k)
    assert oa.n == (p**u) ** k
    assert oa.m == ((p**u) ** k - 1) // (p**u - 1)


@pytest.fixture(scope="module")
def bundle():
    chain = chain_field_tower(2, [1, 2])
    a = rao_hamming_oa(chain.field, chain.layer_codes(2), 2)
    return chain, a, *construct_from_ndm(chain, a)


class TestNdmProduct:
    def test_d_shape_and_content(self, bundle):
        chain, _, dm, _ = bundle
        assert dm.top.shape == (4, 2)
        column = lambda j: [chain.field.text_code(r[j]) for r in dm.top.code_rows]
        assert column(0) == ["0", "0", "0", "0"]
        assert column(1) == ["0", "1", "x", "x+1"]
        assert check_difference_matrix(dm.top.code_rows, chain.layer_codes(2),
                                       chain.field.sub_codes).passed

    def test_delta_blocks(self, bundle):
        chain, _, dm, _ = bundle
        size = dm.nested.rows[0]
        assert size == 2
        rho1 = chain.projection_table(1)
        rows = [[rho1[c] for c in r] for r in dm.top.code_rows[:size]]
        assert check_difference_matrix(rows, chain.layer_codes(1), chain.field.sub_codes).passed

    def test_a_plus_d_strength(self, bundle):
        _, a, dm, _ = bundle
        a_plus_d = kron_sum(a.matrix, dm.top)
        assert a_plus_d.shape == (64, 10)
        assert check_oa_strength(a_plus_d.code_rows, 4, 2).passed

    def test_combined_is_row_permutation(self, bundle):
        _, a, dm, out = bundle
        assert sorted(out.top.code_rows) == sorted(kron_sum(a.matrix, dm.top).code_rows)

    def test_nested_layers_are_prefixes(self, bundle):
        *_, out = bundle
        assert out.nested.rows == (32, 64)
        assert out.top.n_rows == out.nested.rows[-1]

    def test_rejects_wrong_level_input(self, bundle):
        chain, *_ = bundle
        bad = rao_hamming_oa(Field(2, 1), [0, 1], 2)
        with pytest.raises(SpecError):
            construct_from_ndm(chain, bad)

    def test_rejects_input_over_another_field(self):
        """GF(8) under x^3+x^2+1 is not the chain's GF(8) under x^3+x+1."""
        a = rao_hamming_oa(Field(2, 3, [1, 0, 1, 1]), range(8), 2)
        with pytest.raises(SpecError, match="^input array is not over this chain's field$"):
            construct_from_ndm(chain_field_tower(2, [1, 2, 3]), a)

    def test_rejects_non_oa_input(self):
        chain = chain_field_tower(2, [1, 2])
        rows = [[0] * 3 for _ in range(16)]
        fake = OrthogonalArray(GroupMatrix(rows, chain.field), 4, 2)
        with pytest.raises(VerificationFailure):
            construct_from_ndm(chain, fake)


def _ex2_inputs():
    chain = chain_omega_ring([Zn(6), Zn(2)])
    a1 = OrthogonalArray(GroupMatrix(KRON_SOA_INPUT_A1, chain.group), 6, 2)
    a2 = OrthogonalArray(
        GroupMatrix([[chain.parse_code(t) for t in row] for row in KRON_SOA_INPUT_A2],
                    chain.group), 2, 2
    )
    return chain, a1, a2


class TestKronSoa:
    def test_example_dimensions_and_row37(self):
        chain, a1, a2 = _ex2_inputs()
        out = construct_soa_kron(a2, a1, chain)
        assert out.top.shape == (144, 3)
        assert chain.top_size == 12
        assert [chain.text_code(c) for c in out.top.code_rows[36]] == ["0", "w", "5+w"]

    def test_prefix_accessors(self):
        chain, a1, a2 = _ex2_inputs()
        out = construct_soa_kron(a2, a1, chain)
        assert len(out.top.code_rows[: 2 * out.sliced[0].size]) == 72
        assert "two-layer noa (B^3, B)" in [r.check for r in out.verification]
        noa_rows = (3 * out.sliced[0].size, out.top.n_rows)
        assert noa_rows == (108, 144)
        assert out.sliced[0].size == 36
        assert out.top.n_rows // out.sliced[0].size == 4

    def test_degenerate_single_row_shift(self):
        """A chain whose second layer is no larger than its first has no
        B^1 in B to nest, so it is refused before any input is checked."""
        chain = chain_omega_ring([Zn(6), Zn(1)])
        a1 = OrthogonalArray(GroupMatrix(KRON_SOA_INPUT_A1, chain.group), 6, 2)
        a2 = OrthogonalArray(GroupMatrix([[0] * 3], chain.group), 1, 2)
        with pytest.raises(SpecError, match=r"layer sizes \[6, 6\] do not strictly increase"):
            construct_soa_kron(a2, a1, chain)

    def test_column_mismatch(self):
        chain, a1, a2 = _ex2_inputs()
        clipped = OrthogonalArray(GroupMatrix([r[:2] for r in a2.matrix.code_rows],
                                              chain.group), 2, 2)
        with pytest.raises(SpecError):
            construct_soa_kron(clipped, a1, chain)

    def test_alphabet_mismatch(self):
        chain, a1, a2 = _ex2_inputs()
        with pytest.raises(SpecError):
            construct_soa_kron(a1, a1, chain)


def _trivial_oa(chain, layer):
    tr = chain.transversal_codes(layer)
    s = len(tr)
    rows = [(tr[a], tr[b], tr[(a + b) % s]) for a in range(s) for b in range(s)]
    return OrthogonalArray(GroupMatrix(rows, chain.group), s, 2)


class TestKronMulti:
    def test_two_layer_reduces_to_soa(self):
        chain = chain_omega_ring([Zn(2), Zn(2)])
        a1, a2 = _trivial_oa(chain, 1), _trivial_oa(chain, 2)
        multi = construct_noa_kron_multi([a1, a2], chain)
        soa = construct_soa_kron(a2, a1, chain)
        assert multi.top == soa.top
        assert check_oa_strength(multi.top.code_rows, 4, 2).passed

    def test_slices_collapse(self):
        chain = chain_omega_ring([Zn(2), Zn(2)])
        out = construct_noa_kron_multi(
            [_trivial_oa(chain, 1), _trivial_oa(chain, 2)], chain
        )
        fam = out.sliced[0]
        assert fam.size == 4
        rho1 = chain.projection_table(1)
        for l in range(1, out.top.n_rows // fam.size + 1):
            size = out.nested.rows[0]
            rows = [[rho1[c] for c in r] for r in out.top.code_rows[(l - 1) * size : l * size]]
            assert check_oa_strength(rows, 2, 2).passed

    def test_zero_row_requirement(self):
        chain = chain_omega_ring([Zn(2), Zn(2)])
        a1, a2 = _trivial_oa(chain, 1), _trivial_oa(chain, 2)
        shuffled = OrthogonalArray(GroupMatrix(a2.matrix.code_rows[::-1], chain.group), 2, 2)
        with pytest.raises(SpecError):
            construct_noa_kron_multi([a1, shuffled], chain)


@pytest.fixture(scope="module")
def example3():
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    parse_rows = lambda rows: GroupMatrix(
        [[chain.parse_code(t) for t in row] for row in rows], chain.group
    )
    d1 = DifferenceMatrix(
        parse_rows([("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")])
    )
    d2 = DifferenceMatrix(parse_rows([("0", "0", "0"), ("0", "w", "2w"), ("0", "2w", "w")]))
    d3 = DifferenceMatrix(
        parse_rows([("0", "0", "0"), ("0", "0", "w2"), ("0", "w2", "0"), ("0", "w2", "w2")])
    )
    return chain, construct_ndm_kron([d1, d2, d3], chain)


class TestKronNdm:
    def test_reproduces_reference_table(self, example3):
        _, out = example3
        assert element_texts(out.top) == KRON_NDM_GF4_Z3_Z2

    def test_row5(self, example3):
        _, out = example3
        assert element_texts(out.top)[4] == ("0", "w", "2w")

    def test_projection_stacks_copies(self, example3):
        chain, out = example3
        rho2 = chain.projection_table(2)
        projected = [tuple(rho2[c] for c in r) for r in out.top.code_rows]
        e2 = out.top.code_rows[: out.nested.rows[1]]
        assert projected == list(e2) * 4

    def test_single_layer_is_identity(self):
        chain = chain_omega_ring([Field(2, 2)])
        rows = GroupMatrix(
            [[chain.parse_code(t) for t in row] for row in
             [("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")]],
            chain.group,
        )
        d1 = DifferenceMatrix(rows)
        out = construct_ndm_kron([d1], chain)
        assert out.top == rows

    def test_input_oracle_failure(self):
        chain = chain_omega_ring([Field(2, 2), Zn(3)])
        const = GroupMatrix([[0] * 3 for _ in range(4)], chain.group)
        d1 = DifferenceMatrix(const)
        d2 = DifferenceMatrix(GroupMatrix([[0] * 3], chain.group))
        with pytest.raises(VerificationFailure):
            construct_ndm_kron([d1, d2], chain)


@pytest.mark.parametrize("construct", [construct_noa_kron_multi, construct_ndm_kron])
def test_kron_without_inputs_is_spec_error(construct):
    """An empty input list is refused by count, before any input is read."""
    with pytest.raises(SpecError, match="got none"):
        construct([], chain_omega_ring([Zn(3), Zn(3)]))


def test_kron_refuses_a_wrong_input_count():
    """One array for a two-layer chain is refused by count, before it is read."""
    chain = chain_omega_ring([Zn(3), Zn(3)])
    a = OrthogonalArray(full_factorial(chain.transversal_codes(1), 2, chain.group), 3, 2)
    with pytest.raises(SpecError, match=r"^need one array per chain layer \(2\), got 1$"):
        construct_noa_kron_multi([a], chain)


def test_full_factorial_order():
    f = Field(2, 1)
    rows = full_factorial([0, 1], 2, f)
    assert rows.owner == f
    assert rows.codes() == [[0, 0], [0, 1], [1, 0], [1, 1]]
