import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import code_of
from nestfill.errors import SpecError
from nestfill.galois import Element, Field, poly_residue
from nestfill.groups import (
    FieldTowerChain,
    OmegaRingChain,
    Zn,
    chain_field_tower,
    chain_from_descriptor,
    chain_omega_ring,
    chain_subfield_tower,
)


@pytest.fixture
def tower_238():
    return chain_field_tower(2, [1, 2, 3])


@pytest.fixture
def omega_ex3():
    return chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])


def texts(chain, codes):
    return [chain.group.text_code(c) for c in codes]


def parts(chain, code):
    """The per-transversal parts of `code`: the differences of its
    successive layer projections."""
    sums = [0] + [row[code] for row in chain.proj]
    return [chain.group.sub_codes(b, a) for a, b in zip(sums, sums[1:])]


class TestFieldTower:
    def test_transversals_gf8(self, tower_238):
        assert texts(tower_238, tower_238.transversal_codes(1)) == ["0", "1"]
        assert texts(tower_238, tower_238.transversal_codes(2)) == ["0", "x"]
        assert texts(tower_238, tower_238.transversal_codes(3)) == ["0", "x^2"]

    def test_transversal_width_two(self):
        chain = chain_field_tower(2, [1, 2, 4])
        assert texts(chain, chain.transversal_codes(3)) == ["0", "x^2", "x^3", "x^3+x^2"]

    def test_transversal_p3(self):
        chain = chain_field_tower(3, [1, 2])
        assert texts(chain, chain.transversal_codes(2)) == ["0", "x", "2x"]

    def test_non_increasing_chain_rejected(self):
        with pytest.raises(SpecError):
            chain_field_tower(2, [2, 2, 3])
        with pytest.raises(SpecError):
            chain_field_tower(2, [])

    def test_direct_sum_covers_each_layer_once(self, tower_238):
        # the transversal sums enumerate every layer without repetition
        for i in range(1, tower_238.layers + 1):
            add = tower_238.group.add
            acc = [0]
            for j in range(1, i + 1):
                acc = [add[a][t] for a in acc for t in tower_238.transversal_codes(j)]
            assert len(set(acc)) == tower_238.sizes[i - 1]
            assert set(acc) == set(range(tower_238.sizes[i - 1]))

    def test_transversals_are_subgroups(self):
        chain = chain_field_tower(2, [1, 2, 4])
        add = chain.group.add
        for i in range(1, 4):
            t = chain.transversal_codes(i)
            for a in t:
                for b in t:
                    assert add[a][b] in t

    def test_decompose_monomial_split(self, tower_238):
        gamma = code_of(tower_238.group, "x^2+x+1")
        assert texts(tower_238, parts(tower_238, gamma)) == ["1", "x", "x^2"]
        assert texts(tower_238, parts(tower_238, 0)) == ["0", "0", "0"]

    def test_decompose_sums_back(self, tower_238):
        add = tower_238.group.add
        for code in range(tower_238.top_size):
            total = 0
            for i, part in enumerate(parts(tower_238, code), start=1):
                assert part in tower_238.transversal_codes(i)
                total = add[total][part]
            assert total == code

    def test_projection_table_example(self, tower_238):
        # gamma codes 0..7 against the known collapse rows
        assert tower_238.projection_table(1) == [0, 1, 0, 1, 0, 1, 0, 1]
        rho2 = texts(tower_238, tower_238.projection_table(2))
        assert rho2 == ["0", "1", "x", "x+1", "0", "1", "x", "x+1"]
        assert tower_238.projection_table(3) == list(range(8))

    def test_projection_layer_range(self, tower_238):
        with pytest.raises(SpecError):
            tower_238.projection_table(0)
        with pytest.raises(SpecError):
            tower_238.projection_table(4)


class TestOmegaRing:
    def test_example_z6_z2(self):
        chain = chain_omega_ring([Zn(6), Zn(2)])
        assert chain.sizes == (6, 12)
        assert texts(chain, chain.transversal_codes(1)) == ["0", "1", "2", "3", "4", "5"]
        assert texts(chain, chain.transversal_codes(2)) == ["0", "w"]
        # collapse keeps the Z_6 part
        el = code_of(chain, "3+w")
        assert chain.text_code(chain.proj[0][el]) == "3"
        assert chain.text_code(chain.proj[1][el]) == "3+w"

    def test_example_gf4_z3_z2(self, omega_ex3):
        assert omega_ex3.sizes == (4, 12, 24)
        assert texts(omega_ex3, omega_ex3.transversal_codes(2)) == ["0", "w", "2w"]
        assert texts(omega_ex3, omega_ex3.transversal_codes(3)) == ["0", "w2"]
        gamma = code_of(omega_ex3, "x+2w+w2")
        assert texts(omega_ex3, parts(omega_ex3, gamma)) == ["x", "2w", "w2"]

    def test_degenerate_trivial_layer(self):
        chain = chain_omega_ring([Zn(1)])
        assert chain.sizes == (1,)
        assert chain.layer_codes(1) == [0]

    def test_unsupported_base_refused(self):
        with pytest.raises(SpecError, match="unsupported base group 3"):
            OmegaRingChain([3])

    def test_groups_above_the_table_limit_refused_when_built(self):
        assert Zn(1024).size == chain_omega_ring([Zn(32), Zn(32)]).size == 1024
        for build, order in ((lambda: Zn(1025), 1025),
                             (lambda: chain_omega_ring([Zn(32), Zn(33)]), 1056)):
            with pytest.raises(SpecError, match=f"group of order {order} is too large"):
                build()

    def test_text_round_trip(self, omega_ex3):
        for code in range(omega_ex3.top_size):
            assert code_of(omega_ex3, omega_ex3.text_code(code)) == code

    def test_field_coefficient_parenthesized(self):
        chain = chain_omega_ring([Zn(2), Field(2, 2)])
        code = 7  # 1 in Z_2 plus 2 * 3, the code of x+1 in GF(4), as the w part
        assert chain.text_code(code) == "1+(x+1)w"
        assert code_of(chain, "1+(x+1)w") == code


class TestEnumeration:
    def test_outer_first_gf8(self, tower_238):
        assert texts(tower_238, tower_238.ordered_codes("outer-first")) == [
            "0", "1", "x", "x+1", "x^2", "x^2+1", "x^2+x", "x^2+x+1",
        ]

    def test_inner_first_gf8(self, tower_238):
        assert texts(tower_238, tower_238.ordered_codes("inner-first")) == [
            "0", "x^2", "x", "x^2+x", "1", "x^2+1", "x+1", "x^2+x+1",
        ]

    def test_single_layer_orders_agree(self):
        chain = chain_field_tower(2, [2])
        inner = chain.ordered_codes("inner-first")
        outer = chain.ordered_codes("outer-first")
        assert inner == outer == list(range(chain.field.size))

    def test_unknown_order(self, tower_238):
        with pytest.raises(SpecError):
            tower_238.enumerate_ordered("sideways")


def _random_chain(rng):
    if rng.random() < 0.5:
        p = rng.choice([2, 3])
        top = {2: 6, 3: 3}[p]
        n_layers = rng.randint(1, 3)
        us = sorted(rng.sample(range(1, top + 1), n_layers))
        return chain_field_tower(p, us)
    bases = []
    total = 1
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 4)
        if total * n > 64:
            break
        bases.append(Zn(n))
        total *= n
    if not bases:
        bases = [Zn(2)]
    return chain_omega_ring(bases)


def test_projection_laws_randomized():
    # additivity, composition, refinement, counting; 1000 randomized trials
    rng = random.Random(20240901)
    for _ in range(1000):
        chain = _random_chain(rng)
        i = rng.randint(1, chain.layers)
        j = rng.randint(1, chain.layers)
        add, rho_i, rho_j = chain.group.add, chain.proj[i - 1], chain.proj[j - 1]
        g1 = rng.randrange(chain.top_size)
        g2 = rng.randrange(chain.top_size)
        assert rho_i[add[g1][g2]] == add[rho_i[g1]][rho_i[g2]]
        assert rho_i[rho_j[g1]] == chain.proj[min(i, j) - 1][g1]
        if j <= i and rho_i[g1] == rho_i[g2]:
            assert rho_j[g1] == rho_j[g2]


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain_field_tower(2, [1, 2, 3]),
        lambda: chain_field_tower(3, [1, 2]),
        lambda: chain_omega_ring([Field(2, 2), Zn(3), Zn(2)]),
    ],
)
def test_projection_refinement_exhaustive(make):
    chain = make()
    codes = range(chain.top_size)
    for i in range(1, chain.layers + 1):
        for j in range(1, i + 1):
            rho_i, rho_j = chain.proj[i - 1], chain.proj[j - 1]
            for a in codes:
                for b in codes:
                    if rho_i[a] == rho_i[b]:
                        assert rho_j[a] == rho_j[b]


def test_projection_counting_law(tower_238):
    # collapsing the inner-first enumeration repeats each layer element
    # top_size/layer_size times consecutively
    for i in range(1, 4):
        inner = tower_238.ordered_codes("inner-first")
        projected = [tower_238.proj[i - 1][c] for c in inner]
        rep = tower_238.top_size // tower_238.sizes[i - 1]
        expected = [c for c in inner[::rep] for _ in range(rep)]
        # inner-first enumeration of the layer = every rep-th entry collapsed
        assert projected == expected
        blocks = [projected[k * rep : (k + 1) * rep] for k in range(tower_238.sizes[i - 1])]
        assert all(len(set(b)) == 1 for b in blocks)
        assert sorted(b[0] for b in blocks) == list(range(tower_238.sizes[i - 1]))


def test_modulus_projection_violates_refinement():
    # collapsing by polynomial residue mod x^2+x+1 / mod x+1 sends x^2 and
    # x+1 to the same coarse value but different finer values
    f8 = Field(2, 3)
    g2, g1 = (1, 1, 1), (1, 1)

    def phi(g, code):
        return f8.encode(poly_residue(f8.coeffs(code), g, 2) + (0, 0, 0))

    x2 = code_of(f8, "x^2")
    x_plus_1 = code_of(f8, "x+1")
    assert phi(g2, x2) == phi(g2, x_plus_1) == code_of(f8, "x+1")
    assert phi(g1, x2) == code_of(f8, "1")
    assert phi(g1, x_plus_1) == 0
    assert phi(g1, x2) != phi(g1, x_plus_1)


class TestSubfieldTower:
    def test_true_subfield_layers(self):
        chain = chain_subfield_tower(2, [2, 4])
        mul = chain.field.mul
        assert [chain.field.text_code(c) for c in chain.layer_codes(1)] == [
            "0", "1", "x^2+x", "x^2+x+1",
        ]
        # layer 1 is multiplicatively closed
        layer1 = set(chain.layer_codes(1))
        for a in layer1:
            for b in layer1:
                assert mul[a][b] in layer1

    def test_transversal_direct_sum(self):
        chain = chain_subfield_tower(2, [1, 2, 4])
        add = chain.group.add
        acc = [0]
        for i in (1, 2, 3):
            t = chain.transversal_codes(i)
            for a in t:
                for b in t:
                    assert add[a][b] in t
            acc = [add[a][b] for a in acc for b in t]
        assert len(set(acc)) == 16

    def test_matches_degree_filter_when_u1_is_one(self):
        sub = chain_subfield_tower(3, [1, 2])
        tow = chain_field_tower(3, [1, 2])
        for i in (1, 2):
            assert sub.transversal_codes(i) == tow.transversal_codes(i)
        assert sub.projection_table(1) == tow.projection_table(1)

    def test_projection_laws(self):
        chain = chain_subfield_tower(2, [1, 2, 4])
        add, rho2 = chain.group.add, chain.proj[1]
        for i in (1, 2, 3):
            rho = chain.proj[i - 1]
            for a in range(16):
                for b in range(16):
                    assert rho[add[a][b]] == add[rho[a]][rho[b]]
                    if rho2[a] == rho2[b] and i <= 2:
                        assert rho[a] == rho[b]

    def test_projection_is_identity_on_layer(self):
        chain = chain_subfield_tower(2, [2, 4])
        for c in chain.layer_codes(1):
            assert chain.proj[0][c] == c

    def test_divisibility_required(self):
        with pytest.raises(SpecError):
            chain_subfield_tower(2, [2, 3])


def test_descriptor_round_trip(tower_238, omega_ex3):
    for chain in [
        tower_238,
        omega_ex3,
        chain_omega_ring([Zn(6), Zn(2)]),
        chain_subfield_tower(2, [2, 4]),
    ]:
        clone = chain_from_descriptor(chain.descriptor())
        assert clone == chain
        assert clone.sizes == chain.sizes


def test_groups_and_chains_are_equal_exactly_when_their_descriptors_are():
    """A group or chain is its descriptor, the JSON a design file stores: over
    every pair of one fixed list, equality holds exactly when the descriptors
    are equal, equal objects hash equal, and a chain read back from its
    descriptor equals it."""
    golden = [
        chain_field_tower(2, [1, 2, 3]),  # RH_NOA_P2_U123_K2 and the relabeled designs
        chain_omega_ring([Field(2, 2), Zn(3), Zn(2)]),  # KRON_NDM_GF4_Z3_Z2
        chain_omega_ring([Zn(6), Zn(2)]),  # KRON_SOA_INPUT_A1 and _A2
    ]
    chains = golden + [chain_field_tower(2, [1, 2]), chain_subfield_tower(2, [1, 2])]
    items = chains + [c.group for c in golden] + [
        Zn(3), Field(2, 3), Field(2, 3, [1, 0, 1, 1])]
    for a, b in product(items, repeat=2):
        same = a.descriptor() == b.descriptor()
        assert (a == b, a != b) == (same, not same), (a, b)
        assert not same or hash(a) == hash(b), (a, b)
    assert golden[0].group == Field(2, 3) and golden[0].group is not items[-2]
    for chain in chains:
        assert chain_from_descriptor(chain.descriptor()) == chain


@settings(max_examples=200)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(1, 3))
def test_omega_projection_additivity(c1, c2, i):
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    add, rho = chain.add, chain.proj[i - 1]
    assert rho[add[c1][c2]] == add[rho[c1]][rho[c2]]


def test_omega_elements_add_but_do_not_multiply():
    chain = chain_omega_ring([Zn(3), Zn(2)])
    def el(text):
        return Element(chain, code_of(chain, text))

    a, b = el("2+w"), el("1+w")
    assert a + b == el("0")
    assert (chain.sub_codes(a.code, b.code), chain.neg[a.code]) == (el("1").code, el("1+w").code)
    with pytest.raises(TypeError):
        a * b
