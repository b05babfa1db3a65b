import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestfill.errors import SpecError
from nestfill.galois import Field, poly_residue
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


def texts(chain, els):
    return [chain.text(e) for e in els]


class TestFieldTower:
    def test_transversals_gf8(self, tower_238):
        assert texts(tower_238, tower_238.transversal(1)) == ["0", "1"]
        assert texts(tower_238, tower_238.transversal(2)) == ["0", "x"]
        assert texts(tower_238, tower_238.transversal(3)) == ["0", "x^2"]

    def test_transversal_width_two(self):
        chain = chain_field_tower(2, [1, 2, 4])
        assert texts(chain, chain.transversal(3)) == ["0", "x^2", "x^3", "x^3+x^2"]

    def test_transversal_p3(self):
        chain = chain_field_tower(3, [1, 2])
        assert texts(chain, chain.transversal(2)) == ["0", "x", "2x"]

    def test_non_increasing_chain_rejected(self):
        with pytest.raises(SpecError):
            chain_field_tower(2, [2, 2, 3])
        with pytest.raises(SpecError):
            chain_field_tower(2, [])

    def test_direct_sum_covers_each_layer_once(self, tower_238):
        # the transversal sums enumerate every layer without repetition
        for i in range(1, tower_238.layers + 1):
            acc = [tower_238.zero()]
            for j in range(1, i + 1):
                acc = [a + t for a in acc for t in tower_238.transversal(j)]
            assert len({e.code for e in acc}) == tower_238.sizes[i - 1]
            assert {e.code for e in acc} == set(range(tower_238.sizes[i - 1]))

    def test_transversals_are_subgroups(self):
        chain = chain_field_tower(2, [1, 2, 4])
        for i in range(1, 4):
            t = chain.transversal(i)
            codes = {e.code for e in t}
            for a in t:
                for b in t:
                    assert (a + b).code in codes

    def test_decompose_monomial_split(self, tower_238):
        gamma = tower_238.parse("x^2+x+1")
        assert texts(tower_238, tower_238.decompose(gamma)) == ["1", "x", "x^2"]
        assert texts(tower_238, tower_238.decompose(tower_238.zero())) == ["0", "0", "0"]

    def test_decompose_sums_back(self, tower_238):
        for code in range(tower_238.top_size):
            el = tower_238.element_from_code(code)
            parts = tower_238.decompose(el)
            total = tower_238.zero()
            for part in parts:
                total = total + part
            assert total == el

    def test_projection_table_example(self, tower_238):
        # gamma codes 0..7 against the known collapse rows
        rho1 = [tower_238.project(1, tower_238.element_from_code(c)).code for c in range(8)]
        assert rho1 == [0, 1, 0, 1, 0, 1, 0, 1]
        rho2 = texts(
            tower_238,
            [tower_238.project(2, tower_238.element_from_code(c)) for c in range(8)],
        )
        assert rho2 == ["0", "1", "x", "x+1", "0", "1", "x", "x+1"]
        for c in range(8):
            el = tower_238.element_from_code(c)
            assert tower_238.project(3, el) == el

    def test_projection_layer_range(self, tower_238):
        with pytest.raises(SpecError):
            tower_238.project(0, tower_238.zero())
        with pytest.raises(SpecError):
            tower_238.project(4, tower_238.zero())


class TestOmegaRing:
    def test_example_z6_z2(self):
        chain = chain_omega_ring([Zn(6), Zn(2)])
        assert chain.sizes == (6, 12)
        assert texts(chain, chain.transversal(1)) == ["0", "1", "2", "3", "4", "5"]
        assert texts(chain, chain.transversal(2)) == ["0", "w"]
        # collapse keeps the Z_6 part
        el = chain.parse("w+3")
        assert chain.text(chain.project(1, el)) == "3"
        assert chain.text(chain.project(2, el)) == "3+w"

    def test_example_gf4_z3_z2(self, omega_ex3):
        assert omega_ex3.sizes == (4, 12, 24)
        assert texts(omega_ex3, omega_ex3.transversal(2)) == ["0", "w", "2w"]
        assert texts(omega_ex3, omega_ex3.transversal(3)) == ["0", "w2"]
        gamma = omega_ex3.parse("x+2w+w2")
        assert texts(omega_ex3, omega_ex3.decompose(gamma)) == ["x", "2w", "w2"]

    def test_degenerate_trivial_layer(self):
        chain = chain_omega_ring([Zn(1)])
        assert chain.sizes == (1,)
        assert chain.layer_elements(1) == [chain.zero()]

    def test_text_round_trip(self, omega_ex3):
        for code in range(omega_ex3.top_size):
            el = omega_ex3.element_from_code(code)
            assert omega_ex3.parse(omega_ex3.text(el)) == el

    def test_parse_rejects_malformed(self, omega_ex3):
        for bad in ["w3", "5w", "w+w", "x+x", ""]:
            with pytest.raises(SpecError):
                omega_ex3.parse(bad)

    def test_field_coefficient_parenthesized(self):
        chain = chain_omega_ring([Zn(2), Field(2, 2)])
        el = chain.element([1, 3])
        assert chain.text(el) == "1+(x+1)w"
        assert chain.parse("1+(x+1)w") == el


class TestEnumeration:
    def test_outer_first_gf8(self, tower_238):
        assert texts(tower_238, tower_238.enumerate_ordered("outer-first")) == [
            "0", "1", "x", "x+1", "x^2", "x^2+1", "x^2+x", "x^2+x+1",
        ]

    def test_inner_first_gf8(self, tower_238):
        assert texts(tower_238, tower_238.enumerate_ordered("inner-first")) == [
            "0", "x^2", "x", "x^2+x", "1", "x^2+1", "x+1", "x^2+x+1",
        ]

    def test_single_layer_orders_agree(self):
        chain = chain_field_tower(2, [2])
        inner = chain.enumerate_ordered("inner-first")
        outer = chain.enumerate_ordered("outer-first")
        assert inner == outer == chain.field.elements()

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
        g1 = chain.element_from_code(rng.randrange(chain.top_size))
        g2 = chain.element_from_code(rng.randrange(chain.top_size))
        assert chain.project(i, g1 + g2) == chain.project(i, g1) + chain.project(i, g2)
        assert chain.project(i, chain.project(j, g1)) == chain.project(min(i, j), g1)
        if j <= i and chain.project(i, g1) == chain.project(i, g2):
            assert chain.project(j, g1) == chain.project(j, g2)


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
    els = [chain.element_from_code(c) for c in range(chain.top_size)]
    for i in range(1, chain.layers + 1):
        for j in range(1, i + 1):
            for a in els:
                for b in els:
                    if chain.project(i, a) == chain.project(i, b):
                        assert chain.project(j, a) == chain.project(j, b)


def test_projection_counting_law(tower_238):
    # collapsing the inner-first enumeration repeats each layer element
    # top_size/layer_size times consecutively
    for i in range(1, 4):
        projected = [
            tower_238.project(i, el).code
            for el in tower_238.enumerate_ordered("inner-first")
        ]
        rep = tower_238.top_size // tower_238.sizes[i - 1]
        expected = [
            el.code
            for el in tower_238.enumerate_ordered("inner-first")[:: rep]
            for _ in range(rep)
        ]
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

    x2 = f8.parse_code("x^2")
    x_plus_1 = f8.parse_code("x+1")
    assert phi(g2, x2) == phi(g2, x_plus_1) == f8.parse_code("x+1")
    assert phi(g1, x2) == f8.parse_code("1")
    assert phi(g1, x_plus_1) == 0
    assert phi(g1, x2) != phi(g1, x_plus_1)


class TestSubfieldTower:
    def test_true_subfield_layers(self):
        chain = chain_subfield_tower(2, [2, 4])
        assert [e.text() for e in chain.layer_elements(1)] == [
            "0", "1", "x^2+x", "x^2+x+1",
        ]
        # layer 1 is multiplicatively closed
        layer1 = set(chain.layer_elements(1))
        for a in layer1:
            for b in layer1:
                assert a * b in layer1

    def test_transversal_direct_sum(self):
        chain = chain_subfield_tower(2, [1, 2, 4])
        acc = [chain.zero()]
        for i in (1, 2, 3):
            t = chain.transversal(i)
            codes = {e.code for e in t}
            for a in t:
                for b in t:
                    assert (a + b).code in codes
            acc = [a + b for a in acc for b in t]
        assert len({e.code for e in acc}) == 16

    def test_matches_degree_filter_when_u1_is_one(self):
        sub = chain_subfield_tower(3, [1, 2])
        tow = chain_field_tower(3, [1, 2])
        for i in (1, 2):
            assert [e.code for e in sub.transversal(i)] == [
                e.code for e in tow.transversal(i)
            ]
        for c in range(9):
            el_s, el_t = sub.element_from_code(c), tow.element_from_code(c)
            assert sub.project(1, el_s).code == tow.project(1, el_t).code

    def test_projection_laws(self):
        chain = chain_subfield_tower(2, [1, 2, 4])
        els = [chain.element_from_code(c) for c in range(16)]
        for i in (1, 2, 3):
            for a in els:
                for b in els:
                    assert chain.project(i, a + b) == chain.project(i, a) + chain.project(i, b)
                    if chain.project(2, a) == chain.project(2, b) and i <= 2:
                        assert chain.project(i, a) == chain.project(i, b)

    def test_projection_is_identity_on_layer(self):
        chain = chain_subfield_tower(2, [2, 4])
        for el in chain.layer_elements(1):
            assert chain.project(1, el) == el

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


@settings(max_examples=200)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(1, 3))
def test_omega_projection_additivity(c1, c2, i):
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    a, b = chain.element_from_code(c1), chain.element_from_code(c2)
    assert chain.project(i, a + b) == chain.project(i, a) + chain.project(i, b)


def test_omega_elements_add_but_do_not_multiply():
    chain = chain_omega_ring([Zn(3), Zn(2)])
    a, b = chain.parse("2+w"), chain.parse("1+w")
    assert (a + b, a - b, -a) == (chain.parse("0"), chain.parse("1"), chain.parse("1+w"))
    with pytest.raises(TypeError):
        a * b


def _top_terms(text):
    """`text` split on each '+' outside parentheses."""
    terms, depth = [""], 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and depth == 0:
            terms.append("")
        else:
            terms[-1] += ch
    return terms


@pytest.mark.parametrize("group", [
    Field(2, 3), Field(3, 2),
    chain_omega_ring([Field(2, 2), Zn(3), Zn(2)]), chain_omega_ring([Zn(2), Field(2, 2)]),
], ids=["GF8", "GF9", "GF4xZ3xZ2", "Z2xGF4"])
def test_text_parses_back_under_any_term_order(group):
    """parse_code inverts text_code, whatever the order of the top-level
    terms (a parenthesized coefficient such as (x+1)w is one term)."""
    for code in range(group.size):
        for order in permutations(_top_terms(group.text_code(code))):
            assert group.parse_code("+".join(order)) == code


@pytest.mark.parametrize("text", ["x^1", "1x", "01", "1w", "0w", "w1", "0+w", "(1+x)w"])
def test_parse_rejects_unprinted_spellings(text):
    """Only the printer's spelling parses (in GF(8), or over Z2 x GF(4) when
    w appears): no explicit x^1, w1 or unit coefficient, no leading zero or
    zero term, no reordered coefficient."""
    group = chain_omega_ring([Zn(2), Field(2, 2)]) if "w" in text else Field(2, 3)
    with pytest.raises(SpecError):
        group.parse_code(text)
