import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import code_of
from nestfill.errors import SpecError
from nestfill.galois import Element, Field, is_prime, poly_residue


def test_default_moduli_match_standard_small_fields():
    # x+1, x^2+x+1, x^3+x+1 (coefficients lowest degree first)
    assert Field(2, 1).modulus == (1, 1)
    assert Field(2, 2).modulus == (1, 1, 1)
    assert Field(2, 3).modulus == (1, 1, 0, 1)


def test_non_prime_p_rejected():
    with pytest.raises(SpecError):
        Field(4, 1)
    with pytest.raises(SpecError):
        Field(1, 1)


def test_supplied_modulus_validation():
    # x^2+1 = (x+1)^2 over Z_2 is reducible
    with pytest.raises(SpecError):
        Field(2, 2, modulus=[1, 0, 1])
    # not monic
    with pytest.raises(SpecError):
        Field(3, 2, modulus=[1, 0, 2])
    # wrong degree
    with pytest.raises(SpecError):
        Field(2, 3, modulus=[1, 1, 1])
    # a valid alternative modulus for GF(8): x^3+x^2+1
    f = Field(2, 3, modulus=[1, 0, 1, 1])
    assert f.modulus == (1, 0, 1, 1)


def test_addition_examples_gf8():
    f = Field(2, 3)
    x, one = 2, 1
    assert f.add_codes(x, x) == 0
    assert f.text_code(f.add_codes(x, one)) == "x+1"
    x2_plus_1 = code_of(f, "x^2+1")
    assert f.text_code(f.add_codes(x2_plus_1, code_of(f, "x+1"))) == "x^2+x"


def test_multiplication_examples():
    f8 = Field(2, 3)
    x, x2 = code_of(f8, "x"), code_of(f8, "x^2")
    assert f8.text_code(f8.mul_codes(x, x2)) == "x+1"  # x^3 = x+1 mod x^3+x+1
    gamma = code_of(f8, "x^2+x+1")
    assert f8.mul_codes(1, gamma) == gamma
    f4 = Field(2, 2)
    x4 = code_of(f4, "x")
    assert f4.text_code(f4.mul_codes(x4, x4)) == "x+1"  # x^2 = x+1 mod x^2+x+1


def test_enumeration_order_and_texts():
    def texts(f):
        return [f.text_code(c) for c in range(f.size)]

    assert texts(Field(2, 1)) == ["0", "1"]
    assert texts(Field(2, 2)) == ["0", "1", "x", "x+1"]
    assert texts(Field(2, 3)) == [
        "0", "1", "x", "x+1", "x^2", "x^2+1", "x^2+x", "x^2+x+1",
    ]


def test_text_round_trip_all_elements():
    for p, u in [(2, 3), (3, 2), (5, 1)]:
        f = Field(p, u)
        for code in range(f.size):
            assert code_of(f, f.text_code(code)) == code


def test_code_round_trip():
    f = Field(3, 2)
    for code in range(f.size):
        assert f.encode(f.coeffs(code)) == code


def test_field_mismatch_raises():
    a = Element(Field(2, 2), 1)
    b = Element(Field(2, 3), 1)
    with pytest.raises(SpecError):
        a + b


def test_element_arithmetic_and_text_read_the_group_tables():
    f = Field(2, 3)
    x, x2 = 2, 4
    assert f.text_code(f.add[x][1]) == "x+1"
    assert f.text_code(f.mul[x][x2]) == "x+1"
    assert f.add[x][f.neg[x2]] == f.add[x][x2] and f.neg[x] == x
    assert f.text_code(f.mul[x].index(1)) == "x^2+1" and f.mul[5][x] == 1


def test_element_keeps_only_what_the_benchmark_pins():
    """Element is no API: it defines only its range check, its code hash and
    the `+` the benchmark counts, and a Field keeps no inverse table."""
    methods = {name for name, v in vars(Element).items() if callable(v)}
    assert methods == {"__init__", "__hash__", "__add__"}
    assert not hasattr(Field(2, 2), "inv") and not hasattr(Field, "inv_code")


def test_element_refuses_a_code_outside_its_group():
    f = Field(2, 2)
    for code in (f.size, -1):
        with pytest.raises(SpecError, match="out of range"):
            Element(f, code)


def test_elements_are_values_of_their_group():
    """An Element equals only an Element of the same group and code, and
    hashes on its code alone; it is no tuple, so it neither repeats nor
    orders, and it refuses assignment but still copies and pickles."""
    f4, f8 = Field(2, 2), Field(2, 3)
    e = Element(f4, 1)
    assert e == Element(f4, 1) and hash(e) == hash(Element(f4, 1)) == hash(Element(f8, 1))
    assert e != Element(f8, 1) and e != Element(f4, 2) and e != (f4, 1)
    assert len({e, Element(f4, 1), Element(f8, 1)}) == 2
    with pytest.raises(TypeError):
        3 * e
    with pytest.raises(TypeError):
        e < Element(f4, 2)
    with pytest.raises(AttributeError):
        e.code = 2
    assert e.code == 1
    assert copy.deepcopy(e) == e and pickle.loads(pickle.dumps(e)) == e


@pytest.mark.parametrize("p,u", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_additive_group_axioms_exhaustive(p, u):
    f = Field(p, u)
    codes = range(f.size)
    for a in codes:
        assert f.add[a][0] == a
        assert f.add[a][f.neg[a]] == 0
        for b in codes:
            assert f.add[a][b] == f.add[b][a]


@pytest.mark.parametrize("p,u", [(2, 3), (3, 2)])
def test_inverses_by_exhaustive_search(p, u):
    f = Field(p, u)
    for a in range(1, f.size):
        hits = [b for b in range(f.size) if f.mul[a][b] == 1]
        assert len(hits) == 1


@settings(max_examples=200)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ring_axioms_random_triples_gf27(a, b, c):
    f = Field(3, 3)
    add, mul = f.add, f.mul
    assert add[add[a][b]][c] == add[a][add[b][c]]
    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]


def test_poly_residue():
    # x^2 mod x^2+x+1 = x+1 over Z_2
    assert poly_residue([0, 0, 1], [1, 1, 1], 2) == (1, 1)
    # x^2 mod x+1 = 1 over Z_2
    assert poly_residue([0, 0, 1], [1, 1], 2) == (1,)
    assert poly_residue([1, 1], [1, 1], 2) == ()


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
