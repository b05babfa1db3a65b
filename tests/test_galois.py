import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    x = f.element(2)
    one = f.one
    assert (x + x).code == 0
    assert (x + one).text() == "x+1"
    x2_plus_1 = f.parse("x^2+1")
    assert (x2_plus_1 + f.parse("x+1")).text() == "x^2+x"


def test_multiplication_examples():
    f8 = Field(2, 3)
    x, x2 = f8.parse("x"), f8.parse("x^2")
    assert (x * x2).text() == "x+1"  # x^3 = x+1 mod x^3+x+1
    gamma = f8.parse("x^2+x+1")
    assert (f8.one * gamma) == gamma
    f4 = Field(2, 2)
    x4 = f4.parse("x")
    assert (x4 * x4).text() == "x+1"  # x^2 = x+1 mod x^2+x+1


def test_enumeration_order_and_texts():
    assert [e.text() for e in Field(2, 1).elements()] == ["0", "1"]
    assert [e.text() for e in Field(2, 2).elements()] == ["0", "1", "x", "x+1"]
    assert [e.text() for e in Field(2, 3).elements()] == [
        "0", "1", "x", "x+1", "x^2", "x^2+1", "x^2+x", "x^2+x+1",
    ]


def test_text_round_trip_all_elements():
    for p, u in [(2, 3), (3, 2), (5, 1)]:
        f = Field(p, u)
        for e in f.elements():
            assert f.parse(e.text()) == e


def test_parse_rejects_malformed():
    f = Field(2, 3)
    for bad in ["", "x^3", "2x", "x+x", "y", "1+"]:
        with pytest.raises(SpecError):
            f.parse(bad)


def test_code_round_trip():
    f = Field(3, 2)
    for code in range(f.size):
        assert f.encode(f.coeffs(code)) == code


def test_field_mismatch_raises():
    a = Field(2, 2).one
    b = Field(2, 3).one
    with pytest.raises(SpecError):
        a + b
    with pytest.raises(SpecError):
        a * b


def test_elements_are_values_of_their_group():
    """An Element equals, and hashes as, only an Element of the same group
    and code; it is no tuple, so it neither repeats nor orders, and it
    refuses assignment but still copies and pickles."""
    f4, f8 = Field(2, 2), Field(2, 3)
    e = f4.element(1)
    assert e == Element(f4, 1) and hash(e) == hash(Element(f4, 1))
    assert e != f8.element(1) and e != f4.element(2) and e != (f4, 1)
    assert len({e, Element(f4, 1), f8.element(1)}) == 2
    with pytest.raises(TypeError):
        3 * e
    with pytest.raises(TypeError):
        e < f4.element(2)
    with pytest.raises(AttributeError):
        e.code = 2
    assert e.code == 1
    assert copy.deepcopy(e) == e and pickle.loads(pickle.dumps(e)) == e


@pytest.mark.parametrize("p,u", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_additive_group_axioms_exhaustive(p, u):
    f = Field(p, u)
    els = f.elements()
    zero = f.zero
    for a in els:
        assert a + zero == a
        assert a + (-a) == zero
        for b in els:
            assert a + b == b + a


@pytest.mark.parametrize("p,u", [(2, 3), (3, 2)])
def test_inverses_by_exhaustive_search(p, u):
    f = Field(p, u)
    for a in f.elements():
        if not a:
            continue
        hits = [b for b in f.elements() if (a * b) == f.one]
        assert len(hits) == 1
        assert a.inverse() == hits[0]


@settings(max_examples=200)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ring_axioms_random_triples_gf27(a, b, c):
    f = Field(3, 3)
    ea, eb, ec = f.element(a), f.element(b), f.element(c)
    assert (ea + eb) + ec == ea + (eb + ec)
    assert ea * (eb + ec) == ea * eb + ea * ec
    assert (ea * eb) * ec == ea * (eb * ec)


def test_poly_residue():
    # x^2 mod x^2+x+1 = x+1 over Z_2
    assert poly_residue([0, 0, 1], [1, 1, 1], 2) == (1, 1)
    # x^2 mod x+1 = 1 over Z_2
    assert poly_residue([0, 0, 1], [1, 1], 2) == (1,)
    assert poly_residue([1, 1], [1, 1], 2) == ()


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
