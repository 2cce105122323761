import pytest
from hypothesis import given, strategies as st

from daggereq import (
    ComplexFloatRing,
    ConjPolynomial,
    ConjPolynomialRing,
    DaggereqError,
    GaussianInt,
    GaussianIntegerRing,
    Monomial,
    ParseError,
    make_ring,
)
from daggereq.scalars import MultilinearRing

gauss = st.builds(GaussianInt, st.integers(-50, 50), st.integers(-50, 50))


@given(gauss, gauss, gauss)
def test_gaussian_integers_form_a_commutative_ring(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GaussianInt(0, 0)
    assert a * GaussianInt(1, 0) == a


@given(gauss, gauss)
def test_gaussian_conjugation_is_a_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_gaussian_parse_and_print():
    ring = GaussianIntegerRing()
    assert str(GaussianInt(3, -4)) == "3-4i"
    assert str(GaussianInt(0, 0)) == "0+0i"
    assert ring.parse("3-4i") == GaussianInt(3, -4)
    assert ring.parse(" -7 +0i ") == GaussianInt(-7, 0)
    with pytest.raises(ParseError):
        ring.parse("3")
    with pytest.raises(ParseError):
        ring.parse("i")


@given(gauss)
def test_gaussian_print_parse_round_trip(a):
    ring = GaussianIntegerRing()
    assert ring.parse(ring.format(a)) == a


def test_float_ring_tolerance_is_relative():
    ring = ComplexFloatRing(1e-9)
    assert ring.eq(1e12 + 0j, 1e12 + 100j)  # relative slack grows
    assert not ring.eq(0j, 1e-3 + 0j)
    assert ring.eq(0j, 1e-12 + 0j)
    assert not ComplexFloatRing(0.0).eq(0j, 1e-300 + 0j)
    with pytest.raises(DaggereqError):
        ComplexFloatRing(-1.0)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_float_format_parse_round_trip(re, im):
    ring = ComplexFloatRing()
    z = complex(re, im)
    assert ring.parse(ring.format(z)) == z


def test_make_ring():
    assert make_ring("gauss").name == "gauss"
    assert make_ring("float", 1e-6).tolerance == 1e-6
    assert make_ring("poly").name == "poly"
    with pytest.raises(DaggereqError):
        make_ring("bogus")


def test_monomial_ordering_and_conjugation():
    m = Monomial.of((3, False), (0, True), (3, False))
    assert m.powers == (((0, True), 1), ((3, False), 2))
    assert str(m) == "x0~*x3^2"
    assert m.degree == 3
    assert m.conjugate().powers == (((0, False), 1), ((3, True), 2))
    assert m.conjugate().conjugate() == m
    assert str(Monomial.unit()) == "1"
    assert Monomial.of((1, False)) * Monomial.of((1, True)) == Monomial(
        (((1, False), 1), ((1, True), 1)))


variables = st.tuples(st.integers(0, 3), st.booleans())
monomials = st.lists(variables, max_size=4).map(lambda vs: Monomial.of(*vs))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=5).map(ConjPolynomial)


@given(polys, polys, polys)
def test_polynomials_form_a_commutative_ring(p, q, r):
    zero, one = ConjPolynomial.zero(), ConjPolynomial.const(1)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + zero == p
    assert p - p == zero
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * one == p
    assert p * zero == zero
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_polynomial_conjugation_is_a_ring_involution(p, q):
    assert p.conjugate().conjugate() == p
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()


@given(polys, polys)
def test_polynomial_hash_is_consistent_with_equality(p, q):
    if p == q:
        assert hash(p) == hash(q)
    assert p == ConjPolynomial(dict(p.terms()))


def test_polynomial_coefficients_and_degree():
    x0 = ConjPolynomial.variable(0)
    x1c = ConjPolynomial.variable(1, conjugated=True)
    p = x0 * x0 + x0 * x1c * ConjPolynomial.const(2) - ConjPolynomial.const(5)
    assert p.coefficient(Monomial.of((0, False), (0, False))) == 1
    assert p.coefficient(Monomial.of((0, False), (1, True))) == 2
    assert p.coefficient(Monomial.unit()) == -5
    assert p.coefficient(Monomial.of((2, False))) == 0
    assert p.degree == 2
    assert not p.is_homogeneous()
    assert (x0 * x0 + x0 * x1c).is_homogeneous()
    assert ConjPolynomial.zero().is_homogeneous()


def test_polynomial_printing():
    x0 = ConjPolynomial.variable(0)
    x2c = ConjPolynomial.variable(2, conjugated=True)
    assert str(ConjPolynomial.zero()) == "0"
    assert str(ConjPolynomial.const(-3)) == "-3"
    assert str(x0) == "x0"
    assert str(x2c) == "x2~"
    p = ConjPolynomial.const(2) - x0 * x2c * ConjPolynomial.const(3) + x0 * x0
    assert str(p) == "2 - 3*x0*x2~ + x0^2"
    assert str(x0 + ConjPolynomial.const(0)) == "x0"


def test_zero_coefficients_are_dropped():
    x0 = ConjPolynomial.variable(0)
    p = x0 - x0
    assert p.is_zero and list(p.terms()) == []
    assert p == ConjPolynomial.zero()
    assert ConjPolynomial({Monomial.unit(): 0}) == ConjPolynomial.zero()


def test_poly_ring_interface():
    ring = ConjPolynomialRing()
    x = ConjPolynomial.variable(4)
    assert ring.add(x, ring.zero) == x
    assert ring.mul(ring.one, x) == x
    assert ring.conj(x) == ConjPolynomial.variable(4, conjugated=True)
    assert ring.from_int(7) == ConjPolynomial.const(7)
    assert ring.is_zero(ring.from_int(0))
    with pytest.raises(NotImplementedError):
        ring.sample(None)


def test_gauss_ring_interface():
    ring = GaussianIntegerRing()
    a, b = GaussianInt(2, 3), GaussianInt(-1, 4)
    assert ring.add(a, b) == GaussianInt(1, 7)
    assert ring.mul(a, b) == GaussianInt(-14, 5)
    assert ring.conj(a) == GaussianInt(2, -3)
    assert ring.add(a, ring.zero) == a and ring.mul(ring.one, a) == a
    assert ring.eq(a, GaussianInt(2, 3)) and not ring.eq(a, b)
    assert ring.is_zero(ring.from_int(0)) and not ring.is_zero(ring.one)


def test_float_ring_interface():
    ring = ComplexFloatRing(1e-9)
    a, b = 2 + 3j, -1 + 4j
    assert ring.add(a, b) == 1 + 7j
    assert ring.mul(a, b) == -14 + 5j
    assert ring.conj(a) == 2 - 3j
    assert ring.add(a, ring.zero) == a and ring.mul(ring.one, a) == a
    assert ring.eq(ring.mul(a, b), -14 + 5j + 1e-12)  # within the tolerance
    assert not ring.eq(a, a + 1e-6)
    assert ring.is_zero(1e-12 + 0j) and not ring.is_zero(ring.one)


def test_multilinear_zero_and_one_are_fresh_dicts():
    ring = MultilinearRing()
    zero, one = ring.zero, ring.one
    zero[1] = 5
    one[0] = 7
    assert ring.zero == {} and ring.one == {0: 1}
    assert ring.zero is not ring.zero and ring.one is not ring.one


def test_float_eq_compares_values_whose_modulus_overflows():
    ring = ComplexFloatRing()
    big = complex(1.7e308, 1.7e308)
    assert not ring.eq(big, 0j) and not ring.eq(0j, big)
    assert ring.eq(big, big) and ComplexFloatRing(0.0).eq(big, big)
    assert ring.eq(big, big * (1 + 1e-12))
    assert not ring.eq(big, complex(1.7e308, -1.7e308))
