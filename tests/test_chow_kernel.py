"""Differential tests for the integer per-cone kernel of `chow` against its
Fraction reference in `naive_oracle`: ray and divisor products, pairings
and the pairing walk's witness, the pairing matrix, the cap product and
the dual bases of `Fan.dual_basis`, on hypothesis-drawn classes with
int and rational coefficients.  Also the int-only run on unimodular fans,
and a non-unimodular fan on which degrees are halves."""

import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chowfans import chow
from chowfans.chow import (ChowElement, MinkowskiWeight, cap_product, degree,
                           divisor, fundamental_weight, multiply_by_divisor,
                           multiply_by_ray, nonzero_pairing_witness, pair,
                           pair_all, ray_coefficients)
from chowfans.fans import (Fan, FanError, bergman_fan, permutohedral_fan,
                           projective_bundle_fan)
from chowfans.matroid import matroid_uniform, pyramid_matroid
from chowfans.rings import FanRingModel
from naive_oracle import (reference_cap_product, reference_degree,
                          reference_multiply_by_divisor,
                          reference_multiply_by_ray, reference_pair_all,
                          reference_pairings, reference_pivot_inverse)
from test_fans import assert_dual_bases_match_the_elimination

FAN_BUILDERS = {
    "perm3": lambda: permutohedral_fan(3),
    "perm4": lambda: permutohedral_fan(4),
    "bundle-U(2,3)": lambda: projective_bundle_fan(3, matroid_uniform(2, 3)),
    "bundle-U(3,4)": lambda: projective_bundle_fan(4, matroid_uniform(3, 4)),
    "bergman-pyramid": lambda: bergman_fan(pyramid_matroid()),
}
FANS = pytest.mark.parametrize("name", list(FAN_BUILDERS))


@lru_cache(maxsize=None)
def fan_of(name):
    return FAN_BUILDERS[name]()


@lru_cache(maxsize=None)
def model_of(name):
    return FanRingModel(fan_of(name))


COEFFS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def classes(draw, fan):
    """(k, terms): up to three degree-k cone monomials with int or
    rational coefficients."""
    k = draw(st.integers(0, fan.top_dim))
    cones = draw(st.lists(st.sampled_from(fan.cones_of_dim(k)), min_size=1,
                          max_size=3, unique=True))
    return k, {c: draw(COEFFS) for c in cones}


def exact(values):
    """Every value is an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


@FANS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_match_fraction_reference(name, data):
    fan = fan_of(name)
    k, terms = data.draw(classes(fan))
    elem = ChowElement(fan, k, terms)
    rho = data.draw(st.integers(0, len(fan.rays) - 1))
    got = multiply_by_ray(elem, rho)
    assert got.terms == reference_multiply_by_ray(fan, terms, rho)
    assert got.degree == k + 1 and exact(got.terms.values())
    a = data.draw(st.lists(COEFFS, min_size=len(fan.rays),
                           max_size=len(fan.rays)))
    got = multiply_by_divisor(elem, divisor(fan, a))
    assert got.terms == reference_multiply_by_divisor(fan, terms, a)
    assert exact(got.terms.values())


@FANS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pairings_match_fraction_walk(name, data):
    fan = fan_of(name)
    k, terms = data.draw(classes(fan))
    elem = ChowElement(fan, k, terms)
    walk = list(reference_pairings(fan, k, terms))
    got = pair_all(elem)
    assert got == reference_pair_all(fan, k, terms)
    assert all(type(v) is Fraction for v in got.values())
    assert nonzero_pairing_witness(elem) == next(
        (tau for tau, v in walk if v != 0), None)
    if k == fan.top_dim:
        assert degree(elem) == reference_degree(fan, terms)
        assert type(degree(elem)) is Fraction


@FANS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pairing_matrix_rows_match_fraction_walk(name, data):
    """A row of the pairing matrix, and the same pairings against the
    complementary basis cones in the sparse pairing rows of the ring model:
    read off its rows up to the middle degree and off the columns of the
    complementary pairing matrix above it."""
    fan = fan_of(name)
    n = fan.top_dim
    k = data.draw(st.integers(0, n))
    sigma = data.draw(st.sampled_from(fan.cones_of_dim(k)))
    rows, cols, mat = chow._pairing_matrix(fan, k)
    want = reference_pair_all(fan, k, {sigma: 1})
    row = mat[rows.index(sigma)]
    assert row == [want[tau] for tau in cols]
    assert exact(row)
    # the pairings of these unimodular fans are ints, over den 1
    cobasis = model_of(name).basis_cones(n - k)
    pairing_rows, den = model_of(name)._pairing_rows[k]
    assert den == 1
    assert pairing_rows[sigma] == [
        (j, want[tau]) for j, tau in enumerate(cobasis) if want[tau]]


@FANS
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_cap_products_match_fraction_reference(name, data):
    """Two caps in a row of the fundamental weight times a scalar; each
    example compares the caps on every cone of two dimensions."""
    fan = fan_of(name)
    s = data.draw(COEFFS.filter(bool))
    weight = MinkowskiWeight(fan, fan.top_dim,
                             {c: s * w for c, w in fan.weight.items()})
    values = dict(weight.values)
    for dim in (fan.top_dim, fan.top_dim - 1):
        a = data.draw(st.lists(COEFFS, min_size=len(fan.rays),
                               max_size=len(fan.rays)))
        weight = cap_product(weight, divisor(fan, a))
        values = reference_cap_product(fan, dim, values, a)
        assert weight.dim == dim - 1
        assert weight.values == values
        assert exact(weight.values.values())


@FANS
def test_dual_bases_match_fraction_gauss_jordan(name):
    assert_dual_bases_match_the_elimination(FAN_BUILDERS[name]())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3),
             min_size=n + 2, max_size=n + 2), min_size=1, max_size=n)))
def test_explicit_fan_dual_basis_matches_fraction_gauss_jordan(rows):
    """The elimination behind the dual basis of a fan built from explicit
    rays, on one cone spanned by drawn rational rows."""
    cone = tuple(range(len(rows)))
    fan = Fan(len(rows[0]), [], rows, cone, [(), cone], "custom")
    try:
        pivots, inv = reference_pivot_inverse(rows)
    except ValueError:
        with pytest.raises(FanError):
            fan.dual_basis(cone)
        return
    assert fan.dual_basis(cone) == (tuple(pivots), tuple(zip(*inv)))
    assert exact(x for f in fan.dual_basis(cone)[1] for x in f)


@pytest.mark.parametrize("name", ["perm4", "bundle-U(2,3)", "bergman-pyramid"])
def test_kernel_runs_no_fraction_arithmetic_on_unimodular_fans(name):
    """Int classes on a fresh unimodular fan: the pairing matrices, divisor
    products, caps and balancing call nothing in the fractions module, and
    every value they produce is an int."""
    fan = FAN_BUILDERS[name]()
    a = [i % 3 - 1 for i in range(len(fan.rays))]
    D = divisor(fan, a)
    called = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.endswith("fractions.py"):
            called.append(code.co_name)

    sys.setprofile(profile)
    try:
        mats = [chow._pairing_matrix(fan, k)[2] for k in range(fan.top_dim + 1)]
        prod = multiply_by_divisor(multiply_by_divisor(
            ChowElement(fan, 1, {(0,): 2}), D), D)
        caps = cap_product(fundamental_weight(fan), D)
        coeffs = ray_coefficients(D)
    finally:
        sys.setprofile(None)
    assert called == []
    values = ([x for m in mats for row in m for x in row]
              + list(prod.terms.values()) + list(caps.values.values()) + coeffs
              + list(fan.weight.values()))
    assert all(type(v) is int for v in values)


def non_unimodular_fan():
    """The complete fan of Z^2 with rays (1,0), (1,2), (-1,-1): the cone
    on the first two has multiplicity 2, the other two multiplicity 1."""
    cones = [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]
    return Fan(2, [], [[1, 0], [1, 2], [-1, -1]], ["a", "b", "c"], cones,
               "custom")


def no_floats(values):
    return all(type(v) in (int, Fraction) for v in values)


def test_non_unimodular_cone_gives_exact_halves():
    fan = non_unimodular_fan()
    assert fan.cone_multiplicity((0, 1)) == 2
    x01 = ChowElement(fan, 2, {(0, 1): 1})
    assert degree(x01) == Fraction(1, 2) == reference_degree(fan, x01.terms)
    assert type(degree(x01)) is Fraction
    x0 = ChowElement(fan, 1, {(0,): 1})
    # x_0 * x_1 = x_01; x_0^2 = -x_01 + x_02 by the fan-out
    assert pair(x0, (1,)) == Fraction(1, 2)
    assert type(pair(x0, (1,))) is Fraction
    square = multiply_by_ray(x0, 0)
    assert square.terms == reference_multiply_by_ray(fan, x0.terms, 0) \
        == {(0, 1): -1, (0, 2): 1}
    assert degree(square) == Fraction(1, 2)
    assert pair_all(x0) == reference_pair_all(fan, 1, x0.terms) \
        == {(0,): Fraction(1, 2), (1,): Fraction(1, 2), (2,): 1}
    assert no_floats(pair_all(x0).values())
    assert no_floats(square.terms.values())
    pivots, dual = fan.dual_basis((0, 1))
    assert pivots == (0, 1)
    assert dual == ((1, Fraction(-1, 2)), (0, Fraction(1, 2)))
    assert exact(x for f in dual for x in f)


def test_rational_class_stays_fraction_on_non_unimodular_fan():
    fan = non_unimodular_fan()
    elem = ChowElement(fan, 1, {(0,): Fraction(1, 3), (2,): 2})
    a = [1, -2, 3]
    got = multiply_by_divisor(elem, divisor(fan, a))
    assert got.terms == reference_multiply_by_divisor(fan, elem.terms, a)
    assert got.terms == {(0, 1): -1, (0, 2): Fraction(28, 3), (1, 2): 2}
    assert type(got.terms[(0, 2)]) is Fraction
    assert no_floats(got.terms.values()) and exact(got.terms.values())
    assert degree(got) == reference_degree(fan, got.terms) == Fraction(65, 6)
    assert type(degree(got)) is Fraction
