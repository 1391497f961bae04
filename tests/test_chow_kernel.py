"""Differential tests for the integer per-cone kernel of `chow` against its
Fraction reference in `naive_oracle`: ray and divisor products, pairings
and the pairing walk's witness, the pairing matrix and the cap product,
on hypothesis-drawn classes with int and rational coefficients.  Also
the int-only run on unimodular fans, and a rational class that stays a
Fraction."""

import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chowfans import chow
from chowfans.chow import (ChowElement, MinkowskiWeight, cap_product, degree,
                           divisor, fundamental_weight, multiply_by_divisor,
                           nonzero_pairing_witness, pair_all, ray_class,
                           ray_coefficients)
from chowfans.fans import bergman_fan, permutohedral_fan, projective_bundle_fan
from chowfans.matroid import matroid_uniform, pyramid_matroid
from chowfans.rings import FanRingModel
from naive_oracle import (reference_cap_product, reference_degree,
                          reference_multiply_by_divisor,
                          reference_multiply_by_ray, reference_pair_all,
                          reference_pairings)

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
    got = multiply_by_divisor(elem, ray_class(fan, rho))
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


# every row of bundle-U(3,4) by the Fraction walk takes 8 s; the drawn rows
# of test_pairing_matrix_rows_match_fraction_walk cover it
@pytest.mark.parametrize("name", [n for n in FAN_BUILDERS
                                  if n != "bundle-U(3,4)"])
def test_pairing_matrix_walked_by_column_equals_the_row_walks(name):
    """For every k <= top/2, the pairing matrix, filled one column at a
    time by the walk of each (top-k)-cone to depth k, equals the matrix
    of the Fraction walks of its rows, each k-cone to depth top-k."""
    fan = fan_of(name)
    n = fan.top_dim
    for k in range(n // 2 + 1):
        rows, cols, mat = chow._pairing_matrix(fan, k)
        assert rows == fan.cones_of_dim(k) and cols == fan.cones_of_dim(n - k)
        want = [reference_pair_all(fan, k, {sigma: 1}) for sigma in rows]
        assert mat == [[row[tau] for tau in cols] for row in want]
        assert exact(x for row in mat for x in row)


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


def test_rational_class_stays_fraction():
    """On perm(3), a class with a rational coefficient times an int
    divisor: a Fraction where the product is not integral, an int where
    it is, and a Fraction degree."""
    fan = permutohedral_fan(3)
    elem = ChowElement(fan, 1, {(0,): Fraction(1, 3), (2,): 2})
    a = [1, -2, 3, 0, -1, 2]
    got = multiply_by_divisor(elem, divisor(fan, a))
    assert got.terms == reference_multiply_by_divisor(fan, elem.terms, a)
    assert got.terms == {(0, 4): Fraction(-2, 3), (2, 4): -2, (2, 5): -2}
    assert type(got.terms[(0, 4)]) is Fraction
    assert type(got.terms[(2, 4)]) is int
    assert exact(got.terms.values())
    assert degree(got) == reference_degree(fan, got.terms) == Fraction(-14, 3)
    assert type(degree(got)) is Fraction
