from fractions import Fraction

import pytest

from chowfans.chow import (ChowElement, DegreeMismatch, FanMismatch,
                           MinkowskiWeight, UnbalancedInput, cap_product,
                           degree, divisor, fundamental_weight,
                           linear_relation_class, multiply_by_divisor,
                           multiply_by_monomial, pair_all, ray_class,
                           ray_coefficients, unit_class)
from chowfans import linalg
from chowfans.fans import (bergman_fan, bipermutohedral_fan, permutohedral_fan,
                           projective_bundle_fan)
from chowfans.matroid import matroid_from_graph, matroid_uniform, pyramid_matroid
from chowfans.rings import FanRingModel

from naive_oracle import NaiveQuotient, pair, reference_graded_basis, unscaled


def oracle_instances():
    return [
        ("permutohedral3", permutohedral_fan(3)),
        ("bergman-u23", bergman_fan(matroid_uniform(2, 3))),
        ("bundle-u23", projective_bundle_fan(3, matroid_uniform(2, 3))),
        ("bundle-u13", projective_bundle_fan(3, matroid_uniform(1, 3))),
    ]


@pytest.mark.parametrize("name,fan", oracle_instances())
def test_graded_dims_match_naive_quotient(name, fan):
    oracle = NaiveQuotient(fan)
    model = FanRingModel(fan)
    for k in range(fan.top_dim + 1):
        assert model.dim(k) == oracle.dim(k), (name, k)


@pytest.mark.parametrize("name,fan", oracle_instances())
def test_all_pairings_match_naive_quotient(name, fan):
    oracle = NaiveQuotient(fan)
    n = fan.top_dim
    ref = fan.maximal_cones[0]
    ref_degree = degree(ChowElement(fan, n, {ref: Fraction(1)}))
    for k in range(n + 1):
        for sigma in fan.cones_of_dim(k):
            elem = ChowElement(fan, k, {sigma: Fraction(1)})
            got = pair_all(elem)
            for tau in fan.cones_of_dim(n - k):
                want = oracle.pair(sigma, tau, ref, ref_degree)
                assert got[tau] == want, (name, sigma, tau)


def test_permutohedral_dims():
    model = FanRingModel(permutohedral_fan(3))
    assert [model.dim(k) for k in range(3)] == [1, 4, 1]
    model4 = FanRingModel(permutohedral_fan(4))
    dims = [model4.dim(k) for k in range(4)]
    assert dims == [1, 11, 11, 1]
    assert sum(dims) == 24


def test_degree_of_maximal_cone_monomials():
    fan = permutohedral_fan(3)
    for sigma in fan.maximal_cones:
        elem = ChowElement(fan, 2, {sigma: Fraction(1)})
        assert degree(elem) == 1


def test_degree_requires_top_dimension():
    fan = permutohedral_fan(3)
    elem = unit_class(fan)
    with pytest.raises(DegreeMismatch):
        degree(elem)


def test_linear_relation_classes_pair_to_zero():
    fan = projective_bundle_fan(3, matroid_uniform(2, 3))
    # functionals vanishing on the two lineality generators
    m = [Fraction(1), Fraction(-1), Fraction(0),
         Fraction(0), Fraction(0), Fraction(0)]
    D = linear_relation_class(fan, m)
    elem = multiply_by_divisor(unit_class(fan), D)
    assert set(pair_all(elem).values()) == {0}


def test_divisor_is_a_degree_one_element():
    fan = permutohedral_fan(3)
    a = [Fraction(i % 3 - 1, 2) for i in range(len(fan.rays))]
    D = divisor(fan, a)
    assert D.degree == 1 and len(D.terms) == len(a) - a.count(0)
    assert ray_coefficients(D) == a
    assert ray_coefficients(D - D) == [0] * len(a)
    with pytest.raises(FanMismatch):
        divisor(fan, a[:-1])
    with pytest.raises(DegreeMismatch):
        ray_coefficients(unit_class(fan))


def test_multiplication_is_commutative_under_pairing():
    fan = permutohedral_fan(3)
    a = ray_class(fan, 0)
    b = ray_class(fan, 3)
    ab = multiply_by_divisor(multiply_by_divisor(unit_class(fan), a), b)
    ba = multiply_by_divisor(multiply_by_divisor(unit_class(fan), b), a)
    assert degree(ab) == degree(ba)
    assert pair_all(ab) == pair_all(ba)


def test_pair_all_agrees_with_pair():
    fan = projective_bundle_fan(3, matroid_uniform(2, 3))
    sigma = fan.cones_of_dim(1)[0]
    elem = ChowElement(fan, 1, {sigma: Fraction(1)})
    bulk = pair_all(elem)
    for tau in fan.cones_of_dim(fan.top_dim - 1):
        assert bulk[tau] == pair(elem, tau)


def test_graded_basis_gram_is_invertible():
    from chowfans.linalg import rank
    model = FanRingModel(projective_bundle_fan(3, matroid_uniform(2, 3)))
    n = model.top
    for k in range(n + 1):
        gram, _ = model.gram(k)
        assert len(model.basis_cones(k)) == len(model.basis_cones(n - k))
        if gram:
            assert rank(gram) == len(gram)


def test_cap_product_with_relation_class_is_zero():
    fan = permutohedral_fan(3)
    m = [Fraction(2), Fraction(-1), Fraction(-1)]
    D = linear_relation_class(fan, m)
    w = cap_product(fundamental_weight(fan), D)
    assert w.values == {}


def test_unbalanced_weight_rejected():
    fan = permutohedral_fan(3)
    values = dict(fan.weight)
    values[fan.maximal_cones[0]] = Fraction(5)
    with pytest.raises(UnbalancedInput):
        MinkowskiWeight(fan, fan.top_dim, values)


def test_multiply_by_monomial_kills_non_cones():
    fan = permutohedral_fan(3)
    # two incomparable subsets never form a cone
    s1 = fan.ray_index[0b001]
    s2 = fan.ray_index[0b010]
    elem = multiply_by_monomial(unit_class(fan), (s1,))
    elem = multiply_by_monomial(elem, (s2,))
    assert all(v == 0 for v in pair_all(elem).values())


K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

BASIS_FANS = {
    "perm3": lambda: permutohedral_fan(3),
    "perm4": lambda: permutohedral_fan(4),
    "perm5": lambda: permutohedral_fan(5),
    "bergman-pyramid": lambda: bergman_fan(pyramid_matroid()),
    "bergman-K4": lambda: bergman_fan(matroid_from_graph(K4_EDGES)),
    "biperm3": lambda: bipermutohedral_fan(3),
    "bundle-u23": lambda: projective_bundle_fan(3, matroid_uniform(2, 3)),
    "bundle-u24": lambda: projective_bundle_fan(4, matroid_uniform(2, 4)),
}


@pytest.mark.parametrize("name", list(BASIS_FANS))
def test_graded_basis_matches_two_elimination_reference(monkeypatch, name):
    """The model's bases, complementary bases and Gram matrices in every
    degree agree exactly with two eliminations per degree, from one
    elimination per complementary pair."""
    fan = BASIS_FANS[name]()
    n = fan.top_dim
    calls = []

    def counting_basis_minor(m):
        calls.append(len(m))
        return basis_minor(m)

    basis_minor = linalg.basis_minor
    monkeypatch.setattr(linalg, "basis_minor", counting_basis_minor)
    model = FanRingModel(fan)
    monkeypatch.undo()
    assert len(calls) == n // 2 + 1
    for k in range(n + 1):
        got = (model.basis_cones(k), model.basis_cones(n - k),
               unscaled(model.gram(k)))
        assert got == reference_graded_basis(fan, k), k
