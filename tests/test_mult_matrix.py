"""mult_matrix, the one multiplication every ring model implements, against
reference products that build no multiplication matrix: cone monomials
multiplied in the fan's Chow ring and read back with to_vector, and for a
bundle ring the zeta polynomial of the component products reduced by the
relation from its highest power down.  Every model returns the scaled form
(A, den), int rows over a positive int, and so does its gram, checked
against the Gram read off mult_matrix as Fractions."""

import functools
import random
from fractions import Fraction

import pytest

from chowfans import linalg
from chowfans.chow import _pairing_matrix
from chowfans.fans import bergman_fan, permutohedral_fan
from chowfans.kahler import (candidate_schedule, chern_vectors,
                             matroid_bundle_model,
                             restricted_multi_bundle_model)
from chowfans.matroid import matroid_uniform, pyramid_matroid
from chowfans.rings import (FanRingModel, GradedModel, QuotientRingModel,
                            quotient_by_ann_segre)
from naive_oracle import reference_gram, reference_multiply, unscaled


def bundle(r, n):
    return matroid_bundle_model(n, matroid_uniform(r, n))[0]


def quotient(r, n):
    base = FanRingModel(permutohedral_fan(n))
    return quotient_by_ann_segre(
        base, chern_vectors(base, matroid_uniform(r, n), via="negation"))


def two_bundles():
    M = matroid_uniform(2, 3)
    return restricted_multi_bundle_model(M, [M, M])[0]


MODELS = {
    "perm(3)": lambda: FanRingModel(permutohedral_fan(3)),
    "pyramid": lambda: FanRingModel(bergman_fan(pyramid_matroid())),
    "U(1,4)-bundle": lambda: bundle(1, 4),
    "U(2,3)-bundle": lambda: bundle(2, 3),
    "U(3,4)-bundle": lambda: bundle(3, 4),
    "two-bundles": two_bundles,
    "U(2,4)-quotient": lambda: quotient(2, 4),
    "U(3,4)-quotient": lambda: quotient(3, 4),
}


@functools.lru_cache(maxsize=None)
def model(name):
    return MODELS[name]()


def unit(d, j):
    return [Fraction(int(i == j)) for i in range(d)]


@pytest.mark.parametrize("name", list(MODELS))
def test_every_column_matches_reference(name):
    m = model(name)
    n = m.top
    for d in range(n + 1):
        for k in range(n + 1):
            rows, cols = m.dim(k + d), m.dim(k)
            for j in range(m.dim(d)):
                a, den = m.mult_matrix(d, unit(m.dim(d), j), k)
                assert type(den) is int and den > 0
                assert all(type(x) is int for row in a for x in row)
                mat = unscaled((a, den))
                assert len(mat) == rows
                assert all(len(row) == cols for row in mat)
                for i in range(cols):
                    want = reference_multiply(m, d, unit(m.dim(d), j),
                                              k, unit(cols, i))
                    assert [row[i] for row in mat] == want, \
                        (d, j, k, i)


def dense(rng, d):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]


@pytest.mark.parametrize("name", list(MODELS))
def test_multiply_on_dense_vectors_matches_reference(name):
    m = model(name)
    rng = random.Random(name)
    for k1 in range(m.top + 1):
        for k2 in range(m.top + 1 - k1):
            v1, v2 = dense(rng, m.dim(k1)), dense(rng, m.dim(k2))
            want = reference_multiply(m, k1, v1, k2, v2)
            assert m.multiply(k1, v1, k2, v2) == want, (k1, k2)
            assert m.multiply(k2, v2, k1, v1) == want, (k2, k1)
    assert m.multiply(1, dense(rng, m.dim(1)), m.top, unit(m.dim(m.top), 0)) \
        == []


# the weights of the Kahler candidates, with denominators 7, 3 and 2
WEIGHTS = sorted({w for pair in candidate_schedule(8) for w in pair})


def scheduled(rng, d):
    """A vector of signed candidate weights and zeros, led by t = 1/7."""
    v = [rng.choice([-1, 1]) * rng.choice(WEIGHTS + [0]) for _ in range(d)]
    return [Fraction(1, 7)] + v[1:] if v else v


@pytest.mark.parametrize("name", list(MODELS))
def test_multiplication_out_of_degree_zero_is_the_class(name, monkeypatch):
    """mult_matrix(d, w, 0) is the one column w * 1 of the reference, for
    dense and scheduled w of every degree, int rows over a positive int,
    and the fan model under it builds no T_j for it."""
    m = model(name)
    rng = random.Random(name)

    def refuse(*args):
        raise AssertionError("T_j built out of degree 0")

    for ring in fan_models([name]):
        monkeypatch.setattr(ring, "_monomial_columns", refuse)
    for d in range(m.top + 1):
        for w in (dense(rng, m.dim(d)), scheduled(rng, m.dim(d))):
            a, den = m.mult_matrix(d, w, 0)
            assert type(den) is int and den > 0
            assert all(type(x) is int for row in a for x in row)
            assert unscaled((a, den)) == [[x] for x in reference_multiply(
                m, d, w, 0, m.unit())] == [[x] for x in w], d


@pytest.mark.parametrize("name", ["perm(3)", "pyramid", "U(2,4)-quotient"])
def test_divisor_form_pairs_the_products_with_the_basis(name):
    """Column b of divisor_form(w, k) on a fan model (perm(3), the
    pyramid, and perm(4) under the quotient) holds deg(y w x_b) over the
    degree-(n-k-1) basis y, for x_b the b-th degree-k basis element, in
    every degree, by reference products alone."""
    rng = random.Random(name)
    for m in fan_models([name]):
        n = m.top
        w = scheduled(rng, m.dim(1))
        for k in range(n):
            a, den = m.divisor_form(w, k)
            assert type(den) is int and den > 0
            assert all(type(x) is int for row in a for x in row)
            d = m.dim(n - k - 1)
            want = [[m.deg(reference_multiply(
                m, n - k - 1, unit(d, j), k + 1,
                reference_multiply(m, 1, w, k, unit(m.dim(k), b))))
                for b in range(m.dim(k))] for j in range(d)]
            assert unscaled((a, den)) == want, k


@pytest.mark.parametrize("name", list(MODELS))
def test_products_with_the_schedule_denominators_match_reference(name):
    m = model(name)
    rng = random.Random(name)
    for k1 in range(m.top + 1):
        for k2 in range(m.top + 1 - k1):
            v1, v2 = scheduled(rng, m.dim(k1)), scheduled(rng, m.dim(k2))
            assert m.multiply(k1, v1, k2, v2) == \
                reference_multiply(m, k1, v1, k2, v2), (k1, k2)
            mat = unscaled(m.mult_matrix(k1, v1, k2))
            for i in range(m.dim(k2)):
                assert [row[i] for row in mat] == reference_multiply(
                    m, k1, v1, k2, unit(m.dim(k2), i)), (k1, k2, i)


@pytest.mark.parametrize("name", ["perm(3)", "pyramid", "U(2,3)-bundle"])
def test_basis_products_are_integer_columns(name):
    """Every T_j a fan model caches, here or under a bundle ring, holds
    integers over one denominator."""
    m = model(name)
    for d in range(m.top + 1):
        for k in range(m.top + 1 - d):
            for j in range(m.dim(d)):
                m.mult_matrix(d, unit(m.dim(d), j), k)
    fan_model = getattr(m, "base", m)
    assert fan_model._monomials
    for cols, den in fan_model._monomials.values():
        assert type(den) is int and den > 0
        assert all(type(t) is int and type(x) is int
                   for col in cols for t, x in col)


@pytest.mark.parametrize("name", [n for n in MODELS if "bundle" in n])
def test_zeta_powers_match_reference(name):
    """The companion recursion against repeated reference products by
    zeta, up to one past the top degree, where the ring is zero."""
    m = model(name)
    power = m.unit()
    for e in range(1, m.top + 2):
        power = reference_multiply(m, 1, m.zeta(), e - 1, power)
        assert m.zeta_power(e) == power, e


class IntDegreeModel(GradedModel):
    """Q[x, y] / (x^2, y^2), a duck-typed model whose deg returns a plain
    int on int vectors: deg(xy) = 2."""

    top = 2

    def dim(self, k):
        return [1, 2, 1][k] if 0 <= k <= 2 else 0

    def mult_matrix(self, d, w, k):
        rows, cols = self.dim(k + d), self.dim(k)
        if d == 0:
            mat = [[w[0] * int(i == j) for j in range(cols)]
                   for i in range(rows)]
        elif d == 1 and k == 0:
            mat = [[x] for x in w]
        elif d == 1 and k == 1:
            mat = [[w[1], w[0]]]  # w x = w_1 xy and w y = w_0 xy
        elif d == 2 and k == 0:
            mat = [[w[0]]]
        else:
            mat = [[0] * cols for _ in range(rows)]
        return linalg.scaled_integer(mat)

    def deg(self, v):
        return 2 * v[0]


def test_int_degrees_stay_fractions():
    """An int degree of an int column is divided by den, or by the first
    quotient degree, exactly: the reference Gram holds Fractions, since
    int / int would make a float, and gram holds ints over one den."""
    base = IntDegreeModel()
    assert type(base.deg([1])) is int
    quotient = QuotientRingModel(base, 1, [Fraction(1), Fraction(2)])
    assert quotient._degrees
    assert all(type(x) is Fraction for x in quotient._degrees)
    for m in (base, quotient):
        for k in range(m.top + 1):
            gram = reference_gram(m, k)
            assert gram and all(type(x) is Fraction
                                for row in gram for x in row), k
            a, den = m.gram(k)
            assert type(den) is int and den > 0
            assert all(type(x) is int for row in a for x in row)
            assert unscaled((a, den)) == gram, k
        a, den = m.mult_matrix(1, unit(m.dim(1), 0), 0)
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in a for x in row)


@pytest.mark.parametrize("name", list(MODELS))
def test_gram_matches_reference(name):
    """gram(k) is the Gram read off mult_matrix, as int rows over a
    positive int, in every degree."""
    m = model(name)
    for k in range(m.top + 1):
        a, den = m.gram(k)
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in a for x in row)
        assert unscaled((a, den)) == reference_gram(m, k), k


TOWERS = {
    "U(1,4)": lambda: bundle(1, 4),
    "U(2,3)": lambda: bundle(2, 3),
    "U(3,4)": lambda: bundle(3, 4),
    "U(3,3)-three-storeys": lambda: restricted_multi_bundle_model(
        matroid_uniform(3, 3), [matroid_uniform(3, 3)] * 3)[0],
    "U(3,4)-with-U(2,4)x2": lambda: restricted_multi_bundle_model(
        matroid_uniform(3, 4), [matroid_uniform(2, 4)] * 2)[0],
}


@pytest.mark.parametrize("name", list(TOWERS))
def test_bundle_gram_is_built_from_base_grams(name, monkeypatch):
    """A bundle ring's G_k, for storeys of rank r = 1, 2 and 3 and towers
    of two and three storeys, is assembled from the base Grams: the walk
    of one mult_matrix per complementary basis element never runs, and
    the result is the reference Gram in every degree."""
    m = TOWERS[name]()

    def refuse(*args):
        raise AssertionError("gram walked the complementary basis")

    monkeypatch.setattr(GradedModel, "gram", refuse)
    grams = [m.gram(k) for k in range(m.top + 1)]
    monkeypatch.undo()
    for k, (a, den) in enumerate(grams):
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in a for x in row)
        assert unscaled((a, den)) == reference_gram(m, k), k


def fan_models(names=MODELS):
    """Every FanRingModel of the named MODELS, bundle and quotient bases
    included."""
    out = {}
    for name in names:
        ring = model(name)
        while not isinstance(ring, FanRingModel):
            ring = ring.base
        out[id(ring)] = ring
    return list(out.values())


def test_gram_inverse_is_shared_by_complementary_degrees():
    """Above the middle the solve reuses the rows of the inverse of the
    complementary degree, and the pairing rows are columns of its pairing
    matrix; they equal the pairing matrix of every degree restricted to the
    complementary basis cones, and the inverse of G_k^T taken in every
    degree on its own, over the den of those pairing rows."""
    for m in fan_models():
        for k in range(m.top + 1):
            rows, cols, mat = _pairing_matrix(m.fan, k)
            at = {c: j for j, c in enumerate(cols)}
            pick = [at[c] for c in m.basis_cones(m.top - k)]
            scaled, den = linalg.scaled_integer(
                [[row[j] for j in pick] for row in mat])
            assert m._pairing_rows[k] == ({
                s: [(j, x) for j, x in enumerate(r) if x]
                for s, r in zip(rows, scaled)}, den), k
            inv, inv_den = linalg.scaled_inverse(
                [list(col) for col in zip(*unscaled(m.gram(k)))])
            assert m._solve[k] == (
                [list(col) for col in zip(*inv)], inv_den), k


def test_fan_model_gram_builds_no_basis_products(monkeypatch):
    """A fan model's gram is the Gram of its graded basis: no T_j."""
    m = FanRingModel(bergman_fan(pyramid_matroid()))

    def refuse(*args):
        raise AssertionError("gram built a basis product")

    monkeypatch.setattr(m, "_monomial_columns", refuse)
    grams = [m.gram(k) for k in range(m.top + 1)]
    monkeypatch.undo()
    assert not m._monomials
    assert [unscaled(g) for g in grams] == \
        [reference_gram(m, k) for k in range(m.top + 1)]
