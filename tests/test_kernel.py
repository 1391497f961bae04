"""Differential tests for the per-cone dual basis and everything derived
from it: representatives, balancing, divisor and ray products, and the
pairing walk; plus the exact inverse and inertia in `linalg`."""

import random
from fractions import Fraction

import pytest

from chowfans import linalg
from chowfans.chow import (ChowElement, DivisorClass, multiply_by_divisor,
                           multiply_by_ray, nonzero_pairing_witness, pair_all)
from chowfans.fans import (bergman_fan, check_balanced, permutohedral_fan,
                           projective_bundle_fan)
from chowfans.matroid import matroid_uniform


def kernel_fans():
    return [
        ("perm3", permutohedral_fan(3)),
        ("perm4", permutohedral_fan(4)),
        ("bergman-u24", bergman_fan(matroid_uniform(2, 4))),
        ("bundle-u23", projective_bundle_fan(3, matroid_uniform(2, 3))),
    ]


FANS = pytest.mark.parametrize("name,fan", kernel_fans(),
                               ids=[n for n, _ in kernel_fans()])


def dot(m, v):
    return sum(a * b for a, b in zip(m, v))


def representative(fan, cone, values):
    """The functional of the dual basis, spread over the ambient space."""
    pivots, dual = fan.dual_basis(cone)
    lin = len(fan.lineality)
    m = [0] * fan.ambient_dim
    for f, v in zip(dual[lin:], values):
        for p, x in zip(pivots, f):
            m[p] += v * x
    return m


def rank_violations(fan, dim, values):
    """Balancing by two rank computations per cone, the reference."""
    out = []
    for tau in fan.cones_of_dim(dim - 1):
        total = [Fraction(0)] * fan.ambient_dim
        touched = False
        for rho in fan.cone_extensions(tau):
            w = values.get(tuple(sorted(tau + (rho,))), 0)
            if w:
                touched = True
                total = [t + w * x for t, x in zip(total, fan.rays[rho])]
        span = fan.lineality + [fan.rays[i] for i in tau]
        if touched and linalg.rank(span + [total]) != linalg.rank(span):
            out.append(tau)
    return out


@FANS
def test_representative_takes_the_values_and_kills_lineality(name, fan):
    rng = random.Random(name)
    for cone in sorted(fan.cones):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in cone]
        m = representative(fan, cone, values)
        assert [dot(m, fan.rays[i]) for i in cone] == values, cone
        assert all(dot(m, v) == 0 for v in fan.lineality), cone


@FANS
def test_balancing_matches_rank_reference(name, fan):
    rng = random.Random(name)
    top = fan.top_dim
    values = {c: Fraction(1) for c in fan.maximal_cones}
    assert check_balanced(fan, top, values) == []
    assert rank_violations(fan, top, values) == []
    for _ in range(3):
        values[rng.choice(fan.maximal_cones)] += Fraction(rng.randint(1, 3), 2)
        got = check_balanced(fan, top, values)
        assert got == rank_violations(fan, top, values)
        assert got


@FANS
def test_divisor_product_is_sum_of_ray_products(name, fan):
    rng = random.Random(name)
    a = [Fraction(rng.randint(-2, 2)) for _ in fan.rays]
    D = DivisorClass(fan, a)
    for cone in sorted(fan.cones):
        if len(cone) == fan.top_dim:
            continue
        x = ChowElement(fan, len(cone), {cone: Fraction(1)})
        by_rays = ChowElement(fan, len(cone) + 1)
        for rho, coef in enumerate(a):
            if coef:
                by_rays = by_rays + multiply_by_ray(x, rho) * coef
        assert pair_all(multiply_by_divisor(x, D)) == pair_all(by_rays), cone


@FANS
def test_witness_is_first_nonzero_of_the_walk(name, fan):
    rng = random.Random(name)
    for k in range(fan.top_dim + 1):
        cones = fan.cones_of_dim(k)
        for _ in range(5):
            picked = rng.sample(cones, min(3, len(cones)))
            terms = {c: Fraction(rng.randint(-1, 1)) for c in picked}
            elem = ChowElement(fan, k, terms)
            walk = pair_all(elem)
            first = next((tau for tau, v in walk.items() if v != 0), None)
            assert nonzero_pairing_witness(elem) == first


def test_invert_is_exact_on_integers():
    inv = linalg.invert([[3, 1], [1, 1]])
    assert inv == [[Fraction(1, 2), Fraction(-1, 2)],
                   [Fraction(-1, 2), Fraction(3, 2)]]
    assert all(type(x) in (int, Fraction) for row in inv for x in row)
    unimodular = linalg.invert([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unimodular == [[1, -1, 1], [0, 1, -1], [0, 0, 1]]
    assert all(type(x) is int for row in unimodular for x in row)


@pytest.mark.parametrize("m, expected", [
    ([[0, 1], [1, 0]], (1, 1, 0)),      # zero diagonal: needs the 2x2 step
    ([[1, 0, 0], [0, -2, 0], [0, 0, 0]], (1, 1, 1)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([], (0, 0, 0)),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
    ([[0, 0, 2], [0, 0, -1], [2, -1, 0]], (1, 1, 1)),   # eigenvalues ±√5, 0
    ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], (1, 1, 0)),
], ids=["hyperbolic", "diagonal", "zero", "empty", "all-ones-minus-I",
        "zero-diagonal-singular", "fractions"])
def test_inertia(m, expected):
    before = [list(row) for row in m]
    assert linalg.inertia(m) == expected
    assert m == before
