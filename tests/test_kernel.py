"""Differential tests for the per-cone functional and everything derived
from it: representatives, balancing, divisor and ray products, and the
pairing walk; for the integer solves of the ring models against their
Fraction references; plus the fraction-free echelon form and inverse of
`linalg`, its integer product of scaled forms and fraction-free inertia
against their Fraction references, its one-pass basis minor against two
eliminations, and its lattice index against the gcd of every maximal
minor; and its two fraction-free kernels, which rewrite only the rows a
pivot reaches, against the dense eliminations that rewrite every row,
byte for byte."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowfans import chow, linalg, rings
from chowfans.chow import (ChowElement, divisor, multiply_by_divisor,
                           nonzero_pairing_witness, pair_all)
from chowfans.fans import (bergman_fan, check_balanced, permutohedral_fan,
                           projective_bundle_fan)
from chowfans.kahler import chern_vectors
from chowfans.matroid import matroid_uniform, pyramid_matroid
from chowfans.rings import FanRingModel, quotient_by_ann_segre
from naive_oracle import (mat_mul, reference_basis_minor,
                          reference_coordinates, reference_dense_bareiss,
                          reference_dense_inertia, reference_inertia,
                          reference_invert, reference_lattice_index,
                          reference_multiply_by_ray, reference_projection,
                          reference_row_echelon, reference_weighted_sum)
from test_chow import BASIS_FANS


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


def rank_balanced(fan, tau, values):
    """Balancing around the cone tau by two rank computations: the
    weighted sum of its extensions adds no rank to the rows of the
    lineality and the rays of tau."""
    span = fan.lineality + [fan.rays[i] for i in tau]
    total = reference_weighted_sum(fan, tau, values)
    return linalg.rank(span + [total]) == linalg.rank(span)


def rank_violations(fan, dim, values):
    """Balancing by two rank computations per cone, the reference."""
    return [tau for tau in fan.cones_of_dim(dim - 1)
            if not rank_balanced(fan, tau, values)]


@FANS
def test_representative_takes_the_values_and_kills_lineality(name, fan):
    rng = random.Random(name)
    for cone in sorted(fan.cones):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in cone]
        m = fan._functional(cone, values)
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
    D = divisor(fan, a)
    for cone in sorted(fan.cones):
        if len(cone) == fan.top_dim:
            continue
        x = ChowElement(fan, len(cone), {cone: Fraction(1)})
        by_rays = ChowElement(fan, len(cone) + 1)
        for rho, coef in enumerate(a):
            if coef:
                by_rays = by_rays + ChowElement(
                    fan, len(cone) + 1,
                    reference_multiply_by_ray(fan, x.terms, rho)) * coef
        assert multiply_by_divisor(x, D).terms == by_rays.terms, cone


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


# non-integer coefficients make the pairings non-integral, so the integer
# solve has a vector denominator to clear
COEFFS = [Fraction(1), Fraction(1, 3), Fraction(-5, 7), Fraction(2)]


def random_vectors(rng, d, count=4):
    return [[rng.choice(COEFFS + [0]) for _ in range(d)] for _ in range(count)]


@pytest.mark.parametrize("name,fan", [
    ("perm3", permutohedral_fan(3)),
    ("perm4", permutohedral_fan(4)),
    ("bergman-pyramid", bergman_fan(pyramid_matroid())),
], ids=["perm3", "perm4", "bergman-pyramid"])
def test_to_vector_matches_fraction_solve(name, fan):
    model = FanRingModel(fan)
    rng = random.Random(name)
    for k in range(model.top + 1):
        solve = reference_coordinates(model, k)
        cones = fan.cones_of_dim(k)
        elems = [ChowElement(fan, k, {c: Fraction(1)}) for c in cones]
        for coeffs in random_vectors(rng, len(cones), count=5):
            elems.append(ChowElement(fan, k, dict(zip(cones, coeffs))))
        for elem in elems:
            got = model.to_vector(elem)
            assert got == solve(elem), (k, elem.terms)
            assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("name,fan", [
    ("perm3", permutohedral_fan(3)),
    ("perm4", permutohedral_fan(4)),
    ("bergman-pyramid", bergman_fan(pyramid_matroid())),
], ids=["perm3", "perm4", "bergman-pyramid"])
def test_coordinates_and_degrees_need_no_pairing_walk(monkeypatch, name, fan):
    """Once the model is built, to_vector and deg read the fan's cached
    pairing matrix: with every pairing walk patched out they still match
    the reference on every cone monomial."""
    model = FanRingModel(fan)
    monos = [ChowElement(fan, k, {c: Fraction(1)})
             for k in range(model.top + 1) for c in fan.cones_of_dim(k)]
    solves = [reference_coordinates(model, k) for k in range(model.top + 1)]
    want = [solves[m.degree](m) for m in monos]
    degrees = [chow.degree(m) for m in monos if m.degree == model.top]

    def walk(*args):
        raise AssertionError("pairing walk after the model was built")

    for module in (chow, rings):
        for fn in ("degree", "pair_all", "_pairings", "_times"):
            monkeypatch.setattr(module, fn, walk, raising=False)
    assert [model.to_vector(m) for m in monos] == want
    assert [model.deg(model.to_vector(m)) for m in monos
            if m.degree == model.top] == degrees


@pytest.mark.parametrize("r", [2, 3], ids=["U(2,4)", "U(3,4)"])
def test_project_matches_fraction_solve(r):
    base = FanRingModel(permutohedral_fan(4))
    quotient = quotient_by_ann_segre(
        base, chern_vectors(base, matroid_uniform(r, 4), via="negation"))
    rng = random.Random(r)
    for k in range(quotient.top + 1):
        solve = reference_projection(quotient, k)
        D = base.dim(k)
        ws = random_vectors(rng, D) + [
            [Fraction(int(i == j)) for i in range(D)] for j in range(D)]
        for w in ws:
            got = linalg.scaled_mat_vec(quotient._proj[k][0], w)
            assert got == solve(w), (k, w)
            assert len(got) == quotient.dim(k)
            assert all(type(x) is Fraction for x in got)


def test_scaled_integer_keeps_the_rationals():
    m = [[Fraction(1, 2), Fraction(-1, 3)], [2, 0]]
    scaled = linalg.scaled_integer(m)
    assert scaled == ([[3, -2], [12, 0]], 6)
    assert all(type(x) is int for row in scaled[0] for x in row)
    v = [Fraction(3, 5), Fraction(-1, 7)]
    got = linalg.scaled_mat_vec(scaled, v)
    assert got == [Fraction(1, 2) * v[0] + Fraction(1, 3) * Fraction(1, 7),
                   2 * v[0]]
    assert all(type(x) is Fraction for x in got)
    assert linalg.scaled_mat_vec(scaled, [0, 0]) == [0, 0]
    assert linalg.scaled_mat_vec(linalg.scaled_integer([]), []) == []


def test_invert_is_exact_on_integers():
    inv = linalg.scaled_inverse([[3, 1], [1, 1]])
    assert inv == ([[1, -1], [-1, 3]], 2)
    assert all(type(x) is int for row in inv[0] for x in row)
    unimodular = linalg.scaled_inverse([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unimodular == ([[1, -1, 1], [0, 1, -1], [0, 0, 1]], 1)
    assert all(type(x) is int for row in unimodular[0] for x in row)


@st.composite
def rational_matrices(draw, square=False,
                      entries=st.fractions(-3, 3, max_denominator=4)):
    """Matrices up to 8x8 with some rows repeated or summed from earlier
    ones, and some columns zero, so that the rank falls short."""
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
    m = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "sum"]))
        if kind == "repeat" and m:
            row = [draw(entries) * x for x in draw(st.sampled_from(m))]
        elif kind == "sum" and len(m) > 1:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            row = [x + y for x, y in zip(a, b)]
        else:
            row = [draw(entries) for _ in range(cols)]
        m.append([0 if j in zero else x for j, x in enumerate(row)])
    return m


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_row_echelon_pivots_match_fraction_elimination(m):
    want = reference_row_echelon([list(row) for row in m])
    echelon = [list(row) for row in m]
    assert linalg.row_echelon(echelon) == want
    assert linalg.rank(m) == len(want)
    # the echelon form is integral, zero below its rank, and spans the
    # row space of m
    assert all(type(x) is int for row in echelon for x in row)
    assert not any(x for row in echelon[len(want):] for x in row)
    stacked = [list(row) for row in m] + echelon[:len(want)]
    assert len(reference_row_echelon(stacked)) == len(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_row_echelon_ends_in_the_determinant(m):
    """Bareiss keeps every entry a minor: on a nonsingular integer matrix
    the last pivot is the determinant, up to sign."""
    ref = [list(row) for row in m]
    if len(reference_row_echelon(ref)) < len(m):
        return
    det = 1
    for i, row in enumerate(ref):
        det *= row[i]
    echelon = [list(row) for row in m]
    linalg.row_echelon(echelon)
    assert abs(echelon[-1][-1]) == abs(det)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(square=True) | st.just([]))
def test_scaled_inverse_matches_fraction_inverse(m):
    try:
        want = reference_invert(m)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.scaled_inverse(m)
        return
    got = linalg.scaled_inverse(m)
    assert got == linalg.scaled_integer(want)
    assert all(type(x) is int for row in got[0] for x in row)


@st.composite
def deficient_matrices(draw, entries):
    """rational_matrices with up to two more rows, each zero or a copy of
    a row, put in at drawn places."""
    m = draw(rational_matrices(entries=entries))
    extra = [[0] * len(m[0])] + m
    for row in draw(st.lists(st.sampled_from(extra), max_size=2)):
        m.insert(draw(st.integers(0, len(m))), list(row))
    return m


@settings(max_examples=300, deadline=None)
@given(deficient_matrices(st.integers(-3, 3))
       | deficient_matrices(st.fractions(-3, 3, max_denominator=4))
       | st.sampled_from([[], [[]], [[], []]]))
def test_basis_minor_matches_two_fraction_eliminations(m):
    """One elimination, pivot rows moved up in place, gives the greedy
    independent rows and columns of two separate eliminations."""
    before = linalg.mat_copy(m)
    assert linalg.basis_minor(m) == reference_basis_minor(m)
    assert m == before


def test_basis_minor_rows_are_the_first_independent_rows():
    # swapping the pivot row into place instead of moving it up would put
    # row 0 below row 1 and pick rows [1, 2]
    assert linalg.basis_minor([[0, 1], [0, 1], [1, 0]]) == ([0, 2], [0, 1])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=k, max_size=k)))
       | deficient_matrices(st.integers(-3, 3)))
def test_lattice_index_is_the_gcd_of_the_maximal_minors(rows):
    try:
        want = reference_lattice_index(rows)
    except ValueError:
        with pytest.raises(ValueError, match="dependent"):
            linalg.lattice_index(rows)
        return
    assert linalg.lattice_index(rows) == want


def test_lattice_index_skips_singular_minors():
    # the pivot columns give minor 2, and columns 1, 2 a singular minor
    # whose elimination stops at its first pivot, 3
    assert linalg.lattice_index([[2, 3, -3], [0, -1, 1]]) == 2


def test_lattice_index_needs_integer_rows():
    assert linalg.lattice_index([[2, 0], [0, 3]]) == 6
    assert linalg.lattice_index([[Fraction(2), 0], [1, 1]]) == 2
    for rows in ([[Fraction(3, 2), 0]], [[Fraction(1, 2), 1], [0, 1]]):
        with pytest.raises(ValueError, match="needs integer rows"):
            linalg.lattice_index(rows)


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


@st.composite
def symmetric_matrices(draw, entries=st.integers(-4, 4)):
    """Symmetric matrices up to 8x8; some with a forced zero diagonal,
    which only the 2*a_pq step can start eliminating."""
    n = draw(st.integers(0, 8))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    return m


@st.composite
def signed_congruences(draw):
    """(B diag(signs) B^T, signs) for an integer n x k matrix B, k <= n:
    singular whenever k < n, and of inertia (pos, neg, n - k) when B has
    rank k."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    b = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(n)]
    signs = [draw(st.sampled_from([1, -1])) for _ in range(k)]
    m = [[sum(x * s * y for x, s, y in zip(bi, signs, bj)) for bj in b]
         for bi in b]
    return m, b, signs


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_inertia_matches_fraction_elimination(m):
    assert linalg.inertia(m) == reference_inertia(m)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(st.fractions(-3, 3, max_denominator=4)))
def test_inertia_of_rational_matrices_matches_fraction_elimination(m):
    assert linalg.inertia(m) == reference_inertia(m)


@settings(max_examples=200, deadline=None)
@given(signed_congruences())
def test_inertia_of_congruences_matches_fraction_elimination(case):
    m, b, signs = case
    got = linalg.inertia(m)
    assert got == reference_inertia(m)
    if b and b[0] and linalg.rank(b) == len(signs):
        assert got == (signs.count(1), signs.count(-1), len(m) - len(signs))


def test_integer_kernels_run_no_fraction_arithmetic():
    """On integer input the inertia, the product of scaled forms, the
    echelon form, the rank and the scaled inverse call nothing in the
    fractions module."""
    rng = random.Random(0)
    a = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
    m = [[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]
    m[0][0] = m[1][1] = 0
    called = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.endswith("fractions.py"):
            called.append(code.co_name)

    sys.setprofile(profile)
    try:
        counts = linalg.inertia(m)
        product = linalg.scaled_mat_mul((a, 1), (m, 1))
        echelon = linalg.mat_copy(a)
        pivots = linalg.row_echelon(echelon)
        rank = linalg.rank(m)
        inverse = linalg.scaled_inverse(m)
    finally:
        sys.setprofile(None)
    assert called == []
    assert counts == reference_inertia(m)
    assert product == (mat_mul(a, m), 1)
    assert pivots == reference_row_echelon(linalg.mat_copy(a))
    assert rank == len(reference_row_echelon(linalg.mat_copy(m)))
    assert inverse == linalg.scaled_integer(reference_invert(m))


def test_scaled_mat_mul_matches_the_fraction_product():
    rng = random.Random(1)
    for rows, inner, cols in [(3, 4, 2), (1, 1, 1), (4, 3, 5), (2, 0, 0)]:
        a = [[rng.choice(COEFFS + [0, 0]) for _ in range(inner)]
             for _ in range(rows)]
        b = [[rng.choice(COEFFS + [0, 0]) for _ in range(cols)]
             for _ in range(inner)]
        got, den = linalg.scaled_mat_mul(linalg.scaled_integer(a),
                                         linalg.scaled_integer(b))
        assert all(type(x) is int for row in got for x in row)
        want = mat_mul(a, b) or [[0] * cols for _ in range(rows)]
        assert [[Fraction(x, den) for x in row] for row in got] == want


# mostly zeros, so that most rows skip most steps and owe their factors
SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def outcome(fn, *args):
    """fn(*args), or the ValueError it raises as (ValueError, message)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def dense_outcome(fn, *args):
    """outcome(fn, *args) with the dense elimination in place of
    linalg._bareiss."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_bareiss", reference_dense_bareiss)
        return outcome(fn, *args)


def assert_bareiss_matches_dense(m, cols, above):
    want_m, got_m = linalg.mat_copy(m), linalg.mat_copy(m)
    want = reference_dense_bareiss(want_m, cols, above)
    assert linalg._bareiss(got_m, cols, above) == want
    # repr tells an int from an equal Fraction
    assert repr(got_m) == repr(want_m)


@settings(max_examples=300, deadline=None)
@given(st.data(), deficient_matrices(SPARSE)
       | deficient_matrices(st.integers(-3, 3))
       | deficient_matrices(st.fractions(-3, 3, max_denominator=4))
       | st.sampled_from([[], [[]], [[], []]]))
def test_bareiss_matches_the_dense_elimination(data, m):
    """The pivot columns, last pivot, pivot rows and the matrix left in
    place, in both modes, on the full width and on a drawn prefix."""
    width = len(m[0]) if m else 0
    for cols in (width, data.draw(st.integers(0, width))):
        for above in (False, True):
            assert_bareiss_matches_dense(m, cols, above)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True, entries=SPARSE)
       | rational_matrices(square=True)
       | st.sampled_from([[], [[]]]))
def test_scaled_inverse_matches_the_dense_elimination(m):
    assert outcome(linalg.scaled_inverse, m) == \
        dense_outcome(linalg.scaled_inverse, m)


@settings(max_examples=200, deadline=None)
@given(deficient_matrices(SPARSE) | deficient_matrices(st.integers(-3, 3))
       | st.sampled_from([[], [[]]]))
def test_lattice_index_matches_the_dense_elimination(rows):
    assert outcome(linalg.lattice_index, rows) == \
        dense_outcome(linalg.lattice_index, rows)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(SPARSE) | symmetric_matrices()
       | symmetric_matrices(st.fractions(-3, 3, max_denominator=4))
       | signed_congruences().map(lambda case: case[0]))
def test_inertia_matches_the_dense_elimination(m):
    assert linalg.inertia(m) == reference_dense_inertia(m)


@pytest.mark.parametrize("name", list(BASIS_FANS))
def test_kernels_on_pairing_matrices_match_the_dense_elimination(name):
    """Every lower-half pairing matrix and its Gram matrix; in the middle
    degree both are symmetric, and the greedy rows and columns agree."""
    fan = BASIS_FANS[name]()
    model = rings.FanRingModel(fan)
    n = fan.top_dim
    for k in range(n // 2 + 1):
        mat = chow._pairing_matrix(fan, k)[2]
        gram = model.gram(k)[0]
        for above in (False, True):
            assert_bareiss_matches_dense(mat, len(mat[0]), above)
        for fn in (linalg.scaled_inverse, linalg.lattice_index):
            assert outcome(fn, gram) == dense_outcome(fn, gram)
        if 2 * k == n:
            assert linalg.inertia(mat) == reference_dense_inertia(mat)
            assert linalg.inertia(gram) == reference_dense_inertia(gram)
