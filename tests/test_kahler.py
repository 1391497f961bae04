import collections
import functools
import re
from fractions import Fraction

import pytest

from chowfans import kahler, linalg
from chowfans.fans import DimensionMismatch, bergman_fan, permutohedral_fan
from chowfans.kahler import (MissingConvexClass, base_convex_divisor,
                             candidate_schedule, check_pd, chern_vectors,
                             kahler_report, matroid_bundle_model,
                             restricted_multi_bundle_model,
                             sample_lefschetz_candidates)
from chowfans.matroid import (matroid_from_graph, matroid_uniform,
                              pyramid_matroid)
from chowfans.rings import BundleRing, FanRingModel, GradedModel
from naive_oracle import (mat_mul, reference_bundle_model, reference_gram,
                          reference_kahler_report, reference_lefschetz_forms,
                          reference_powers,
                          reference_restricted_chern_vectors, unscaled)

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class PointModel(GradedModel):
    """The rational cohomology of a point: everything in degree 0."""

    top = 0

    def dim(self, k):
        return 1 if k == 0 else 0

    def mult_matrix(self, d, w, k):
        return linalg.scaled_integer([[w[0]]]) if d == k == 0 else \
            ([[0] * self.dim(k) for _ in range(self.dim(k + d))], 1)

    def deg(self, v):
        return v[0]


def test_point_model_passes_trivially():
    model = PointModel()
    rep = kahler_report(model, [])
    assert rep == {"pd": True, "hl": True, "hr": True}


def test_permutohedral_model_kahler_with_support_class():
    model = FanRingModel(permutohedral_fan(3))
    h = model.to_vector(base_convex_divisor(model.fan, 3))
    assert check_pd(model)
    assert kahler_report(model, h) == {"pd": True, "hl": True, "hr": True}


def test_hr_at_zero_gives_positive_top_power():
    model = FanRingModel(permutohedral_fan(3))
    h = model.to_vector(base_convex_divisor(model.fan, 3))
    acc = list(h)
    acc = model.multiply(1, h, 1, h)
    assert model.deg(acc) > 0


def test_oriented_degree_one_flips_odd_top():
    N, M = 3, matroid_uniform(2, 3)
    B, h, zetas = matroid_bundle_model(N, M)
    ell = [a + b for a, b in zip(h, zetas[0])]
    neg = [-x for x in ell]
    fixed, _, flipped = kahler._oriented(B, neg)
    assert flipped
    assert fixed == ell


def test_oriented_degree_one_rejects_degenerate():
    model = FanRingModel(permutohedral_fan(3))
    zero = [Fraction(0)] * model.dim(1)
    with pytest.raises(MissingConvexClass):
        kahler._oriented(model, zero)


def test_candidate_schedule_is_deterministic():
    assert candidate_schedule(3) == candidate_schedule(3)
    assert candidate_schedule(3)[0] == (1, 1)
    ts = [t for _, t in candidate_schedule(3)]
    assert Fraction(1, 7) in ts and Fraction(13) in ts
    shifted = candidate_schedule(3, seed=1)
    assert shifted[0] == candidate_schedule(4)[1]


def test_bundle_model_kahler_small():
    for phi in ("identity", "negation"):
        B, h, zetas = matroid_bundle_model(3, matroid_uniform(2, 3), phi=phi)
        reports = sample_lefschetz_candidates(B, h, zetas, samples=3)
        assert len(reports) == 3
        for rep in reports:
            assert rep["pd"] and rep["hl"] and rep["hr"]


BUNDLES = [(2, 3, "identity"), (2, 3, "negation"),
           (1, 4, "identity"), (1, 4, "negation")]

# (bundle, s, t, flipped, verdict) for candidates off the schedule; the
# U(2,3) one is the out-of-cone candidate h - 3 zeta
NAMED = {
    "U(1,4)-negation-hr-fails":
        ((1, 4, "negation"), 1, -3, True, {"pd": True, "hl": True, "hr": False}),
    "U(1,4)-negation-hl-fails":
        ((1, 4, "negation"), 0, 1, False, {"pd": True, "hl": False, "hr": False}),
    "U(2,3)-identity-out-of-cone":
        ((2, 3, "identity"), 1, -3, True, {"pd": True, "hl": True, "hr": True}),
}


@functools.lru_cache(maxsize=None)
def bundle_model(r, n, phi):
    return matroid_bundle_model(n, matroid_uniform(r, n), phi=phi)


def oriented_candidate(bundle, s, t):
    B, h, zetas = bundle_model(*bundle)
    ell, _, flipped = kahler._oriented(
        B, [s * a + t * b for a, b in zip(h, zetas[0])])
    return B, (ell, flipped)


def perm3_candidate():
    model = FanRingModel(permutohedral_fan(3))
    return model, model.to_vector(base_convex_divisor(model.fan, 3))


def pyramid_candidate():
    P = pyramid_matroid()
    model = FanRingModel(bergman_fan(P))
    return model, model.to_vector(base_convex_divisor(model.fan, P.n))


def u23_candidate():
    B, h, zetas = bundle_model(2, 3, "identity")
    return B, [a + b for a, b in zip(h, zetas[0])]


def perm4_candidate():
    model = FanRingModel(permutohedral_fan(4))
    return model, model.to_vector(base_convex_divisor(model.fan, 4))


# fan models with the support class h, the maker and the signs of h to
# check; -h only where the top degree is odd, so that it can be flipped, and
# h alone on the pyramid, whose reference report takes about 0.9 s a class
FAN_CASES = {
    "perm3": (perm3_candidate, [1]),
    "perm4": (perm4_candidate, [1, -1]),
    "pyramid": (pyramid_candidate, [1]),
}


@pytest.mark.parametrize("case", BUNDLES + list(FAN_CASES),
                         ids=["U(%d,%d)-%s" % b for b in BUNDLES]
                         + list(FAN_CASES))
def test_kahler_report_matches_reference(case):
    """kahler_report agrees with the reference on every scheduled and named
    candidate of the bundle rings, and on the fan models' h and -h.  On a
    fan model the one sampled candidate of h alone (or -h), oriented, gets
    the report of the oriented class."""
    if case in FAN_CASES:
        make, signs = FAN_CASES[case]
        model, h = make()
        classes = [[sign * x for x in h] for sign in signs]
    else:
        model = bundle_model(*case)[0]
        weights = candidate_schedule(8) + [
            (s, t) for b, s, t, _, _ in NAMED.values() if b == case]
        classes = [oriented_candidate(case, s, t)[1][0] for s, t in weights]
    for ell in classes:
        assert kahler_report(model, ell) == \
            reference_kahler_report(model, ell), ell
        if case in FAN_CASES:
            (sampled,) = sample_lefschetz_candidates(model, ell, [], samples=1)
            for key in ("s", "t", "flipped"):
                del sampled[key]
            oriented, _, _ = kahler._oriented(model, ell)
            assert sampled == kahler_report(model, oriented), ell


@pytest.mark.parametrize("case", list(NAMED))
def test_named_kahler_verdicts(case):
    bundle, s, t, flipped, verdict = NAMED[case]
    B, (ell, was_flipped) = oriented_candidate(bundle, s, t)
    assert was_flipped == flipped
    assert kahler_report(B, ell) == verdict


def test_gram_matrices_are_built_once_per_model(monkeypatch):
    """The PD check and the middle form of every candidate read the model's
    Grams G_0..G_(n//2), each built once per model."""
    built = collections.Counter()
    B, h, zetas = matroid_bundle_model(3, matroid_uniform(2, 3))
    real = B.gram

    def counting_gram(k):
        built[k] += 1
        return real(k)

    monkeypatch.setattr(B, "gram", counting_gram)
    assert len(sample_lefschetz_candidates(B, h, zetas, samples=3)) == 3
    assert built == {k: 1 for k in range(B.top // 2 + 1)}


def unit(d, j):
    return [Fraction(int(i == j)) for i in range(d)]


@pytest.mark.parametrize("candidate", [perm3_candidate, u23_candidate],
                         ids=["perm3", "U(2,3)"])
def test_lefschetz_form_composes_mult_matrices(candidate):
    """Q_i = G_i L_{n-i-1} ... L_i, composed by hand from the matrices L_k
    of multiplication by ell, and its entries are deg(x ell^(n-2i) y) on
    the degree-i basis."""
    model, ell = candidate()
    n = model.top
    forms = [unscaled(q) for q in kahler._forms(model, ell)]
    assert len(forms) == n // 2 + 1
    for i, q in enumerate(forms):
        power = None
        for k in range(i, n - i):
            step = unscaled(model.mult_matrix(1, ell, k))
            power = step if power is None else mat_mul(step, power)
        gram = reference_gram(model, i)
        assert q == (mat_mul(gram, power) if power else gram), i
        d = model.dim(i)
        for c in range(d):
            y = unit(d, c)
            for k in range(i, n - i):
                y = model.multiply(1, ell, k, y)
            for a in range(d):
                x = model.multiply(i, unit(d, a), n - i, y)
                assert q[a][c] == model.deg(x), (i, a, c)


FORM_MODELS = {
    "U(2,3)-identity": lambda: bundle_model(2, 3, "identity"),
    "U(1,4)-negation": lambda: bundle_model(1, 4, "negation"),
    "pyramid": lambda: pyramid_candidate() + ([],),
    "perm4": lambda: perm4_candidate() + ([],),
    "perm3": lambda: perm3_candidate() + ([],),
}


def scheduled_classes(model, h, zetas):
    """The s*h + t*(sum of zetas) of candidate_schedule(8)."""
    for s, t in candidate_schedule(8):
        vec = [s * a for a in h]
        for z in zetas:
            vec = [a + t * b for a, b in zip(vec, z)]
        yield s, t, vec


@pytest.mark.parametrize("name", list(FORM_MODELS))
def test_lefschetz_forms_match_the_fraction_product(name):
    """The forms pulled back from the middle one, int rows over a positive
    den, are the Fraction products G_i P_i for every scheduled candidate,
    with P_i multiplication by ell^(n-2i) and ell^(n-2i) built one
    multiplication by ell at a time."""
    model, h, zetas = FORM_MODELS[name]()
    for s, t, vec in scheduled_classes(model, h, zetas):
        ell, _, _ = kahler._oriented(model, vec)
        forms = kahler._forms(model, ell)
        assert [unscaled(q) for q in forms] == \
            reference_lefschetz_forms(model, ell), (s, t)
        assert all(type(den) is int and den > 0 for _, den in forms)
        assert all(type(x) is int for a, _ in forms for row in a
                   for x in row)


@pytest.mark.parametrize("name", list(FORM_MODELS))
def test_orientation_reads_the_top_power_off_q0(name):
    """The one entry of Q_0 is deg(ell^n) of the reference powers, for
    every scheduled candidate and its negation, and it alone decides the
    flip; a flipped candidate's forms are the negated forms."""
    model, h, zetas = FORM_MODELS[name]()
    n = model.top
    for s, t, vec in scheduled_classes(model, h, zetas):
        for v in (vec, [-x for x in vec]):
            forms = kahler._forms(model, v)
            ([top],), den = forms[0]
            want = model.deg(reference_powers(model, v)[-1])
            assert Fraction(top, den) == want != 0, (s, t)
            if want < 0 and n % 2 == 0:
                with pytest.raises(MissingConvexClass):
                    kahler._oriented(model, v)
                continue
            ell, oriented, flipped = kahler._oriented(model, v)
            assert flipped == (want < 0)
            assert ell == ([-x for x in v] if flipped else v)
            assert oriented == kahler._forms(model, ell)


@pytest.mark.parametrize("candidate", [u23_candidate, pyramid_candidate],
                         ids=["U(2,3)", "pyramid"])
def test_kahler_report_builds_each_step_once(monkeypatch, candidate):
    """The model's multiplication matrices are one by ell from each degree
    below the middle, L_0..L_(m-1) for m = n//2, and L_m for odd n on a
    bundle ring, where the middle form is G_m L_m; a fan model reads its
    odd middle form off its pairing rows, with no L_m.  No degree above
    the middle is read."""
    model, ell = candidate()
    n = model.top
    steps = n // 2 + (n % 2 and not isinstance(model, FanRingModel))
    kahler_report(model, ell)  # the Gram matrices are built once, here
    built = collections.Counter()
    original = model.mult_matrix

    def counting_mult_matrix(d, w, k):
        built[d, k] += 1
        return original(d, w, k)

    monkeypatch.setattr(model, "mult_matrix", counting_mult_matrix)
    assert kahler_report(model, ell)["pd"]
    assert built == collections.Counter([(1, k) for k in range(steps)])


def test_odd_fan_model_forms_build_no_basis_products(monkeypatch):
    """Once the pyramid's model is built, a candidate's report, forms and
    orientation build no T_j: L_0 is ell's own column and the middle form
    is read off the pairing rows."""
    model, ell = pyramid_candidate()

    def refuse(*args):
        raise AssertionError("T_j built for %r" % (args,))

    monkeypatch.setattr(model, "_monomial_columns", refuse)
    assert kahler_report(model, ell) == {"pd": True, "hl": True, "hr": True}
    (rep,) = sample_lefschetz_candidates(model, ell, [], samples=1)
    assert rep["hr"] and not rep["flipped"]


def test_candidate_forms_are_computed_once(monkeypatch):
    """One list of forms per candidate serves the orientation and the
    report.  The forms of a flipped candidate are -Q_i, n being odd, so
    the negated classes give the same verdicts, flipped."""
    B, h, zetas = bundle_model(2, 3, "identity")
    plain = sample_lefschetz_candidates(B, h, zetas, samples=8)
    for rep in plain:
        ell = [rep["s"] * a + rep["t"] * b for a, b in zip(h, zetas[0])]
        assert not rep["flipped"]
        verdict = {k: rep[k] for k in ("pd", "hl", "hr")}
        assert kahler_report(B, ell) == verdict
    calls = collections.Counter()
    forms = kahler._forms

    def counting_forms(model, ell):
        calls[model] += 1
        return forms(model, ell)

    monkeypatch.setattr(kahler, "_forms", counting_forms)
    neg_h, neg_zeta = [[-x for x in v] for v in (h, zetas[0])]
    flipped = sample_lefschetz_candidates(B, neg_h, [neg_zeta], samples=8)
    assert calls == {B: 8}
    assert flipped == [dict(rep, flipped=True) for rep in plain]


@pytest.mark.parametrize("candidate", [perm3_candidate, u23_candidate],
                         ids=["perm3", "U(2,3)"])
def test_degree_one_vector_of_another_length_is_rejected(candidate):
    """A too short or too long ell, h or zeta raises DimensionMismatch
    naming both lengths, and gets no verdict about the class it would be
    cut or padded to."""
    model, ell = candidate()
    d = model.dim(1)
    for bad in (ell[:-1], ell + [Fraction(1)]):
        message = re.escape("%d coordinates, but A^1 has dimension %d"
                            % (len(bad), d))
        for check in (lambda: kahler_report(model, bad),
                      lambda: kahler._oriented(model, bad),
                      lambda: sample_lefschetz_candidates(model, bad, []),
                      lambda: sample_lefschetz_candidates(model, ell, [bad])):
            with pytest.raises(DimensionMismatch, match=message):
                check()


def test_corrupted_model_fails_pd():
    class Broken(PointModel):
        top = 2

        def dim(self, k):
            return [1, 2, 1][k] if 0 <= k <= 2 else 0

        def mult_matrix(self, d, w, k):
            # everything multiplies to zero in positive degrees
            rows, cols = self.dim(k + d), self.dim(k)
            if d == 0:
                return linalg.scaled_integer(
                    [[w[0] * int(i == j) for j in range(cols)]
                     for i in range(rows)])
            if k == 0:
                return linalg.scaled_integer([[x] for x in w])
            return [[0] * cols for _ in range(rows)], 1

        def deg(self, v):
            return v[0]

    broken = Broken()
    assert not check_pd(broken)
    ell = [Fraction(1), Fraction(2)]
    assert kahler_report(broken, ell) == {"pd": False, "hl": False,
                                          "hr": False}
    # the forms, and so the orientation, do not need PD: ell^2 = 0 here
    assert kahler._forms(broken, ell)[0] == ([[0]], 1)
    with pytest.raises(MissingConvexClass):
        kahler._oriented(broken, ell)


def test_multi_bundle_smoke_instance():
    M = matroid_uniform(2, 3)
    model, h, zetas = restricted_multi_bundle_model(M, [M, M])
    assert len(zetas) == 2
    reports = sample_lefschetz_candidates(model, h, zetas, samples=3)
    for rep in reports:
        assert rep["pd"] and rep["hl"] and rep["hr"]


RESTRICTED_CASES = {
    "pyramid": (pyramid_matroid, pyramid_matroid),
    "U(2,4)": (lambda: matroid_uniform(2, 4), lambda: matroid_uniform(2, 4)),
    "K4": (lambda: matroid_from_graph(K4_EDGES),
           lambda: matroid_from_graph(K4_EDGES)),
    "U(3,4)-with-U(2,4)": (lambda: matroid_uniform(3, 4),
                           lambda: matroid_uniform(2, 4)),
}


@pytest.mark.parametrize("name", list(RESTRICTED_CASES))
def test_bergman_chern_vectors_match_the_restriction(name):
    """The Chern vectors built on the Bergman fan are those built on the
    ambient perm(N) and restricted to it, and they are the coefficients
    of the bundle ring restricted_multi_bundle_model builds."""
    base_matroid, bundle_matroid = (make() for make in RESTRICTED_CASES[name])
    model = restricted_multi_bundle_model(base_matroid, [bundle_matroid])[0]
    want = reference_restricted_chern_vectors(model.base, bundle_matroid)
    assert chern_vectors(model.base, bundle_matroid) == want
    assert model.c[1:] == want[1:]


def _storeys(model):
    """The bundle rings of a tower, bottom first, and the base below."""
    out = []
    while isinstance(model, BundleRing):
        out.insert(0, model)
        model = model.base
    return out, model


def _assert_same_tower(got, want):
    """Two (model, h, zetas) towers agree on every storey's coefficients
    and dimensions, on h and on the zetas."""
    (model, h, zetas), (ref, ref_h, ref_zetas) = got, want
    storeys, _ = _storeys(model)
    ref_storeys, _ = _storeys(ref)
    assert len(storeys) == len(ref_storeys) == len(zetas)
    for ring, ref_ring in zip(storeys, ref_storeys):
        assert ring.r == ref_ring.r and ring.c == ref_ring.c
        assert [ring.dim(k) for k in range(ring.top + 1)] == \
            [ref_ring.dim(k) for k in range(ref_ring.top + 1)]
    assert h == ref_h
    assert zetas == ref_zetas


@pytest.mark.parametrize("phi", ["identity", "negation"])
@pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (1, 4)],
                         ids=["U(2,3)", "U(2,4)", "U(1,4)"])
def test_bundle_model_matches_the_hand_built_storey(r, n, phi):
    M = matroid_uniform(r, n)
    got = matroid_bundle_model(n, M, phi=phi)
    base = _storeys(got[0])[1]
    _assert_same_tower(got, reference_bundle_model(
        base, [chern_vectors(base, M, via=phi)]))


TOWER_CASES = {
    "U(2,3)-[U(2,3)]*2": (lambda: matroid_uniform(2, 3),
                          lambda: [matroid_uniform(2, 3)] * 2),
    "U(3,4)-[U(2,4)]*2": (lambda: matroid_uniform(3, 4),
                          lambda: [matroid_uniform(2, 4)] * 2),
    "pyramid": (pyramid_matroid, lambda: [pyramid_matroid()]),
    "U(3,3)-three-storeys": (lambda: matroid_uniform(3, 3), lambda: [
        matroid_uniform(2, 3), matroid_uniform(1, 3), matroid_uniform(2, 3)]),
}


@pytest.mark.parametrize("name", list(TOWER_CASES))
def test_restricted_tower_matches_the_walk_back(name):
    make_base, make_bundles = TOWER_CASES[name]
    bundles = make_bundles()
    got = restricted_multi_bundle_model(make_base(), bundles)
    base = _storeys(got[0])[1]
    _assert_same_tower(got, reference_bundle_model(
        base, [chern_vectors(base, M) for M in bundles]))


@pytest.mark.parametrize("build", [
    lambda: matroid_bundle_model(4, matroid_uniform(2, 3)),
    lambda: matroid_bundle_model(3, matroid_uniform(2, 4)),
    lambda: restricted_multi_bundle_model(matroid_uniform(3, 4),
                                          [matroid_uniform(2, 3)]),
], ids=["perm4-U(2,3)", "perm3-U(2,4)", "bergman-U(3,4)-U(2,3)"])
def test_bundle_models_reject_a_matroid_on_another_ground_set(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_u25_bundle_model_passes_one_candidate():
    """The U(2,5) bundle ring over perm(5), the first rung past the
    benchmark's models: one scheduled candidate passes PD, HL and HR."""
    B, h, zetas = matroid_bundle_model(5, matroid_uniform(2, 5))
    assert [B.dim(k) for k in range(B.top + 1)] == [1, 27, 92, 92, 27, 1]
    (rep,) = sample_lefschetz_candidates(B, h, zetas, samples=1)
    assert rep["pd"] and rep["hl"] and rep["hr"]
