import collections
import functools
from fractions import Fraction

import pytest

from chowfans import kahler
from chowfans.fans import permutohedral_fan
from chowfans.kahler import (MissingConvexClass, base_convex_divisor,
                             candidate_schedule, check_hl, check_hr, check_pd,
                             divisor_vector, kahler_report,
                             matroid_bundle_model, oriented_degree_one,
                             restricted_multi_bundle_model,
                             sample_lefschetz_candidates)
from chowfans.matroid import matroid_uniform
from chowfans.rings import FanRingModel, model_gram
from naive_oracle import reference_kahler_report


class PointModel:
    """The rational cohomology of a point: everything in degree 0."""

    top = 0

    def dim(self, k):
        return 1 if k == 0 else 0

    def multiply(self, k1, v1, k2, v2):
        return [v1[0] * v2[0]] if k1 == k2 == 0 else []

    def deg(self, v):
        return v[0]

    def unit(self):
        return [Fraction(1)]


def test_point_model_passes_trivially():
    model = PointModel()
    rep = kahler_report(model, [])
    assert rep == {"pd": True, "hl": True, "hr": True}


def test_permutohedral_model_kahler_with_support_class():
    model = FanRingModel(permutohedral_fan(3))
    h = divisor_vector(model, base_convex_divisor(model.fan, 3))
    assert check_pd(model)
    assert check_hl(model, h)
    assert check_hr(model, h)


def test_hr_at_zero_gives_positive_top_power():
    model = FanRingModel(permutohedral_fan(3))
    h = divisor_vector(model, base_convex_divisor(model.fan, 3))
    acc = list(h)
    acc = model.multiply(1, h, 1, h)
    assert model.deg(acc) > 0


def test_oriented_degree_one_flips_odd_top():
    N, M = 3, matroid_uniform(2, 3)
    B, h, zetas = matroid_bundle_model(N, M)
    ell = [a + b for a, b in zip(h, zetas[0])]
    neg = [-x for x in ell]
    fixed, flipped = oriented_degree_one(B, neg)
    assert flipped
    assert fixed == ell


def test_oriented_degree_one_rejects_degenerate():
    model = FanRingModel(permutohedral_fan(3))
    zero = [Fraction(0)] * model.dim(1)
    with pytest.raises(MissingConvexClass):
        oriented_degree_one(model, zero)


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
    return B, oriented_degree_one(
        B, [s * a + t * b for a, b in zip(h, zetas[0])])


@pytest.mark.parametrize("bundle", BUNDLES,
                         ids=["U(%d,%d)-%s" % b for b in BUNDLES])
def test_kahler_report_matches_reference(bundle):
    weights = candidate_schedule(8) + [
        (s, t) for b, s, t, _, _ in NAMED.values() if b == bundle]
    for s, t in weights:
        B, (ell, _) = oriented_candidate(bundle, s, t)
        assert kahler_report(B, ell) == reference_kahler_report(B, ell), (s, t)


@pytest.mark.parametrize("case", list(NAMED))
def test_named_kahler_verdicts(case):
    bundle, s, t, flipped, verdict = NAMED[case]
    B, (ell, was_flipped) = oriented_candidate(bundle, s, t)
    assert was_flipped == flipped
    assert kahler_report(B, ell) == verdict
    assert (check_hl(B, ell), check_hr(B, ell)) == (verdict["hl"], verdict["hr"])


def test_gram_matrices_are_built_once_per_model(monkeypatch):
    built = collections.Counter()

    def counting_gram(model, k):
        built[k] += 1
        return model_gram(model, k)

    monkeypatch.setattr(kahler, "model_gram", counting_gram)
    B, h, zetas = matroid_bundle_model(3, matroid_uniform(2, 3))
    assert len(sample_lefschetz_candidates(B, h, zetas, samples=3)) == 3
    assert built == {k: 1 for k in range(B.top // 2 + 1)}


def test_corrupted_model_fails_pd():
    class Broken(PointModel):
        top = 2

        def dim(self, k):
            return [1, 2, 1][k] if 0 <= k <= 2 else 0

        def multiply(self, k1, v1, k2, v2):
            k = k1 + k2
            if k > 2:
                return []
            out = [Fraction(0)] * self.dim(k)
            # everything multiplies to zero in positive degrees
            if k1 == 0:
                out = [v1[0] * x for x in v2]
            elif k2 == 0:
                out = [v2[0] * x for x in v1]
            return out

        def deg(self, v):
            return v[0]

    assert not check_pd(Broken())


def test_multi_bundle_smoke_instance():
    M = matroid_uniform(2, 3)
    model, h, zetas = restricted_multi_bundle_model(M, [M, M])
    assert len(zetas) == 2
    reports = sample_lefschetz_candidates(model, h, zetas, samples=3)
    for rep in reports:
        assert rep["pd"] and rep["hl"] and rep["hr"]
