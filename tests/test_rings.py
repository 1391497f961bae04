import json
from fractions import Fraction

import pytest

from chowfans.chow import DegreeTooLow, FanMismatch, divisor, ray_class
from chowfans.fans import (Fan, FanError, bergman_fan, check_balanced,
                           permutohedral_fan)
from chowfans.kahler import (chern_vectors, kahler_report,
                             restricted_multi_bundle_model)
from chowfans.matroid import matroid_uniform, pyramid_matroid
from chowfans.rings import (AllSegreZero, BundleRing, FanRingModel,
                            bloch_gieseker, quotient_by_ann_segre,
                            segre_vectors, twist_vectors)
from naive_oracle import ReferenceFan, reference_gram


def perm_model(N):
    return FanRingModel(permutohedral_fan(N))


def test_fan_model_dims_and_degree():
    model = perm_model(3)
    assert [model.dim(k) for k in range(3)] == [1, 4, 1]
    top = [Fraction(1)]
    assert model.deg(top) == 1


# the complete fans of P^2 and P^1 x P^1 in Z^2, as (rays, cones)
P2 = ([[1, 0], [0, 1], [-1, -1]],
      [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
P1P1 = ([[1, 0], [0, 1], [-1, 0], [0, -1]],
        [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)])


def test_a_bare_fan_is_refused():
    """Its per-cone hooks are its subclass's, whatever family it names."""
    rays, cones = P2
    with pytest.raises(FanError, match="bergman_fan or projective_bundle_fan"):
        Fan(2, [], rays, "abc", cones, "bergman")


@pytest.mark.parametrize("rays,cones,dims,verdicts", [
    (*P2, [1, 1, 1], [([1, 0, 0], True)]),
    # x_0 + x_1 is ample; the fibre class x_0 squares to zero
    (*P1P1, [1, 2, 1], [([1, 1, 0, 0], True), ([1, 0, 0, 0], False)]),
], ids=["P2", "P1xP1"])
def test_a_fan_subclass_runs_through_the_ring_model(rays, cones, dims,
                                                    verdicts):
    """A Fan subclass outside the package, whose hooks are the Fraction
    references, balances, builds a ring model and takes the Kahler checks."""
    fan = ReferenceFan(2, [], rays, range(len(rays)), cones, "toric")
    assert check_balanced(fan, 2, dict(fan.weight)) == []
    assert check_balanced(fan, 2, {**fan.weight, (0, 1): 2}) == [(0,), (1,)]
    model = FanRingModel(fan)
    assert [model.dim(k) for k in range(3)] == dims
    for coeffs, ample in verdicts:
        report = kahler_report(model, model.to_vector(divisor(fan, coeffs)))
        assert report == {"pd": True, "hl": ample, "hr": ample}


@pytest.mark.parametrize("labels,want", [
    (range(3), [0, 1, 2]), ("abc", ["a", "b", "c"])], ids=["ints", "str"])
def test_a_fan_subclass_writes_its_labels_as_they_are(labels, want):
    """to_json reads no label of a Fan subclass as a bitmask: only FlagFan
    and BiflagFan write theirs as sets."""
    rays, cones = P2
    data = ReferenceFan(2, [], rays, labels, cones, "toric").to_json()
    assert data["ray_labels"] == want
    assert json.loads(json.dumps(data)) == data


def test_fan_model_build_sets_no_attribute_on_its_fan():
    fan = bergman_fan(pyramid_matroid())
    before = set(vars(fan))
    FanRingModel(fan)
    assert set(vars(fan)) == before


def test_to_vector_rejects_a_class_on_another_fan():
    """As the sum, the divisor product and the cap product of classes on
    two fans do."""
    model = perm_model(3)
    with pytest.raises(FanMismatch):
        model.to_vector(ray_class(bergman_fan(matroid_uniform(2, 3)), 0))


def test_fan_model_multiplication_associative():
    model = perm_model(3)
    a = model.to_vector(
        __import__("chowfans.chow", fromlist=["x"]).ChowElement(
            model.fan, 1, {(0,): Fraction(1)}))
    b = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    ab = model.multiply(1, a, 1, b)
    left = model.multiply(2, ab, 0, model.unit())
    assert left == ab


def test_bundle_ring_dims_are_convolutions():
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    B = BundleRing(base, 2, chern_vectors(base, M)[1:])
    assert [B.dim(k) for k in range(B.top + 1)] == [1, 5, 5, 1]


def test_bundle_degree_normalization():
    """deg_B(zeta^(r-1) x) = 1 whenever deg_A(x) = 1."""
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    B = BundleRing(base, 2, chern_vectors(base, M)[1:])
    x = [Fraction(1) / base.deg([Fraction(1)])]
    prod = B.multiply(base.top, B.lift(base.top, x), 1, B.zeta())
    assert B.deg(prod) == 1


def test_zeta_powers_respect_relation():
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    c = chern_vectors(base, M)
    B = BundleRing(base, 2, c[1:])
    z2 = B.zeta_power(2)
    via_mult = B.multiply(1, B.zeta(), 1, B.zeta())
    assert z2 == via_mult
    # zeta^2 + c1 zeta + c2 = 0
    acc = list(z2)
    c1z = B.multiply(1, B.lift(1, c[1]), 1, B.zeta())
    c2l = B.lift(2, c[2])
    acc = [a + b + d for a, b, d in zip(acc, c1z, c2l)]
    assert all(v == 0 for v in acc)


def test_pushforward_extracts_top_zeta_coefficient():
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    c = chern_vectors(base, M)
    B = BundleRing(base, 2, c[1:])
    s = segre_vectors(base, c, base.top)
    for i in range(B.r - 1, B.top + 1):
        pushed = B.pushforward(i, B.zeta_power(i))
        assert pushed == s[i - B.r + 1]


def test_pushforward_rejects_low_degree():
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    B = BundleRing(base, 2, chern_vectors(base, M)[1:])
    with pytest.raises(DegreeTooLow):
        B.pushforward(0, B.unit())


def test_segre_first_values():
    base = perm_model(3)
    c = chern_vectors(base, matroid_uniform(2, 3))
    s = segre_vectors(base, c, 2)
    assert s[1] == [-x for x in c[1]]
    want = [a - b for a, b in zip(base.multiply(1, c[1], 1, c[1]), c[2])]
    assert s[2] == want


def test_twist_zero_is_identity():
    base = perm_model(3)
    c = chern_vectors(base, matroid_uniform(2, 3))
    delta = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)]
    assert twist_vectors(base, c, delta, 0)[1:] == c[1:]


def test_twisted_ring_isomorphic_via_shift():
    """zeta -> zeta + lam*delta maps the twisted relation to the original:
    checked via matching Hilbert functions and degrees of top powers."""
    base = perm_model(3)
    c = chern_vectors(base, matroid_uniform(2, 3))
    delta = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    ct = twist_vectors(base, c, delta, 3)
    B = BundleRing(base, 2, c[1:])
    Bt = BundleRing(base, 2, ct[1:])
    assert [B.dim(k) for k in range(B.top + 1)] == \
        [Bt.dim(k) for k in range(Bt.top + 1)]
    # the shifted zeta satisfies the twisted relation inside the original
    zs = B.zeta()
    d = B.lift(1, [Fraction(3) * x for x in delta])
    shifted = [a + b for a, b in zip(zs, d)]
    acc = B.multiply(1, shifted, 1, shifted)
    c1 = B.multiply(1, B.lift(1, ct[1]), 1, shifted)
    acc = [a + b for a, b in zip(acc, c1)]
    acc = [a + b for a, b in zip(acc, B.lift(2, ct[2]))]
    assert all(v == 0 for v in acc)


def test_model_gram_square_and_symmetric_dims():
    base = perm_model(3)
    g = reference_gram(base, 1)
    assert len(g) == 4 and len(g[0]) == 4
    a, den = base.gram(1)
    assert len(a) == 4 and len(a[0]) == 4 and den > 0


def test_bloch_gieseker_u23():
    base = perm_model(3)
    c = chern_vectors(base, matroid_uniform(2, 3))
    from chowfans.kahler import base_convex_divisor
    h = base.to_vector(base_convex_divisor(base.fan, 3))
    out = bloch_gieseker(base, c, h, lams=[0, 1, 10])
    for entry in out:
        assert entry["zeta_full_rank"]
        assert entry["cd_rank_conditions"]
        assert entry["sign_value"] >= 0


def test_quotient_by_ann_segre_matches_bergman():
    base = perm_model(3)
    M = matroid_uniform(2, 3)
    c = chern_vectors(base, M, via="negation")
    quo = quotient_by_ann_segre(base, c)
    assert quo.t == 3 - M.r
    target = FanRingModel(bergman_fan(M))
    assert [quo.dim(k) for k in range(quo.top + 1)] == \
        [target.dim(k) for k in range(target.top + 1)]


def test_quotient_t_detection_trivial_bundle():
    """With all c_i = 0 every positive Segre class vanishes, so t = 0 and
    the quotient is the whole ring."""
    base = perm_model(3)
    c = [base.unit(),
         [Fraction(0)] * base.dim(1), [Fraction(0)] * base.dim(2)]
    quo = quotient_by_ann_segre(base, c)
    assert quo.t == 0
    assert [quo.dim(k) for k in range(quo.top + 1)] == [1, 4, 1]


def test_multi_bundle_dims():
    M = matroid_uniform(2, 3)
    model = restricted_multi_bundle_model(matroid_uniform(3, 3), [M, M])[0]
    assert model.top == perm_model(3).top + 2
    dims = [model.dim(k) for k in range(model.top + 1)]
    assert dims == dims[::-1]
