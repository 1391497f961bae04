from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from chowfans.chow import (multiply_by_divisor, negation_relabel, pair_all,
                           ray_coefficients, unit_class)
from chowfans.fans import (DimensionMismatch, bergman_fan, bipermutohedral_fan,
                           permutohedral_fan, projective_bundle_fan)
from chowfans.kahler import base_convex_divisor, chern_vectors
from chowfans.matroid import (matroid_from_graph, matroid_uniform,
                              pyramid_matroid)
from chowfans.rings import FanRingModel, segre_vectors, twist_vectors
from chowfans.tautological import (chern_classes, structural_divisors,
                                   w_divisors)
from naive_oracle import multiply_elements, pullback_pi1


def is_zero_by_pairing(elem):
    return all(v == 0 for v in pair_all(elem).values())


def test_delta_u_identity_coefficientwise():
    """delta + u_i and gammabar + v_i^+ - v_i^- agree as coefficient
    vectors, not just as classes."""
    M = matroid_uniform(2, 3)
    fan = projective_bundle_fan(3, M)
    sd = structural_divisors(fan, M)
    for i in range(1, M.r + 1):
        left = sd["delta"] + sd["u"][i]
        right = sd["gammabar"] + sd["vplus"][i] - sd["vminus"][i]
        assert ray_coefficients(left) == ray_coefficients(right)


def test_structural_divisors_reject_a_matroid_on_another_ground_set():
    """U(2,3) on the biflag fan of U(2,4): masking each ray with the
    smaller ground set would drop element 4 and build the classes."""
    fan = projective_bundle_fan(4, matroid_uniform(2, 4))
    with pytest.raises(DimensionMismatch,
                       match=r"\[3\], biflag fan in dimension 8"):
        structural_divisors(fan, matroid_uniform(2, 3))


def test_w_divisors_reject_a_matroid_on_another_ground_set():
    with pytest.raises(DimensionMismatch,
                       match=r"\[4\], flag fan in dimension 3"):
        w_divisors(permutohedral_fan(3), matroid_uniform(2, 4))


def test_structural_divisors_reject_a_flag_fan():
    """The Bergman fan of U(2,4) has the ambient dimension of a biflag fan
    over [2], but its ray labels are flats, not biflats."""
    with pytest.raises(DimensionMismatch,
                       match="need a biflag fan, not a FlagFan"):
        structural_divisors(bergman_fan(matroid_uniform(2, 4)),
                            matroid_uniform(2, 2))


def test_w_divisors_reject_a_biflag_fan():
    """The bundle fan over [2] has the ambient dimension of a flag fan
    over [4], but its ray labels are biflats, not subsets."""
    with pytest.raises(DimensionMismatch,
                       match="need a flag fan, not a BiflagFan"):
        w_divisors(projective_bundle_fan(2, matroid_uniform(1, 2)),
                   matroid_uniform(2, 4))


def test_v1_plus_vanishes_for_loopless():
    M = matroid_uniform(2, 4)
    fan = projective_bundle_fan(4, M)
    sd = structural_divisors(fan, M)
    assert all(c == 0 for c in ray_coefficients(sd["vplus"][1]))


def test_gamma_choices_differ_by_relation():
    """gamma_1 - gamma_2 is a linear-relation class, hence zero."""
    M = matroid_uniform(2, 3)
    fan = projective_bundle_fan(3, M)
    d = structural_divisors(fan, M, j=1)["gamma"] \
        - structural_divisors(fan, M, j=2)["gamma"]
    elem = multiply_by_divisor(unit_class(fan), d)
    assert is_zero_by_pairing(elem)


def test_w1_is_minus_alpha_for_loopless():
    fan = permutohedral_fan(3)
    M = matroid_uniform(2, 3)
    wd = w_divisors(fan, M)
    assert ray_coefficients(wd["w"][1]) == [
        -c for c in ray_coefficients(wd["alpha"])]


def test_pullback_alpha_is_gamma():
    M = matroid_uniform(2, 3)
    base = permutohedral_fan(3)
    target = projective_bundle_fan(3, M)
    alpha = w_divisors(base, M)["alpha"]
    gamma = structural_divisors(target, M)["gamma"]
    assert ray_coefficients(pullback_pi1(alpha, target)) == \
        ray_coefficients(gamma)


def test_pullback_w_is_u():
    M = matroid_uniform(2, 3)
    base = permutohedral_fan(3)
    target = projective_bundle_fan(3, M)
    wd = w_divisors(base, M)
    sd = structural_divisors(target, M)
    for i in range(1, M.r + 1):
        assert ray_coefficients(pullback_pi1(wd["w"][i], target)) == \
            ray_coefficients(sd["u"][i])


def test_negation_relabel_is_an_involution():
    fan = permutohedral_fan(3)
    M = matroid_uniform(2, 3)
    for w in w_divisors(fan, M)["w"][1:]:
        assert ray_coefficients(negation_relabel(negation_relabel(w))) == \
            ray_coefficients(w)


@pytest.mark.parametrize("M", [matroid_uniform(2, 4), pyramid_matroid()],
                         ids=["U(2,4)", "pyramid"])
def test_negation_needs_rays_closed_under_complement(M):
    """The flats of U(2,4) and of the pyramid are not closed under
    complement: the negation of the Bergman fan's w classes raises
    DimensionMismatch naming the first ray label, {1}, whose complement
    is no ray, and the identity route builds the classes."""
    fan = bergman_fan(M)
    with pytest.raises(DimensionMismatch,
                       match=r"ray label \[1\] has no complement"):
        chern_classes(fan, M, via="negation")
    assert len(chern_classes(fan, M)) == M.r + 1


def test_elementary_symmetric_u_matches_pullback_chern():
    """On the bipermutohedral fan, e_i of the u classes pairs identically
    with the pullback of c_i."""
    N = 3
    M = matroid_uniform(2, 3)
    base = permutohedral_fan(N)
    fan = bipermutohedral_fan(N)
    sd = structural_divisors(fan, M)
    cs = chern_classes(base, M)
    from chowfans.tautological import elementary_symmetric_products
    es = elementary_symmetric_products(sd["u"][1:])
    for i in range(1, M.r + 1):
        pulled = unit_class(fan)
        # push each w-product term through pi_1 by pulling the divisors back
        wd = w_divisors(base, M)
        from itertools import combinations
        from chowfans.chow import ChowElement
        acc = ChowElement(fan, i)
        for combo in combinations(range(1, M.r + 1), i):
            term = unit_class(fan)
            for j in combo:
                term = multiply_by_divisor(term, pullback_pi1(wd["w"][j], fan))
            acc = acc + term
        diff = es[i] - acc
        assert is_zero_by_pairing(diff)


def test_elementary_symmetric_products_one_factor_at_a_time(monkeypatch):
    """e_i of four divisors on perm(4) has the terms of the sum over the
    i-subsets of left-to-right products, from r (r + 1) / 2 = 10 divisor
    products; the bundle identity on U(3,4) takes 15: 6 for the c_i, 3 for
    Horner's sum of c_i delta^(3-i) and 3 each for the two products."""
    from itertools import combinations
    from chowfans import biflags, chow, tautological
    from chowfans.chow import ChowElement, divisor
    fan = permutohedral_fan(4)
    ds = [divisor(fan, [(3 * i + j) % 5 - 2 for j in range(len(fan.rays))])
          for i in range(4)]
    calls = []

    def counted(elem, D):
        calls.append(D)
        return chow.multiply_by_divisor(elem, D)

    for module in (tautological, biflags):
        monkeypatch.setattr(module, "multiply_by_divisor", counted)
    es = tautological.elementary_symmetric_products(ds)
    assert len(calls) == 10
    for i in range(5):
        want = ChowElement(fan, i)
        for combo in combinations(ds, i):
            term = unit_class(fan)
            for D in combo:
                term = chow.multiply_by_divisor(term, D)
            want = want + term
        assert es[i].degree == i and es[i].terms == want.terms
    calls.clear()
    M = matroid_uniform(3, 4)
    assert biflags.verify_bundle_identity(4, M)["status"] == "pass"
    assert len(calls) == 15


def perm3_chern():
    """The perm(3) model, the Chern classes of U(2,3) on it, and their
    coordinate vectors."""
    base = FanRingModel(permutohedral_fan(3))
    cs = chern_classes(base.fan, matroid_uniform(2, 3))
    return base, cs, [base.unit()] + [base.to_vector(e) for e in cs[1:]]


def alpha_vector(base):
    alpha = w_divisors(base.fan, matroid_uniform(2, 3))["alpha"]
    return base.to_vector(multiply_by_divisor(unit_class(base.fan), alpha))


def test_segre_recursion_first_values():
    """s_1 = -c_1 and s_2 = c_1^2 - c_2, with the product taken in the
    fan's Chow ring."""
    base, cs, c = perm3_chern()
    ss = segre_vectors(base, c, base.top)
    assert ss[1] == [-x for x in c[1]]
    assert ss[2] == base.to_vector(multiply_elements(cs[1], cs[1]) - cs[2])


def test_segre_all_zero_when_chern_zero():
    base = FanRingModel(permutohedral_fan(3))
    c = [base.unit()] + [[Fraction(0)] * base.dim(i) for i in (1, 2)]
    ss = segre_vectors(base, c, 2)
    assert all(not any(s) for s in ss[1:])


def test_twist_by_zero_is_identity():
    base, _, c = perm3_chern()
    assert twist_vectors(base, c, alpha_vector(base), 0)[1:] == c[1:]


def test_twist_composes():
    base, _, c = perm3_chern()
    alpha = alpha_vector(base)
    once = twist_vectors(base, c, alpha, 1)
    assert once[1:] != c[1:]
    twice = twist_vectors(base, once, alpha, 1)
    assert twice[1:] == twist_vectors(base, c, alpha, 2)[1:]


def test_chern_via_negation_differs_but_pairs_rationally():
    fan = permutohedral_fan(3)
    M = matroid_uniform(1, 3)
    ci = chern_classes(fan, M)
    cn = chern_classes(fan, M, via="negation")
    assert len(ci) == len(cn) == M.r + 1


def partitions(total, largest):
    """The partitions of total into parts of at most largest, each as a
    nonincreasing tuple."""
    if total == 0:
        return [()]
    return [(p, *rest) for p in range(min(total, largest), 0, -1)
            for rest in partitions(total - p, p)]


def sign_of(perm):
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


@lru_cache(maxsize=None)
def perm_model(N):
    return FanRingModel(permutohedral_fan(N))


POSITIVITY_MATROIDS = {
    "U(2,4)": lambda: matroid_uniform(2, 4),
    "U(3,4)": lambda: matroid_uniform(3, 4),
    "U(2,5)": lambda: matroid_uniform(2, 5),
    "U(3,5)": lambda: matroid_uniform(3, 5),
    "triangle-and-pendant": lambda: matroid_from_graph(
        [(1, 2), (2, 3), (1, 3), (3, 4)]),
    "two-triangles": lambda: matroid_from_graph(
        [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)]),
}


def signed_schur_degrees(M, phi):
    """{lambda: (-1)^|lambda| deg(s_lambda(c) h^(n-|lambda|))} over every
    partition lambda with |lambda| <= n and parts at most r, for c the
    Chern vectors of M under phi on perm(N) and h the permutohedral
    support class; s_lambda = det(c_(lambda_i + j - i)) by
    Jacobi-Trudi."""
    model = perm_model(M.n)
    n, r = model.top, M.r
    c = chern_vectors(model, M, via=phi)
    h = [model.unit(), model.to_vector(base_convex_divisor(model.fan, M.n))]
    while len(h) <= n:
        h.append(model.multiply(1, h[1], len(h) - 1, h[-1]))

    @lru_cache(maxsize=None)
    def degree(factors):
        """deg(c_(a_1) ... c_(a_l) h^(n - sum a)), factors sorted, each in
        1..r."""
        v, k = h[n - sum(factors)], n - sum(factors)
        for a in factors:
            v, k = model.multiply(a, c[a], k, v), k + a
        return model.deg(v)

    signed = {}
    for size in range(n + 1):
        for lam in partitions(size, r):
            total = 0
            for perm in permutations(range(len(lam))):
                idx = [lam[i] + perm[i] - i for i in range(len(lam))]
                if all(0 <= a <= r for a in idx):
                    total += sign_of(perm) * degree(
                        tuple(sorted(a for a in idx if a)))
            signed[lam] = (-1) ** size * total
    return signed


@pytest.mark.parametrize("phi", ["identity", "negation"])
@pytest.mark.parametrize("name", list(POSITIVITY_MATROIDS))
def test_schur_classes_of_the_chern_vectors_are_fulton_lazarsfeld_signed(
        name, phi):
    """Fulton-Lazarsfeld positivity (Ann. of Math. 1983; Fulton,
    Intersection Theory 12.1): for E globally generated on a projective
    variety of dimension n and h ample, deg(s_lambda(c(E)) h^(n-|lambda|))
    >= 0 for every partition lambda.  The tautological bundles of a
    realizable matroid (Berget-Eur-Spink-Tseng) are globally generated on
    the permutohedral variety, and these matroids are uniform or graphic,
    so realizable.

    Sign convention: the c_0..c_r of `chern_vectors`, under either phi,
    are the Chern classes of the dual E^v, whose c_i(E^v) = (-1)^i c_i(E)
    make s_lambda(c(E^v)) = (-1)^|lambda| s_lambda(c(E)).  So the test
    reads (-1)^|lambda| deg(s_lambda(c) h^(n-|lambda|)) >= 0, for s_lambda
    = det(c_(lambda_i + j - i)) by Jacobi-Trudi and h the permutohedral
    support class, over every lambda with |lambda| <= n and parts at most
    r.  Without the sign, c_1 h^(n-1) is negative, and a term of odd
    |lambda| is nonzero in every case, so a sign error in the w classes or
    their negation shows here."""
    signed = signed_schur_degrees(POSITIVITY_MATROIDS[name](), phi)
    assert all(v >= 0 for v in signed.values()), \
        {lam: v for lam, v in signed.items() if v < 0}
    assert signed[()] > 0
    assert -signed[(1,)] < 0
    assert any(v for lam, v in signed.items() if sum(lam) % 2)


@st.composite
def realizable_matroids(draw):
    """A loopless matroid on N = 2..5 elements that is realizable: U(r,N)
    for r >= 1, or the matroid of a graph with N edges and no self-loop
    edge, parallel edges allowed."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        return matroid_uniform(draw(st.integers(1, n)), n)
    vertex = st.integers(1, 5)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), min_size=n, max_size=n))
    return matroid_from_graph(edges)


@settings(max_examples=40, deadline=None)
@given(M=realizable_matroids(), phi=st.sampled_from(["identity", "negation"]))
def test_schur_classes_of_drawn_realizable_matroids_are_fulton_lazarsfeld_signed(
        M, phi):
    """The signed Schur degrees of the Fulton-Lazarsfeld test above, on
    drawn realizable loopless matroids, are >= 0.  A free matroid (r = N)
    has a trivial tautological bundle, whose nonempty lambda all read 0;
    any other has -c_1 h^(n-1) > 0 and a nonzero term of odd |lambda|."""
    signed = signed_schur_degrees(M, phi)
    assert all(v >= 0 for v in signed.values()), \
        {lam: v for lam, v in signed.items() if v < 0}
    assert signed[()] > 0
    if M.r == M.n:
        assert not any(v for lam, v in signed.items() if lam)
    else:
        assert signed[(1,)] > 0
        assert any(v for lam, v in signed.items() if sum(lam) % 2)
