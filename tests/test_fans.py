from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chowfans import linalg
from chowfans.chow import ChowElement, multiply_by_monomial
from chowfans.fans import (ConeNotInFan, NotAChain,
                           bergman_fan, biflat_poset, bipermutohedral_fan,
                           check_balanced, count_maximal_cones, gap_indices,
                           is_bisubset, is_chain,
                           is_proper_bisubset, permutohedral_fan,
                           projective_bundle_fan, proper_biflats,
                           walk_chains)
from chowfans.matroid import (matroid_from_bases, matroid_from_graph,
                              matroid_uniform, pyramid_matroid, set_to_mask)
from naive_oracle import reference_gap_indices, reference_lattice_index

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_permutohedral_3_counts():
    fan = permutohedral_fan(3)
    assert len(fan.rays) == 6
    assert fan.top_dim == 2
    assert len(fan.maximal_cones) == 6


def test_permutohedral_4_counts():
    fan = permutohedral_fan(4)
    assert len(fan.rays) == 14
    assert len(fan.maximal_cones) == 24


def test_bergman_u23():
    fan = bergman_fan(matroid_uniform(2, 3))
    assert len(fan.rays) == 3
    assert fan.top_dim == 1
    assert len(fan.maximal_cones) == 3


def test_bipermutohedral_ray_count():
    for N in (2, 3):
        fan = bipermutohedral_fan(N)
        assert len(fan.rays) == 3 ** N - 3
        assert fan.top_dim == 2 * N - 2


def test_bipermutohedral_2_counts():
    fan = bipermutohedral_fan(2)
    assert len(fan.rays) == 6
    assert len(fan.maximal_cones) == 6


def test_bipermutohedral_matches_bundle_of_boolean():
    direct = bipermutohedral_fan(3)
    via = projective_bundle_fan(3, matroid_uniform(3, 3))
    assert direct.ray_labels == via.ray_labels
    assert direct.cones == via.cones


def test_bundle_fan_u35_counts():
    fan = projective_bundle_fan(5, matroid_uniform(3, 5))
    assert len(fan.rays) == 80
    assert fan.top_dim == 6


def test_bundle_fan_dimension_formula():
    for N, M in [(3, matroid_uniform(1, 3)), (3, matroid_uniform(2, 3)),
                 (4, matroid_uniform(2, 4))]:
        fan = projective_bundle_fan(N, M)
        assert fan.top_dim == N + M.r - 2


def test_bundle_fan_is_subfan_of_bipermutohedral():
    big = bipermutohedral_fan(3)
    sub = projective_bundle_fan(3, matroid_uniform(2, 3))
    idx = {lab: i for i, lab in enumerate(big.ray_labels)}
    for c in sub.cones:
        mapped = tuple(sorted(idx[sub.ray_labels[i]] for i in c))
        assert mapped in big.cones


def test_cone_chain_lists_each_cone_as_a_chain():
    """The constructors list the labels along a linear extension of the
    chain order, so ascending ray index lists every cone, in any order,
    as a chain: by inclusion of flats, or `is_chain` of biflats."""
    def flag(chain):
        return all(F != G and F & ~G == 0 for F, G in zip(chain, chain[1:]))

    for fan, is_a_chain in [
            (permutohedral_fan(4), flag), (bipermutohedral_fan(3), is_chain),
            (projective_bundle_fan(4, matroid_uniform(3, 4)), is_chain)]:
        for cone in fan.cones:
            chain = fan.cone_chain(cone[::-1])
            assert sorted(chain) == sorted(fan.ray_labels[i] for i in cone)
            assert is_a_chain(list(chain)), chain


def test_cone_lattice_index_matches_the_fraction_minors():
    """linalg.lattice_index, which measures the `fan` command's
    `unimodular`, is 1 on every cone of five chain fans, and equals the
    gcd of every Fraction minor of naive_oracle.reference_lattice_index on
    the cones of three of those fans and on the rows of the complete fan
    of Z^2 on (1,0), (1,2), (-1,-1), whose first cone has index 2 (the
    Fraction minors take 6 ms a cone on the bundle fan of U(3,4), so the
    two bundle fans stay off that side)."""
    fans = [permutohedral_fan(4), bipermutohedral_fan(3),
            bergman_fan(pyramid_matroid()),
            projective_bundle_fan(4, matroid_uniform(3, 4)),
            projective_bundle_fan(5, matroid_uniform(2, 5))]
    seen = 0
    for k, fan in enumerate(fans):
        for cone in fan.cones:
            rows = fan.lineality + [fan.rays[i] for i in cone]
            assert linalg.lattice_index(rows) == 1
            if k < 3:
                assert reference_lattice_index(rows) == 1
            seen += 1
    assert seen == 8349
    u, v, w = [1, 0], [1, 2], [-1, -1]
    for rows, index in [([u, v], 2), ([v, w], 1), ([u, w], 1), ([u], 1),
                        ([v], 1)]:
        assert linalg.lattice_index(rows) == \
            reference_lattice_index(rows) == index


def test_weight_one_balancing():
    for fan in [permutohedral_fan(3),
                bergman_fan(matroid_uniform(2, 4)),
                projective_bundle_fan(3, matroid_uniform(2, 3)),
                projective_bundle_fan(4, matroid_uniform(2, 4))]:
        values = {c: Fraction(1) for c in fan.maximal_cones}
        assert check_balanced(fan, fan.top_dim, values) == []


def test_balancing_detects_corruption():
    fan = permutohedral_fan(3)
    values = {c: Fraction(1) for c in fan.maximal_cones}
    sigma = fan.maximal_cones[0]
    values[sigma] = Fraction(2)
    # each ray of sigma lies in one other maximal cone, of weight 1, so
    # both of sigma's facets, and only they, become unbalanced
    assert check_balanced(fan, fan.top_dim, values) == [(i,) for i in sigma]


def test_bisubset_predicates():
    # on [3]: S|T with union [3] and intersection proper
    assert is_bisubset(3, 0b011, 0b110)
    assert not is_bisubset(3, 0b001, 0b010)
    assert not is_bisubset(3, 0b111, 0b111)
    assert is_proper_bisubset(3, 0b011, 0b110)
    assert not is_proper_bisubset(3, 0b111, 0b000)


def test_gap_indices_pyramid_example():
    M = pyramid_matroid()
    m = lambda *e: set_to_mask(set(e))
    E = M.full
    chain = [(m(1, 2, 6), E), (m(1, 2, 6), m(3, 4, 5, 7, 8)),
             (m(1, 2, 4, 6), m(3, 4, 5, 7, 8)),
             (m(1, 2, 4, 5, 6), m(3, 7, 8)),
             (m(1, 2, 4, 5, 6, 7), m(3, 7, 8))]
    assert gap_indices(M.n, chain) == {3, 5}
    assert reference_gap_indices(M, chain) == {3, 5}


GAP_CASES = {
    "pyramid": (pyramid_matroid, 2),
    "K4": (lambda: matroid_from_graph(K4_EDGES), 2),
    "U(2,4)": (lambda: matroid_uniform(2, 4), None),
    "U(3,4)": (lambda: matroid_uniform(3, 4), None),
}


@pytest.mark.parametrize("name", list(GAP_CASES))
def test_gap_indices_match_the_closure_criterion(name):
    """The bisubset gap set against the closure criterion on every chain
    of biflats up to the length given, or of any length."""
    make, max_len = GAP_CASES[name]
    M = make()
    labels, succ = biflat_poset(M)
    chains = [()] + list(walk_chains(succ, range(len(labels)),
                                     lambda chain: True,
                                     max_len or len(labels)))
    for chain in chains:
        pairs = [labels[i] for i in chain]
        assert gap_indices(M.n, pairs) == reference_gap_indices(M, pairs)


def test_gap_indices_rejects_non_chain():
    with pytest.raises(NotAChain):
        gap_indices(3, [(0b011, 0b110), (0b001, 0b111)])


def test_single_biflat_always_has_gap():
    M = matroid_uniform(2, 4)
    for p in proper_biflats(M):
        assert gap_indices(M.n, [p])


def test_proper_biflat_count_boolean():
    M = matroid_uniform(3, 3)
    assert len(proper_biflats(M)) == 3 ** 3 - 3


def test_cones_closed_under_subsets():
    fan = projective_bundle_fan(3, matroid_uniform(2, 3))
    for cone in fan.cones:
        for i in range(len(cone)):
            assert cone[:i] + cone[i + 1:] in fan.cones


@pytest.mark.parametrize("fan", [
    permutohedral_fan(4), bergman_fan(pyramid_matroid()),
    projective_bundle_fan(4, matroid_uniform(3, 4))],
    ids=["perm4", "bergman-pyramid", "bundle-U(3,4)"])
def test_cone_extensions_match_a_scan_of_every_ray(fan):
    """Fan._extension_map: the rays extending a cone in ascending order,
    each with the sorted cone one ray larger.  A class keyed by a cone
    listed out of order is keyed by the sorted cone, so its products with
    the extending rays are those cones; a key that lists no cone raises
    ConeNotInFan where the class is made."""
    for cone in fan.cones:
        scan = {i: tuple(sorted(cone + (i,))) for i in range(len(fan.rays))
                if i not in cone and tuple(sorted(cone + (i,))) in fan.cones}
        assert list(fan._extension_map(cone).items()) == list(scan.items())
    cone = max(c for c in fan.cones if len(c) == fan.top_dim - 1)
    flipped = ChowElement(fan, len(cone), {cone[::-1]: 1})
    for i, sigma in fan._extension_map(cone).items():
        assert multiply_by_monomial(flipped, (i,)).terms == {sigma: 1}
    with pytest.raises(ConeNotInFan):
        ChowElement(fan, 2, {(0, 0): 1})


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_chain_order_is_transitive_on_biflats(i, j, k):
    M = matroid_uniform(3, 4)
    rays = proper_biflats(M)
    a, b, c = rays[i % len(rays)], rays[j % len(rays)], rays[k % len(rays)]
    if is_chain([a, b]) and is_chain([b, c]) and a != c:
        assert is_chain([a, c])


@st.composite
def small_matroids(draw):
    """A uniform matroid of rank at most 2 or on at most 3 elements, a
    graphic one with at most 7 - v loopless edges on v <= 4 vertices, the
    truncation of either, or the parallel pair: their fans stay small,
    where the bundle fan of U(3,4) already has 3,545 cones."""
    kind = draw(st.sampled_from(["uniform", "graphic", "parallel-pair"]))
    if kind == "uniform":
        n = draw(st.integers(1, 4))
        M = matroid_uniform(draw(st.integers(1, n if n < 4 else 2)), n)
    elif kind == "graphic":
        v = draw(st.integers(2, 4))
        edge = st.tuples(st.integers(1, v), st.integers(1, v)).filter(
            lambda e: e[0] != e[1])
        M = matroid_from_graph(draw(st.lists(edge, min_size=1,
                                             max_size=7 - v)))
    else:
        M = matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    if M.r > 1 and draw(st.booleans()):
        M = M.truncate()
    return M


@settings(max_examples=25, deadline=None)
@given(small_matroids())
@example(matroid_uniform(3, 3))
@example(matroid_uniform(4, 4))
@example(matroid_uniform(2, 4))
@example(matroid_uniform(2, 3))
@example(matroid_uniform(3, 4))
def test_all_suite_fans_unimodular(M):
    """Every maximal cone of the Bergman and bundle fans of M has lattice
    index 1, on drawn matroids and on the five fixed fans perm(3),
    perm(4), Bergman U(2,4) and the bundle fans of U(2,3) and U(3,4).
    Faces of a unimodular cone are unimodular, so the maximal cones
    suffice: the degree of a class adds up its coefficients times the
    weights, with no multiplicity."""
    for fan in [bergman_fan(M), projective_bundle_fan(M.n, M)]:
        for cone in fan.maximal_cones:
            rows = fan.lineality + [fan.rays[i] for i in cone]
            assert linalg.lattice_index(rows) == 1, (fan.family, cone)


@settings(max_examples=25, deadline=None)
@given(small_matroids())
def test_maximal_cone_count_matches_the_chain_walk(M):
    """Both counts match the fans, and the Bergman count, the maximal
    flags, bounds the bundle count from below."""
    flags = count_maximal_cones(M)
    assert flags == len(bergman_fan(M).maximal_cones)
    assert flags <= count_maximal_cones(M, biflags=True) == \
        len(projective_bundle_fan(M.n, M).maximal_cones)


def test_maximal_cone_count_of_larger_fans():
    assert count_maximal_cones(pyramid_matroid()) == \
        len(bergman_fan(pyramid_matroid()).maximal_cones) == 128
    M = matroid_uniform(3, 5)
    assert count_maximal_cones(M, biflags=True) == \
        len(projective_bundle_fan(5, M).maximal_cones) == 4200
    # perm(8) and bipermutohedral(5), counted without their fans
    assert count_maximal_cones(matroid_uniform(8, 8)) == 40320
    assert count_maximal_cones(matroid_uniform(5, 5), biflags=True) == 113400


def test_flag_count_bounds_the_bundle_count():
    """The Bergman count is at most the bundle count on every matroid
    named in this file (the drawn ones in the test above): the diagonal
    biflags of distinct maximal flags lie in distinct maximal bundle
    cones."""
    for M in [matroid_from_graph(K4_EDGES), pyramid_matroid(),
              matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
              ] + [matroid_uniform(r, n) for r, n in [
                  (1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5),
                  (5, 5), (8, 8)]]:
        assert count_maximal_cones(M) <= \
            count_maximal_cones(M, biflags=True), M


def test_fan_json_roundtrip_fields():
    fan = bergman_fan(matroid_uniform(2, 3))
    data = fan.to_json()
    assert data["top_dim"] == 1
    assert len(data["rays"]) == 3
    assert len(data["maximal_cones"]) == 3
    # FlagFan writes a flat, BiflagFan a biflat S|F, as 1-based sets
    assert data["ray_labels"] == [[1], [2], [3]]
    assert bipermutohedral_fan(2).to_json()["ray_labels"] == [
        [[1], [1, 2]], [[2], [1, 2]], [[1], [2]], [[2], [1]],
        [[1, 2], [1]], [[1, 2], [2]]]
