from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chowfans.fans import (ConeNotInFan, Fan, NotAChain, bergman_fan,
                           bipermutohedral_fan, check_balanced, gap_indices,
                           is_bisubset, is_chain, is_proper_bisubset,
                           matroid_gap_indices, permutohedral_fan,
                           projective_bundle_fan, proper_biflats)
from chowfans.matroid import matroid_uniform, pyramid_matroid, set_to_mask


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


def test_all_suite_fans_unimodular():
    fans = [permutohedral_fan(3), permutohedral_fan(4),
            bergman_fan(matroid_uniform(2, 4)),
            projective_bundle_fan(3, matroid_uniform(2, 3)),
            projective_bundle_fan(4, matroid_uniform(3, 4))]
    for fan in fans:
        for cone in fan.maximal_cones:
            assert fan.cone_multiplicity(cone) == 1


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
    assert matroid_gap_indices(M, chain) == {3, 5}


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
    for cone in fan.cones:
        scan = [i for i in range(len(fan.rays)) if i not in cone
                and tuple(sorted(cone + (i,))) in fan.cones]
        assert fan.cone_extensions(cone) == scan
    assert fan.cone_extensions(tuple(reversed(max(fan.cones)))) == \
        fan.cone_extensions(max(fan.cones))
    with pytest.raises(ConeNotInFan):
        fan.cone_extensions((0, 0))


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_chain_order_is_transitive_on_biflats(i, j, k):
    M = matroid_uniform(3, 4)
    rays = proper_biflats(M)
    a, b, c = rays[i % len(rays)], rays[j % len(rays)], rays[k % len(rays)]
    if is_chain([a, b]) and is_chain([b, c]) and a != c:
        assert is_chain([a, c])


def test_fan_json_roundtrip_fields():
    fan = bergman_fan(matroid_uniform(2, 3))
    data = fan.to_json()
    assert data["top_dim"] == 1
    assert len(data["rays"]) == 3
    assert len(data["maximal_cones"]) == 3
