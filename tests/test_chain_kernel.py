"""Differential tests for the products and balancing relations that flag
and biflag fans read off the chains of their cones (`_functional` and
`_relation` of `FlagFan` and `BiflagFan`), on hypothesis-drawn cones,
values and weights with int and rational entries: against the Fraction
functional, relation, fan-out and pairing walk of `naive_oracle`, whose
dual bases come from Gauss-Jordan, and against balancing by two rank
computations per cone; the relation also around cones whose slot holds
several extensions that cut its block, and check_balanced, which visits
the facets of the weight's support alone, against the relation at every
cone.  Also the top degrees deg(x_sigma x_rho) = -lambda
that the pairing walk reads off the relations of the fan's weight, which
is read-only and whose table of relations fundamental_weight alone
fills, the UnbalancedInput raised where a weight is corrupted or a fan's
unit weight is unbalanced, and a pin of
products, caps, balancing, pairings, the bundle identity, the ring model
and `chowfans fan` on fresh fans against the references, the degree and
pairings of a top-degree class keyed by a cone listed out of order, the
ring coordinates of a class keyed so, and the ConeNotInFan raised for a
weight or a class off the fan."""

import json
import re
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chowfans import chow, cli
from chowfans.biflags import verify_bundle_identity
from chowfans.chow import (ChowElement, MinkowskiWeight, UnbalancedInput,
                           cap_product, divisor, fundamental_weight,
                           multiply_by_divisor, nonzero_pairing_witness,
                           pair_all)
from chowfans.fans import (ConeNotInFan, bergman_fan,
                           bipermutohedral_fan, check_balanced,
                           permutohedral_fan, projective_bundle_fan)
from chowfans.matroid import (matroid_from_bases, matroid_from_graph,
                              matroid_uniform, pyramid_matroid)
from chowfans.rings import FanRingModel
from naive_oracle import (ReferenceFan, reference_cap_product, reference_degree,
                          reference_fan_out, reference_functional,
                          reference_multiply_by_divisor,
                          reference_multiply_by_ray, reference_pair_all,
                          reference_pairings, reference_relation)
from test_kernel import rank_balanced, rank_violations


def parallel_pair():
    return matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])


FAN_BUILDERS = {
    **{"bundle-U(%d,%d)" % (r, N):
       lambda r=r, N=N: projective_bundle_fan(N, matroid_uniform(r, N))
       for N in range(2, 5) for r in range(1, N + 1)},
    "bundle-U(2,5)": lambda: projective_bundle_fan(5, matroid_uniform(2, 5)),
    "bundle-parallel-pair": lambda: projective_bundle_fan(4, parallel_pair()),
    "bergman-U(2,4)": lambda: bergman_fan(matroid_uniform(2, 4)),
    "bergman-U(3,5)": lambda: bergman_fan(matroid_uniform(3, 5)),
    "bergman-K4": lambda: bergman_fan(matroid_from_graph([
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])),
    "bergman-pyramid": lambda: bergman_fan(pyramid_matroid()),
    "bergman-parallel-pair": lambda: bergman_fan(parallel_pair()),
    "perm4": lambda: permutohedral_fan(4),
    "biperm3": lambda: bipermutohedral_fan(3),
}
FANS = pytest.mark.parametrize("name", list(FAN_BUILDERS))
# bipermutohedral(4) has 23,917 cones: the rank reference takes 12 s on it,
# so it and the Fraction walk stay off it
REFERENCE_NAMES = [n for n in FAN_BUILDERS if n != "bundle-U(4,4)"]
REFERENCE_FANS = pytest.mark.parametrize("name", REFERENCE_NAMES)
# one small fan of each kind, for the tests of the fan's weight
WEIGHT_FANS = ["bundle-U(2,3)", "bundle-parallel-pair", "bergman-U(3,5)",
               "perm4", "biperm3"]

COEFFS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@lru_cache(maxsize=None)
def fan_of(name):
    return FAN_BUILDERS[name]()


@FANS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_functional_and_span_match_the_dual_basis_path(name, data):
    """The chain reads equal the references on a drawn cone of the fan:
    the functional equals the Fraction one of a Gauss-Jordan dual basis,
    and the relation around the cone equals the Fraction solve, for drawn
    weights on its extensions and, around a (top-1)-cone, for the
    fundamental weight, balanced, and that weight with one drawn change.
    A class keyed by the cone listed out of chain order is keyed by the
    sorted cone, and its product with a drawn divisor is the Fraction
    fan-out of the listing, whose values follow their rays; a key that
    lists no cone raises ConeNotInFan naming it, where the class is
    made."""
    fan = fan_of(name)
    cone = data.draw(st.sampled_from(sorted(fan.cones)))
    values = data.draw(st.lists(COEFFS, min_size=len(cone),
                                max_size=len(cone)))
    assert fan._functional(cone, values) == \
        reference_functional(fan, cone, values)
    extensions = list(fan._extension_map(cone).values())
    drawn = {sigma: data.draw(COEFFS) for sigma in extensions}
    weights = [drawn]
    if len(cone) == fan.top_dim - 1:
        fundamental = {sigma: fan.weight[sigma] for sigma in extensions}
        assert fan._relation(cone, fundamental) is not None
        changed = dict(fundamental)
        changed[data.draw(st.sampled_from(extensions))] += data.draw(COEFFS)
        weights += [fundamental, changed]
    for w in weights:
        assert fan._relation(cone, w) == reference_relation(fan, cone, w)
    flipped, c = cone[::-1], data.draw(COEFFS)
    a = data.draw(st.lists(COEFFS, min_size=len(fan.rays),
                           max_size=len(fan.rays)))
    elem = ChowElement(fan, len(cone), {flipped: c})
    assert elem.terms == ({cone: c} if c else {})
    assert multiply_by_divisor(elem, divisor(fan, a)).terms == \
        reference_multiply_by_divisor(fan, {flipped: c}, a)
    bad = data.draw(st.sampled_from([(0, 0)] + [
        (i, j) for i in range(len(fan.rays)) for j in range(i)
        if (j, i) not in fan.cones]))
    with pytest.raises(ConeNotInFan, match=re.escape(repr(bad))):
        ChowElement(fan, 2, {bad: 1})


NONZERO = COEFFS.filter(bool)


@FANS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fan_out_matches_fraction_reference(name, data):
    """chow._times at a drawn cone, for D = sum a_rho x_rho given by its
    nonzero a_rho, equals the Fraction fan-out of the reference for a
    dense divisor, a one-ray divisor and a divisor that vanishes on the
    cone.  The last reaches the cone's extensions through the rays of D
    when D has one ray, and through the extensions themselves when D is
    nonzero on every ray off the cone, which outnumber them."""
    fan = fan_of(name)
    cone = data.draw(st.sampled_from(
        sorted(c for c in fan.cones if len(c) < fan.top_dim)))
    ext = fan._extension_map(cone)
    nrays = len(fan.rays)
    dense = data.draw(st.lists(COEFFS, min_size=nrays, max_size=nrays))
    rho = data.draw(st.integers(0, nrays - 1))
    one_ray = [data.draw(NONZERO) if i == rho else 0 for i in range(nrays)]
    off_cone = [0 if i in cone else x for i, x in enumerate(
        data.draw(st.lists(NONZERO, min_size=nrays, max_size=nrays)))]
    off_ray = data.draw(st.sampled_from(sorted(ext)))
    one_off_ray = [int(i == off_ray) for i in range(nrays)]
    assert len(ext) > 1
    for coeffs in (dense, one_ray, off_cone, one_off_ray):
        a = {i: x for i, x in enumerate(coeffs) if x}
        assert chow._times(fan, a, [(cone, 1)]) == dict(reference_fan_out(
            fan, cone, [coeffs[i] for i in cone], coeffs))


@FANS
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_relation_matches_the_fraction_solve(name, data):
    """_relation around a drawn (dim-1)-cone equals the Fraction solve for
    a balanced weight on the dim-cones (the fundamental weight capped with
    drawn divisors, scaled by a drawn int or Fraction), perturbed on a few
    drawn cones or not: a tuple over the cone's rays with sum w u_rho =
    sum_i lambda_i u_(tau_i) modulo the lineality, and None exactly where
    the weighted sum raises the rank of the cone's span."""
    fan = fan_of(name)
    dim = data.draw(st.integers(1, fan.top_dim))
    weight = fundamental_weight(fan)
    while weight.dim > dim:
        a = data.draw(st.lists(st.integers(-2, 2), min_size=len(fan.rays),
                               max_size=len(fan.rays)))
        weight = cap_product(weight, divisor(fan, a))
    scale = data.draw(COEFFS)
    values = {c: scale * v for c, v in weight.values.items()}
    for c in data.draw(st.lists(st.sampled_from(fan.cones_of_dim(dim)),
                                max_size=2, unique=True)):
        values[c] = values.get(c, 0) + data.draw(COEFFS)
    values = {c: v for c, v in values.items() if v}
    tau = data.draw(st.sampled_from(fan.cones_of_dim(dim - 1)))
    lam = fan._relation(tau, values)
    assert lam == reference_relation(fan, tau, values)
    assert (lam is None) == (not rank_balanced(fan, tau, values))
    if lam is not None:
        assert len(lam) == len(tau)


@REFERENCE_FANS
def test_top_degrees_are_minus_the_relation(name):
    """deg(x_sigma x_rho) = -lambda_i for every (top-1)-cone sigma and its
    i-th ray rho, lambda the relation of the fundamental weight at sigma,
    which the walk reads; fundamental_weight fills the fan's table with
    them, one tuple per distinct relation."""
    fan = FAN_BUILDERS[name]()
    fundamental_weight(fan)
    facets = fan.cones_of_dim(fan.top_dim - 1)
    assert set(fan._top_relations) == set(facets)
    # equal relations share one tuple
    assert len(set(map(id, fan._top_relations.values()))) == \
        len(set(fan._top_relations.values()))
    for sigma in facets:
        lam = fan._top_relations[sigma]
        for i, rho in enumerate(sigma):
            assert -lam[i] == reference_degree(
                fan, reference_multiply_by_ray(fan, {sigma: 1}, rho))


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize("name", WEIGHT_FANS)
def test_a_corrupted_fan_weight_raises_unbalanced(name, used):
    """Weight 2 on one maximal cone of a fan, given as a dict beside the
    fan's own weight, on a fresh fan or one whose relations
    fundamental_weight has read: check_balanced sees the cone sigma less
    its last ray, and the cap product of that weight, or of weight 3
    there, raises UnbalancedInput naming the (top-1)-cone whose relation
    it reads, instead of returning a weight.  Neither touches the fan's
    table, so the walk of x_sigma still pairs as the Fraction walk."""
    fan = FAN_BUILDERS[name]()
    if used:
        fundamental_weight(fan)
    table = dict(fan._top_relations)
    bad = fan.maximal_cones[0]
    sigma = bad[:-1]
    violations = check_balanced(fan, fan.top_dim, {**fan.weight, bad: 2})
    assert sigma in violations
    D = divisor(fan, [1] * len(fan.rays))
    for w in (2, 3):
        weight = MinkowskiWeight(fan, fan.top_dim, {**fan.weight, bad: w},
                                 check=False)
        with pytest.raises(UnbalancedInput,
                           match=re.escape(repr(violations[0]))):
            cap_product(weight, D)
    assert fan._top_relations == table
    k = fan.top_dim - 1
    assert pair_all(ChowElement(fan, k, {sigma: 1})) == \
        reference_pair_all(fan, k, {sigma: 1})


# P2 less its maximal cone (0, 2): the unit weight is unbalanced at the
# rays 0 and 2, each with one extension off its line, and balanced at ray
# 1, where u_0 + u_2 = -u_1
P2_LESS_A_CONE = ([[1, 0], [0, 1], [-1, -1]],
                  [(), (0,), (1,), (2,), (0, 1), (1, 2)])


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "walked"])
def test_an_unbalanced_fundamental_class_raises_unbalanced(used):
    """A ReferenceFan whose unit weight is unbalanced, fresh or after a
    first walk that reads its one relation: the walk of x_(0,),
    fundamental_weight and the cap product of the fan's own weight raise
    UnbalancedInput naming the ray (0,), the first cone without one."""
    rays, cones = P2_LESS_A_CONE
    fan = ReferenceFan(2, [], rays, range(len(rays)), cones, "toric")
    assert check_balanced(fan, 2, fan.weight) == [(0,), (2,)]
    if used:
        assert pair_all(ChowElement(fan, 1, {(1,): 1})) == \
            {(0,): 1, (1,): 1, (2,): 1}
        assert set(fan._top_relations) == {(1,)}
    ray0 = re.escape(repr((0,)))
    with pytest.raises(UnbalancedInput, match=ray0):
        pair_all(ChowElement(fan, 1, {(0,): 1}))
    with pytest.raises(UnbalancedInput, match=ray0):
        fundamental_weight(fan)
    weight = MinkowskiWeight(fan, 2, fan.weight, check=False)
    with pytest.raises(UnbalancedInput, match=ray0):
        cap_product(weight, divisor(fan, [1, 1, 1]))


@pytest.mark.parametrize("name", WEIGHT_FANS)
def test_the_fan_weight_is_read_only(name):
    """The fundamental class is fixed with the fan: its weight is 1 on
    every maximal cone, and no write reaches it."""
    fan = fan_of(name)
    assert dict(fan.weight) == dict.fromkeys(fan.maximal_cones, 1)
    bad = fan.maximal_cones[0]
    with pytest.raises(TypeError):
        fan.weight[bad] = 2
    with pytest.raises(TypeError):
        del fan.weight[bad]
    assert fan.weight[bad] == 1


@pytest.mark.parametrize("name", WEIGHT_FANS)
def test_check_balanced_leaves_the_relation_table_empty(name):
    """The balancing check of the fan's own weight computes each relation
    and drops it: it writes nothing to the fan."""
    fan = FAN_BUILDERS[name]()
    assert check_balanced(fan, fan.top_dim, fan.weight) == []
    assert fan._top_relations == {}


@pytest.mark.parametrize("name", WEIGHT_FANS)
def test_fundamental_weight_fills_the_relation_table(name):
    """One sweep over the (top-1)-cones fills the table that the walk and
    the cap read, with the relations check_balanced computes."""
    fan = FAN_BUILDERS[name]()
    weight = fundamental_weight(fan)
    assert weight.values == dict(fan.weight)
    facets = fan.cones_of_dim(fan.top_dim - 1)
    assert set(fan._top_relations) == set(facets)
    for tau in facets:
        assert fan._top_relations[tau] == fan._relation(tau, fan.weight)


def full_sweep(fan, dim, values):
    """The violations of a weight by the relation at every (dim-1)-cone."""
    return [tau for tau in fan.cones_of_dim(dim - 1)
            if fan._relation(tau, values) is None]


@REFERENCE_FANS
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_check_balanced_equals_the_full_sweep(name, data):
    """check_balanced, which visits only the facets of the weighted cones,
    lists the violations of the relation at every (dim-1)-cone, in the
    same order, in every dimension: for a sparse drawn weight, a dense one
    cycling a few drawn values over every cone, a balanced one (the
    fundamental weight capped with drawn divisors, scaled) changed on a
    few cones, with int and Fraction entries, and weight 1 on the first
    cone alone."""
    fan = fan_of(name)
    weight = fundamental_weight(fan)
    for dim in range(fan.top_dim, -1, -1):
        if dim < fan.top_dim:
            a = data.draw(st.lists(st.integers(-2, 2), min_size=len(fan.rays),
                                   max_size=len(fan.rays)))
            weight = cap_product(weight, divisor(fan, a))
        cones = fan.cones_of_dim(dim)
        sparse = {c: data.draw(COEFFS) for c in data.draw(
            st.lists(st.sampled_from(cones), max_size=4, unique=True))}
        cycle = data.draw(st.lists(COEFFS, min_size=1, max_size=5))
        dense = {c: cycle[i % len(cycle)] for i, c in enumerate(cones)}
        scale = data.draw(COEFFS)
        changed = {c: scale * v for c, v in weight.values.items()}
        for c in data.draw(st.lists(st.sampled_from(cones), max_size=2,
                                    unique=True)):
            changed[c] = changed.get(c, 0) + data.draw(COEFFS)
        for values in (sparse, dense, changed, {cones[0]: 1}):
            assert check_balanced(fan, dim, values) == \
                full_sweep(fan, dim, values)


def blocks_of(fan, tau):
    """The blocks of tau's chain, as tuples of masks: (B_j,) on a flag
    fan, (A_j, B_j) on a biflag fan, from the labels and the sentinels."""
    chain = fan.cone_chain(tau)
    if isinstance(fan.ray_labels[0], tuple):
        full = (1 << (fan.ambient_dim // 2)) - 1
        ends = [(0, full), *chain, (full, 0)]
        return [(ends[j + 1][0] & ~ends[j][0], ends[j][1] & ~ends[j + 1][1])
                for j in range(len(tau) + 1)]
    ends = [0, *chain, (1 << fan.ambient_dim) - 1]
    return [(ends[j + 1] & ~ends[j],) for j in range(len(tau) + 1)]


def shared_cut_slots(fan, tau):
    """{j: rays}: the slots of tau that hold two or more extensions, one
    of which cuts its block, meeting it in neither nothing nor all of
    it."""
    blocks, by_slot = blocks_of(fan, tau), {}
    for rho, sigma in fan._extension_map(tau).items():
        by_slot.setdefault(sigma.index(rho), []).append(rho)
    out = {}
    for j, rhos in by_slot.items():
        labels = [fan.ray_labels[rho] for rho in rhos]
        if len(rhos) > 1 and any(
                0 != part & block != block for label in labels
                for part, block in zip(label if isinstance(label, tuple)
                                       else (label,), blocks[j])):
            out[j] = rhos
    return out


@lru_cache(maxsize=None)
def shared_cut_cones(name):
    fan = fan_of(name)
    return [tau for tau in sorted(fan.cones)
            if len(tau) < fan.top_dim and shared_cut_slots(fan, tau)]


@REFERENCE_FANS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_relation_on_a_shared_cut_slot_matches_the_fraction_solve(name, data):
    """Around a drawn cone with two or more extensions in one slot, one of
    which cuts its block, _relation equals the Fraction solve: for drawn
    weights on those extensions alone, drawn weights on every extension,
    and a balanced weight of the cone's dimension plus one (the
    fundamental weight capped with drawn divisors), which reads the cut
    blocks element by element and has a relation."""
    fan = fan_of(name)
    tau = data.draw(st.sampled_from(shared_cut_cones(name)))
    extensions = fan._extension_map(tau)
    rhos = next(iter(shared_cut_slots(fan, tau).values()))
    nonzero = COEFFS.filter(bool)
    shared = {extensions[rho]: data.draw(nonzero) for rho in rhos}
    every = {sigma: data.draw(COEFFS) for sigma in extensions.values()}
    weight = fundamental_weight(fan)
    while weight.dim > len(tau) + 1:
        a = data.draw(st.lists(st.integers(-2, 2), min_size=len(fan.rays),
                               max_size=len(fan.rays)))
        weight = cap_product(weight, divisor(fan, a))
    balanced = {sigma: weight.values[sigma] for sigma in extensions.values()
                if sigma in weight.values}
    for w in (shared, every, balanced):
        assert fan._relation(tau, w) == reference_relation(fan, tau, w)
    assert fan._relation(tau, balanced) is not None


@pytest.mark.parametrize("name", WEIGHT_FANS)
def test_relation_at_every_cone_matches_the_fraction_solve(name):
    """Around every cone below the top, _relation equals the Fraction
    solve for two kinds of weights.  The balanced ones, the fundamental
    weight capped down with a fixed divisor, have a relation everywhere,
    so every lambda step shows.  Weight 1 and 2 on a pair of extensions
    in different slots: where both cover or miss each part of their
    biflag blocks, the slots read kappa = 1 and 2 times the same count,
    which the kappa comparison must reject."""
    fan = fan_of(name)
    D = divisor(fan, [i % 3 - 1 for i in range(len(fan.rays))])
    weight = fundamental_weight(fan)
    while weight.dim > 0:
        for tau in fan.cones_of_dim(weight.dim - 1):
            lam = fan._relation(tau, weight.values)
            assert lam is not None
            assert lam == reference_relation(fan, tau, weight.values)
        weight = cap_product(weight, D)
    for tau in sorted(fan.cones):
        if len(tau) == fan.top_dim:
            continue
        extensions = [(sigma.index(rho), sigma) for rho, sigma
                      in fan._extension_map(tau).items()]
        for (i, a), (j, b) in combinations(extensions, 2):
            if i != j:
                w = {a: 1, b: 2}
                assert fan._relation(tau, w) == reference_relation(fan, tau, w)


@REFERENCE_FANS
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_balancing_matches_rank_reference(name, data):
    """A drawn weight on the cones of a drawn dimension, mostly
    unbalanced, and the fundamental weight with drawn changes."""
    fan = fan_of(name)
    dim = data.draw(st.integers(1, fan.top_dim))
    cones = fan.cones_of_dim(dim)
    picked = data.draw(st.lists(st.sampled_from(cones), min_size=1,
                                max_size=4, unique=True))
    values = {c: data.draw(COEFFS) for c in picked}
    assert check_balanced(fan, dim, values) == \
        rank_violations(fan, dim, values)
    values = dict(fan.weight)
    for c in data.draw(st.lists(st.sampled_from(fan.maximal_cones),
                                max_size=2, unique=True)):
        values[c] += data.draw(COEFFS)
    assert check_balanced(fan, fan.top_dim, values) == \
        rank_violations(fan, fan.top_dim, values)


@REFERENCE_FANS
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_balancing_per_slot_matches_the_dense_residual(name, data):
    """In every dimension, a balanced weight (the fundamental weight
    capped with drawn divisors, scaled by a drawn int or Fraction) with
    drawn int and Fraction changes on a few cones: check_balanced, which
    reads each slot of a chain fan on its own block, lists the cones at
    which the weighted sum raises the rank of the cone's span."""
    fan = fan_of(name)
    weight = fundamental_weight(fan)
    for dim in range(fan.top_dim, 0, -1):
        if dim < fan.top_dim:
            a = data.draw(st.lists(st.integers(-2, 2), min_size=len(fan.rays),
                                   max_size=len(fan.rays)))
            weight = cap_product(weight, divisor(fan, a))
        scale = data.draw(COEFFS)
        values = {c: scale * v for c, v in weight.values.items()}
        for c in data.draw(st.lists(st.sampled_from(fan.cones_of_dim(dim)),
                                    max_size=3, unique=True)):
            values[c] = values.get(c, 0) + data.draw(COEFFS)
        assert check_balanced(fan, dim, values) == \
            rank_violations(fan, dim, values)


@REFERENCE_FANS
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pairing_walk_matches_fraction_walk(name, data):
    """The walk yields the cones and pairings of the Fraction walk over
    every ray that pair nonzero, in its order, so the witness is its
    first nonzero; zero pairings are not yielded."""
    fan = fan_of(name)
    # the Fraction walk tries every ray at every depth up to 4
    k = data.draw(st.integers(max(0, fan.top_dim - 4), fan.top_dim))
    cones = data.draw(st.lists(st.sampled_from(fan.cones_of_dim(k)),
                               min_size=1, max_size=3, unique=True))
    terms = {c: data.draw(COEFFS) for c in cones}
    elem = ChowElement(fan, k, terms)
    want = list(reference_pairings(fan, k, terms))
    assert list(chow._pairings(elem)) == [(tau, v) for tau, v in want if v]
    assert nonzero_pairing_witness(elem) == next(
        (tau for tau, v in want if v != 0), None)


@REFERENCE_FANS
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pairings_through_the_leaf_table_match_fraction_walk(name, data):
    """pair_all of a drawn class and drawn rows of the pairing matrix equal
    the Fraction walk's, with the relations of the fan's weight that the
    leaves read shared by every walk on the fan, and filled by earlier
    examples."""
    fan = fan_of(name)
    k = data.draw(st.integers(max(0, fan.top_dim - 4), fan.top_dim))
    cones = fan.cones_of_dim(k)
    terms = {c: data.draw(COEFFS) for c in data.draw(st.lists(
        st.sampled_from(cones), min_size=1, max_size=3, unique=True))}
    assert pair_all(ChowElement(fan, k, terms)) == \
        reference_pair_all(fan, k, terms)
    rows, cols, mat = chow._pairing_matrix(fan, k)
    for sigma in data.draw(st.lists(st.sampled_from(rows), min_size=1,
                                    max_size=2, unique=True)):
        want = reference_pair_all(fan, k, {sigma: 1})
        assert mat[rows.index(sigma)] == [want[tau] for tau in cols]


# the `chowfans fan` arguments that build each fan of the pin below
FAN_ARGS = {
    "bundle-U(2,3)": ["--kind", "bundle", "--matroid", '{"uniform": [2, 3]}'],
    "bundle-U(3,4)": ["--kind", "bundle", "--matroid", '{"uniform": [3, 4]}'],
    "bundle-parallel-pair": ["--kind", "bundle", "--matroid", json.dumps(
        {"n": 4, "bases": [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]})],
    "bergman-pyramid": ["--kind", "bergman", "--matroid", json.dumps(
        {"graph": {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 1],
                                            [1, 5], [2, 5], [3, 5], [4, 5]]}})],
    "perm4": ["--kind", "permutohedral", "--N", "4"],
    "biperm3": ["--kind", "bipermutohedral", "--N", "3"],
}


@pytest.mark.parametrize("name", list(FAN_ARGS))
def test_products_and_balancing_build_no_dual_basis(capsys, name):
    """check_balanced, multiply_by_divisor, cap_product, the pairing walk
    on a top-degree and a degree-1 class, the bundle identity, the ring
    model of perm(4) and `chowfans fan` on a fresh flag or biflag fan,
    against the references."""
    fan = FAN_BUILDERS[name]()
    a = [i % 3 - 1 for i in range(len(fan.rays))]
    D = divisor(fan, a)
    weight = fundamental_weight(fan)
    assert check_balanced(fan, fan.top_dim, weight.values) == []
    product = multiply_by_divisor(multiply_by_divisor(
        ChowElement(fan, 1, {(0,): 2}), D), D)
    assert product.terms == reference_multiply_by_divisor(
        fan, reference_multiply_by_divisor(fan, {(0,): 2}, a), a)
    cap = cap_product(weight, D)
    assert cap.values == reference_cap_product(fan, fan.top_dim,
                                               weight.values, a)
    top = ChowElement(fan, fan.top_dim, {c: 2 for c in fan.maximal_cones[:2]})
    assert pair_all(top) == {(): 4}
    assert nonzero_pairing_witness(top) == ()
    pairings = pair_all(D)
    assert nonzero_pairing_witness(D) == next(
        (tau for tau, v in pairings.items() if v), None)
    if name.startswith("bundle"):
        M = cli.load_matroid(FAN_ARGS[name][-1])
        assert verify_bundle_identity(M.n, M, fan=fan)["status"] == "pass"
    if name == "perm4":
        model = FanRingModel(fan)
        assert [model.dim(k) for k in range(model.top + 1)] == [1, 11, 11, 1]
    assert cli.main(["fan", *FAN_ARGS[name]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unimodular"] and report["balanced"]


def test_top_degree_class_keyed_out_of_order():
    """On the bundle fan of U(2,3), (6, 3, 0) lists the maximal cone
    (0, 3, 6) out of order: a class keyed by it has that cone's degree and
    pairings, and a key that lists no cone raises ConeNotInFan naming it
    where the class is made."""
    fan = projective_bundle_fan(3, matroid_uniform(2, 3))
    assert (0, 3, 6) in fan.maximal_cones
    flipped = ChowElement(fan, 3, {(6, 3, 0): 1})
    assert chow.degree(flipped) == 1
    assert pair_all(flipped) == {(): 1}
    assert nonzero_pairing_witness(flipped) == ()
    D = divisor(fan, [i % 3 - 1 for i in range(len(fan.rays))])
    assert multiply_by_divisor(ChowElement(fan, 2, {(3, 0): 1}), D).terms \
        == multiply_by_divisor(ChowElement(fan, 2, {(0, 3): 1}), D).terms
    for bad in [(0, 0, 3), (6, 0, 0)]:
        with pytest.raises(ConeNotInFan, match=re.escape(repr(bad))):
            ChowElement(fan, 3, {bad: 1})


def test_class_keys_are_read_as_sorted_cones():
    """On perm(4), ray 0 is {1} and ray 12 is {1, 3, 4}, so (12, 0) lists
    the 2-cone (0, 12) out of order: a class keyed by it has that cone's
    coordinates in the ring model, two listings of one cone add up, and a
    key that lists no cone, or a cone of another dimension, raises
    ConeNotInFan naming the key where the class is made."""
    fan = permutohedral_fan(4)
    assert (0, 12) in fan.cones and (0, 1) not in fan.cones
    model = FanRingModel(fan)
    x = model.to_vector(ChowElement(fan, 2, {(12, 0): 1}))
    assert any(x) and x == model.to_vector(ChowElement(fan, 2, {(0, 12): 1}))
    assert ChowElement(fan, 2, {(0, 12): 1, (12, 0): -1}).terms == {}
    assert ChowElement(fan, 2, {(12, 0): 1, (0, 12): 2}).terms == {(0, 12): 3}
    for key, k in [((1, 0), 2), ((12, 12), 2), ((0, 12), 1), ((12, 0), 3),
                   ((0,), 2)]:
        with pytest.raises(ConeNotInFan, match=re.escape(repr(key))):
            ChowElement(fan, k, {key: 1})


@pytest.mark.parametrize("key", [(0, 99), (0,), (3, 0), (0, 1), (0, 3, 5)])
def test_weight_off_the_fan_raises(key):
    """On perm(3), rays 0..5 are {0}, {1}, {2}, {0,1}, {0,2}, {1,2}: (0, 3)
    is a 2-cone, (3, 0) lists it out of order and {0}, {1} is no chain."""
    fan = permutohedral_fan(3)
    with pytest.raises(ConeNotInFan, match=re.escape(repr(key))):
        MinkowskiWeight(fan, 2, {(0, 3): 1, key: 5})
    with pytest.raises(ConeNotInFan):
        check_balanced(fan, 0, {key: 1})
    assert check_balanced(fan, 2, {(0, 3): 1}) == [(0,), (3,)]


def test_cones_of_dim_are_grouped_once():
    fan = projective_bundle_fan(4, matroid_uniform(3, 4))
    for k in range(-1, fan.top_dim + 2):
        want = tuple(sorted(c for c in fan.cones if len(c) == k))
        assert fan.cones_of_dim(k) == want
        assert fan.cones_of_dim(k) is fan.cones_of_dim(k)
    assert fan.maximal_cones == list(fan.cones_of_dim(fan.top_dim))
