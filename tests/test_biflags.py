import collections

import pytest

from chowfans import biflags
from chowfans.biflags import (InvariantViolated, NotABiflag, SplitBiflag,
                              canonical_expansion, dyck_profile,
                              expansion_index, family_sets, gap_free_firsts,
                              is_lex_decreasing, lemma_suite,
                              split_at_first_gap, verify_bundle_identity,
                              verify_cancellation, verify_min_dec)
from chowfans.chow import (multiply_by_divisor, nonzero_pairing_witness,
                           ray_class, unit_class)
from chowfans.fans import projective_bundle_fan
from chowfans.matroid import (matroid_from_bases, matroid_uniform,
                              pyramid_matroid, set_to_mask)
from chowfans.tautological import structural_divisors


def m(*elements):
    return set_to_mask(set(elements))


E = m(1, 2, 3, 4, 5, 6, 7, 8)


def pyramid_running_example():
    return [(m(1, 2, 6), E), (m(1, 2, 6), m(3, 4, 5, 7, 8)),
            (m(1, 2, 4, 6), m(3, 4, 5, 7, 8)),
            (m(1, 2, 4, 5, 6), m(3, 7, 8)),
            (m(1, 2, 4, 5, 6, 7), m(3, 7, 8))]


def test_split_at_first_gap_pyramid():
    M = pyramid_matroid()
    sp = split_at_first_gap(M, pyramid_running_example())
    assert sp.s == 3 and sp.l == 2
    assert sp.first[-1] == (m(1, 2, 4, 6), m(3, 4, 5, 7, 8))
    assert sp.closure_Ssc == m(3, 4, 5, 7, 8)
    assert sp.a == 3


def test_running_example_not_lex_decreasing_at_1():
    M = pyramid_matroid()
    sp = split_at_first_gap(M, pyramid_running_example())
    assert not is_lex_decreasing(sp, at=1)
    assert not is_lex_decreasing(sp)


def test_lex_decreasing_example():
    M = pyramid_matroid()
    chain = [(m(1, 2, 6, 7), E), (m(1, 2, 5, 6, 7, 8), m(1, 2, 3, 4)),
             (E, m(3))]
    sp = split_at_first_gap(M, chain)
    assert sp.s == 1
    assert is_lex_decreasing(sp)
    assert sp.closure_Ssc & m(1, 2, 3, 4) == m(3, 4)
    assert sp.closure_Ssc & m(3) == m(3)
    # replacing G_1 by the smaller flat keeps the property
    alt = [(m(1, 2, 6, 7), E), (m(1, 2, 5, 6, 7, 8), m(3, 4)), (E, m(3))]
    assert is_lex_decreasing(split_at_first_gap(M, alt))


def test_dyck_profile_inequalities():
    M = pyramid_matroid()
    chain = [(m(1, 2, 6, 7), E), (m(1, 2, 5, 6, 7, 8), m(1, 2, 3, 4)),
             (E, m(3))]
    sp = split_at_first_gap(M, chain)
    profile = dyck_profile(sp)
    a = sp.a
    for i, (gi_rank, ti_rank) in enumerate(profile, start=1):
        assert ti_rank <= gi_rank <= a - i


def test_dyck_profile_raises_when_a_is_too_low():
    M = pyramid_matroid()
    chain = [(m(1, 2, 6, 7), E), (m(1, 2, 5, 6, 7, 8), m(1, 2, 3, 4)),
             (E, m(3))]
    sp = split_at_first_gap(M, chain)
    sp.a -= 1
    with pytest.raises(InvariantViolated):
        dyck_profile(sp)


def test_expansion_index_pyramid():
    M = pyramid_matroid()
    chain = [(m(1, 2, 6, 7), E), (E, m(3))]
    sp = split_at_first_gap(M, chain)
    i, e = expansion_index(sp)
    assert e == 4


def test_canonical_expansion_pyramid_terms():
    M = pyramid_matroid()
    chain = [(m(1, 2, 6, 7), E), (E, m(3))]
    sp = split_at_first_gap(M, chain)
    e, pos, neg = canonical_expansion(sp)
    assert e == 4
    pos_example = ((m(1, 2, 6, 7), E), (E, m(3, 4)), (E, m(3)))
    neg_example = ((m(1, 2, 6, 7), E),
                   (m(1, 2, 4, 5, 6, 7), m(3, 7, 8)), (E, m(3)))
    assert pos_example in pos
    assert neg_example in neg


def test_pos_term_is_lex_decreasing_in_aprime():
    M = pyramid_matroid()
    first = [(m(1, 2, 6, 7), E)]
    data = family_sets(M, first, 1)
    pos_example = ((m(1, 2, 6, 7), E), (E, m(3, 4)), (E, m(3)))
    neg_example = ((m(1, 2, 6, 7), E),
                   (m(1, 2, 4, 5, 6, 7), m(3, 7, 8)), (E, m(3)))
    aprime = {tuple(sp.chain()) for sp in data["Aprime"]}
    assert pos_example in aprime
    assert neg_example not in aprime
    base_chain = ((m(1, 2, 6, 7), E), (E, m(3)))
    assert base_chain in {tuple(sp.chain()) for sp in data["parts"][1]}


def test_split_rejects_gap_free_chain():
    M = matroid_uniform(2, 3)
    full = M.full
    # 12|123 < 123|3: no index has a gap
    chain = [(m(1, 2) & full, full), (full, m(3) & full)]
    with pytest.raises(NotABiflag):
        split_at_first_gap(M, chain)


def test_canonical_expansion_names_a_member_that_is_no_biflat():
    """34|12 is a lexicographically decreasing biflag of U(2,4) in shape,
    but 12 is no flat, so no insertion can be read off its successors."""
    M = matroid_uniform(2, 4)
    sp = SplitBiflag(M, [], [(m(3, 4), m(1, 2))])
    assert is_lex_decreasing(sp)
    with pytest.raises(NotABiflag, match=r"^\(3, 4\)\|\(1, 2\) "):
        canonical_expansion(sp)


def test_cancellation_sweep_u24_exhaustive():
    M = matroid_uniform(2, 4)
    count = 0
    for first in gap_free_firsts(M, 2):
        a = SplitBiflag(M, list(first), []).a
        for l in range(a):
            rep = verify_cancellation(M, list(first), l)
            assert rep["status"] == "pass", (first, l, rep.get("check"))
            count += 1
    assert count > 10


def test_cancellation_sweep_u34():
    M = matroid_uniform(3, 4)
    for first in gap_free_firsts(M, 1):
        a = SplitBiflag(M, list(first), []).a
        for l in range(a):
            rep = verify_cancellation(M, list(first), l)
            assert rep["status"] == "pass", (first, l, rep.get("check"))


def test_vanishing_products_u24():
    M = matroid_uniform(2, 4)
    fan = projective_bundle_fan(4, M)
    for first in gap_free_firsts(M, 1):
        a = SplitBiflag(M, list(first), []).a
        for l in range(a):
            assert verify_min_dec(M, fan, list(first), l), (first, l)


def tampered_expansion(monkeypatch, change):
    """Apply change(split, pos) to the pos set of the first canonical
    expansion whose split it selects and whose pos set is nonempty."""
    real = biflags.canonical_expansion
    done = []

    def expansion(split):
        e, pos, neg = real(split)
        if pos and not done:
            new = change(split, set(pos))
            if new is not None:
                done.append(split)
                pos = new
        return e, pos, neg
    monkeypatch.setattr(biflags, "canonical_expansion", expansion)
    return done


def drop_least(split, pos):
    return pos - {min(pos)}


def add_own_chain(split, pos):
    # a biflag of length s + l is no term of any length-(l+1) family; the
    # members of A_1 are left alone, since B reads their inserted biflat
    if expansion_index(split)[0] > 1:
        return pos | {tuple(split.chain())}
    return None


@pytest.mark.parametrize("M, l, change, check, witness", [
    (matroid_uniform(2, 4), 1, drop_least, "neg-containment",
     ((14, 1), (15, 1))),
    (matroid_uniform(2, 4), 1, add_own_chain, "neg-containment-difference",
     ((14, 1),)),
    (matroid_uniform(3, 4), 1, drop_least, "partition", ((14, 3), (14, 1))),
    (matroid_uniform(3, 4), 1, add_own_chain, "neg-containment-difference",
     ((6, 9),)),
], ids=["U(2,4)-drop", "U(2,4)-foreign", "U(3,4)-drop", "U(3,4)-foreign"])
def test_cancellation_fails_on_a_tampered_expansion(monkeypatch, M, l,
                                                     change, check, witness):
    assert verify_cancellation(M, [], l)["status"] == "pass"
    done = tampered_expansion(monkeypatch, change)
    rep = verify_cancellation(M, [], l)
    assert done
    assert (rep["status"], rep["check"], rep["witness"]) == \
        ("fail", check, witness)


def test_lemma_suite_reports_all_pass():
    M = matroid_uniform(2, 3)
    reports = list(lemma_suite(M, max_first_len=1))
    assert reports
    assert all(r["status"] == "pass" for r in reports)


def test_lemma_suite_builds_each_pair_once(monkeypatch):
    """One family_sets per (first, l) pair and one set of structural
    divisors per suite; the vanishing verdicts are verify_min_dec's."""
    M = matroid_uniform(2, 4)
    fan = projective_bundle_fan(4, M)
    built = collections.Counter()
    divisors = []
    family_sets_, structural_divisors = (biflags.family_sets,
                                         biflags.structural_divisors)

    def counting_family_sets(M, first, l):
        built[tuple(first), l] += 1
        return family_sets_(M, first, l)

    def counting_divisors(fan, M):
        divisors.append(fan)
        return structural_divisors(fan, M)

    monkeypatch.setattr(biflags, "family_sets", counting_family_sets)
    monkeypatch.setattr(biflags, "structural_divisors", counting_divisors)
    reports = list(lemma_suite(M, fan=fan, max_first_len=2))
    monkeypatch.undo()
    vanishing = [r for r in reports if r["check"] == "vanishing-product"]
    assert vanishing and len(divisors) == 1
    assert built == {(r["first"], r["l"]): 1 for r in vanishing}
    for r in vanishing:
        ok = verify_min_dec(M, fan, list(r["first"]), r["l"])
        assert r["status"] == ("pass" if ok else "fail"), r


def test_bundle_identity_small():
    for N, M in [(2, matroid_uniform(1, 2)), (3, matroid_uniform(2, 3))]:
        rep = verify_bundle_identity(N, M)
        assert rep["status"] == "pass"


def parallel_pair():
    return matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])


# the witnesses of verify_bundle_identity when one structural divisor gains
# the ray x_0: with gammabar changed only e3 is nonzero, and with delta
# changed e1 = e2 is nonzero and e3 still vanishes; as recorded when the
# third check walked e2 - e3 in every case
CHANGED_WITNESSES = {
    ("U(3,4)", "gammabar"): (None, None, (0, 16)),
    ("U(3,4)", "delta"): ((0, 32), None, (0, 32)),
    ("parallel-pair", "gammabar"): (None, None, (0, 11)),
    ("parallel-pair", "delta"): ((0, 15), None, (0, 15)),
}
IDENTITY_MATROIDS = {"U(3,4)": lambda: matroid_uniform(3, 4),
                     "parallel-pair": parallel_pair}


@pytest.mark.parametrize("name,changed", list(CHANGED_WITNESSES))
def test_identity_witnesses_when_a_product_is_nonzero(monkeypatch, name,
                                                      changed):
    """verify_bundle_identity walks e3 for its third check only once e1 = 0
    and e1 - e2 = 0 are proved, and e2 - e3 otherwise.  With x_0 added to
    gammabar, e3 alone is nonzero and the walk of e3 finds the witness
    that e2 - e3 has; with x_0 added to delta, e1 fails and e2 - e3 is
    walked, whose witness, that of e2, e3 (zero) does not have."""
    M = IDENTITY_MATROIDS[name]()

    def changed_divisors(fan, M, j=1):
        sd = structural_divisors(fan, M, j)
        sd[changed] = sd[changed] + ray_class(fan, 0)
        return sd

    walked = []

    def recording(elem):
        walked.append(elem)
        return nonzero_pairing_witness(elem)

    monkeypatch.setattr(biflags, "structural_divisors", changed_divisors)
    monkeypatch.setattr(biflags, "nonzero_pairing_witness", recording)
    rep = verify_bundle_identity(M.n, M)
    checks = rep["checks"]
    assert (checks["chern-delta-polynomial"],
            checks["delta-u-product-difference"],
            checks["v-minus-product-difference"]) == \
        CHANGED_WITNESSES[name, changed]
    assert checks["v-r-minus-restricts-to-zero"] is None
    assert rep["status"] == "fail"
    fan = rep["fan"]
    sd = changed_divisors(fan, M)
    e2 = e3 = unit_class(fan)
    for j in range(1, M.r + 1):
        e2 = multiply_by_divisor(e2, sd["delta"] + sd["u"][j])
        e3 = multiply_by_divisor(e3, sd["gammabar"] - sd["vminus"][j])
    third = e3 if changed == "gammabar" else e2 - e3
    assert len(walked) == 3 and walked[2].terms == third.terms
    assert nonzero_pairing_witness(e2 - e3) == \
        checks["v-minus-product-difference"]
