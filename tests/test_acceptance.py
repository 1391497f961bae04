"""Acceptance checks, one per criterion, all in exact rational arithmetic.

Each test prints a single pass/fail line on the real terminal (outside
pytest capture) and then asserts, so a red run still reports every
criterion it reached.
"""

from chowfans.biflags import (SplitBiflag, canonical_expansion,
                              expansion_index, gap_free_firsts, lemma_suite,
                              split_at_first_gap, verify_bundle_identity)
from chowfans.chow import cap_product, chow_dim, fundamental_weight
from chowfans.fans import (bergman_fan, bipermutohedral_fan, check_balanced,
                           matroid_gap_indices, permutohedral_fan,
                           projective_bundle_fan)
from chowfans.kahler import (matroid_bundle_model,
                             restricted_multi_bundle_model,
                             sample_lefschetz_candidates)
from chowfans.matroid import (matroid_from_bases, matroid_uniform,
                              pyramid_matroid, set_to_mask)
from chowfans.rings import (FanRingModel, bloch_gieseker,
                            quotient_by_ann_segre)
from chowfans.tautological import chern_classes
from naive_oracle import NaiveQuotient


def parallel_pair_matroid():
    """Rank 2 on four elements with 1 and 2 parallel."""
    return matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])


SUITE = [(2, matroid_uniform(1, 2)),
         (3, matroid_uniform(2, 3)),
         (4, matroid_uniform(2, 4)),
         (4, matroid_uniform(3, 4)),
         (4, parallel_pair_matroid()),
         (5, matroid_uniform(3, 5))]


def report(capsys, num, name, ok):
    line = "criterion %d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    with capsys.disabled():
        print(line)
    assert ok, line


def m(*elements):
    return set_to_mask(set(elements))


def test_criterion_1_bundle_identity(capsys):
    ok = True
    for N, M in SUITE:
        rep = verify_bundle_identity(N, M)
        ok = ok and rep["status"] == "pass"
    report(capsys, 1, "bundle identity", ok)


def test_criterion_2_lemma_suite(capsys):
    ok = True
    for M in (matroid_uniform(2, 4), matroid_uniform(3, 4)):
        for rep in lemma_suite(M, max_first_len=10):
            ok = ok and rep["status"] == "pass"

    P = pyramid_matroid()
    E = m(1, 2, 3, 4, 5, 6, 7, 8)
    running = [(m(1, 2, 6), E), (m(1, 2, 6), m(3, 4, 5, 7, 8)),
               (m(1, 2, 4, 6), m(3, 4, 5, 7, 8)),
               (m(1, 2, 4, 5, 6), m(3, 7, 8)),
               (m(1, 2, 4, 5, 6, 7), m(3, 7, 8))]
    ok = ok and matroid_gap_indices(P, running) == {3, 5}
    sp = split_at_first_gap(P, running)
    ok = ok and sp.s == 3 and sp.l == 2 and sp.a == 3

    short = [(m(1, 2, 6, 7), E), (E, m(3))]
    spe = split_at_first_gap(P, short)
    ok = ok and expansion_index(spe)[1] == 4
    e, pos, neg = canonical_expansion(spe)
    ok = ok and e == 4
    ok = ok and ((m(1, 2, 6, 7), E), (E, m(3, 4)), (E, m(3))) in pos
    ok = ok and ((m(1, 2, 6, 7), E),
                 (m(1, 2, 4, 5, 6, 7), m(3, 7, 8)), (E, m(3))) in neg
    report(capsys, 2, "lemma suite at N = 4 plus worked examples", ok)


def test_criterion_3_truncation_recursion(capsys):
    ok = True
    for N, M in SUITE:
        from chowfans.tautological import structural_divisors
        fan = projective_bundle_fan(N, M)
        sd = structural_divisors(fan, M)
        w = cap_product(fundamental_weight(fan), sd["gammabar"])
        got = {fan.cone_chain(c): v for c, v in w.values.items()}
        if M.r > 1:
            target = projective_bundle_fan(N, M.truncate())
            want = {target.cone_chain(c): v
                    for c, v in fundamental_weight(target).values.items()}
        else:
            want = {}
        ok = ok and got == want
    report(capsys, 3, "truncation recursion", ok)


KAHLER_INSTANCES = [(3, matroid_uniform(2, 3)),
                    (4, matroid_uniform(2, 4)),
                    (4, matroid_uniform(1, 4))]


def test_criterion_4_kahler_package(capsys):
    ok = True
    for N, M in KAHLER_INSTANCES:
        for phi in ("identity", "negation"):
            B, h, zetas = matroid_bundle_model(N, M, phi=phi)
            reports = sample_lefschetz_candidates(B, h, zetas, samples=3)
            ok = ok and len(reports) == 3
            for rep in reports:
                ok = ok and rep["pd"] and rep["hl"] and rep["hr"]
    report(capsys, 4, "Kahler package on bundle rings", ok)


def test_criterion_5_multi_bundle_smoke(capsys):
    M = matroid_uniform(2, 3)
    model, h, zetas = restricted_multi_bundle_model(M, [M, M])
    reports = sample_lefschetz_candidates(model, h, zetas, samples=3)
    ok = len(zetas) == 2 and len(reports) == 3
    for rep in reports:
        ok = ok and rep["pd"] and rep["hl"] and rep["hr"]
    report(capsys, 5, "multiple bundle smoke instance", ok)


def test_criterion_6_bloch_gieseker(capsys):
    from chowfans.kahler import base_convex_divisor, divisor_vector
    ok = True
    for N, M in KAHLER_INSTANCES:
        base = FanRingModel(permutohedral_fan(N))
        cs = chern_classes(base.fan, M)
        c = [base.unit()] + [base.to_vector(ci) for ci in cs[1:]]
        delta = divisor_vector(base, base_convex_divisor(base.fan, N))
        for entry in bloch_gieseker(base, c, delta, lams=(1, 10)):
            ok = ok and entry["zeta_full_rank"]
            ok = ok and entry.get("cd_rank_conditions", False)
            if M.r >= base.top:
                ok = ok and "sign_value" in entry
                ok = ok and entry["sign_value"] >= 0
    report(capsys, 6, "Bloch-Gieseker rank and sign checks", ok)


def test_criterion_7_annihilator_quotient(capsys):
    ok = True
    for M, want_t in ((matroid_uniform(2, 4), 2), (matroid_uniform(3, 4), 1)):
        base = FanRingModel(permutohedral_fan(4))
        cs = chern_classes(base.fan, M, via="negation")
        c = [base.unit()] + [base.to_vector(ci) for ci in cs[1:]]
        quot = quotient_by_ann_segre(base, c)
        other = FanRingModel(bergman_fan(M))
        ok = ok and quot.t == want_t
        ok = ok and quot.top == other.top
        ok = ok and all(quot.dim(k) == other.dim(k)
                        for k in range(other.top + 1))
    report(capsys, 7, "annihilator quotient Hilbert functions", ok)


def count_maximal_biflags(N):
    """Enumerate maximal biflags of [N] from scratch: chains of 2N - 2
    proper bisubsets with at least one gap against the sentinels."""
    full = (1 << N) - 1
    pairs = [(S, T) for S in range(1, full + 1) for T in range(1, full + 1)
             if (S | T) == full and (S & T) != full]

    def extensions(chain):
        last = chain[-1] if chain else None
        for p in pairs:
            if last is None:
                yield p
            elif p != last and (last[0] & ~p[0]) == 0 and (p[1] & ~last[1]) == 0:
                if p[0] > last[0] or p[1] < last[1]:
                    yield p

    count = 0
    stack = [()]
    while stack:
        chain = stack.pop()
        if len(chain) == 2 * N - 2:
            ext = ((0, full),) + chain + ((full, 0),)
            if any((ext[j][0] | ext[j + 1][1]) != full
                   for j in range(len(chain) + 1)):
                count += 1
            continue
        for p in extensions(chain):
            stack.append(chain + (p,))
    return count


def test_criterion_8_structural_sanity(capsys):
    ok = True
    for N, M in SUITE:
        fan = projective_bundle_fan(N, M)
        ok = ok and all(fan.cone_multiplicity(c) == 1
                        for c in fan.maximal_cones)
        ones = {c: 1 for c in fan.maximal_cones}
        ok = ok and check_balanced(fan, fan.top_dim, ones) == []
    for N, want in ((3, 6), (4, 24)):
        fan = permutohedral_fan(N)
        total = sum(chow_dim(fan, k) for k in range(fan.top_dim + 1))
        ok = ok and total == want
    bip = bipermutohedral_fan(3)
    total = sum(chow_dim(bip, k) for k in range(bip.top_dim + 1))
    ok = ok and total == count_maximal_biflags(3)
    report(capsys, 8, "structural sanity", ok)


def test_criterion_9_oracle_equivalence(capsys):
    from fractions import Fraction

    from chowfans.chow import ChowElement, degree, pair_all

    M23 = matroid_uniform(2, 3)
    fans = [permutohedral_fan(3), bergman_fan(M23),
            projective_bundle_fan(3, M23),
            projective_bundle_fan(3, matroid_uniform(1, 3))]
    ok = True
    for fan in fans:
        naive = NaiveQuotient(fan)
        n = fan.top_dim
        ref = fan.maximal_cones[0]
        ref_degree = degree(ChowElement(fan, n, {ref: Fraction(1)}))
        for k in range(n + 1):
            ok = ok and chow_dim(fan, k) == naive.dim(k)
            for sigma in fan.cones_of_dim(k):
                got = pair_all(ChowElement(fan, k, {sigma: Fraction(1)}))
                for tau in fan.cones_of_dim(n - k):
                    want = naive.pair(sigma, tau, ref, ref_degree)
                    ok = ok and got[tau] == want
    report(capsys, 9, "oracle equivalence at N = 3", ok)
