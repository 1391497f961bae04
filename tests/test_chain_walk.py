"""The one chain walk over successor lists against the label scans it
replaced (`naive_oracle`): the same cones, the same gap-free first
components and the same cancellation families, in the same order, and
the same canonical expansions."""

import collections

import pytest

from chowfans import fans
from chowfans.biflags import (SplitBiflag, canonical_expansion, family_sets,
                              gap_free_firsts, lemma_suite)
from chowfans.fans import (bergman_fan, bipermutohedral_fan,
                           permutohedral_fan, projective_bundle_fan,
                           walk_chains)
from chowfans.matroid import (matroid_from_bases, matroid_from_graph,
                              matroid_uniform, pyramid_matroid)
from naive_oracle import (reference_bergman_cones, reference_bundle_cones,
                          reference_canonical_expansion,
                          reference_gap_free_firsts, reference_seconds)

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def parallel_pair():
    return matroid_from_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])


# (matroid, longest first component, whether l runs up to a or below it).
# On the pyramid the label scan takes 8 s for the length-5 chains that
# l = a asks for, where both families are empty by the Dyck profile bound,
# so it stops below a, as `lemma_suite` does.
FAMILY_CASES = {
    "U(2,4)": (lambda: matroid_uniform(2, 4), 2, True),
    "U(3,4)": (lambda: matroid_uniform(3, 4), 2, True),
    "K4": (lambda: matroid_from_graph(K4_EDGES), 2, True),
    "parallel-pair": (parallel_pair, 2, True),
    "U(3,5)": (lambda: matroid_uniform(3, 5), 1, True),
    "pyramid": (pyramid_matroid, 0, False),
}


def chains(splits):
    return [tuple(sp.chain()) for sp in splits]


def low_index_parts(M, first, l, found):
    """The biflags `found` by the first j with rk(T_j^c) < a - l, where
    T_1, T_2, ... follow `first` and end with the sentinel [N]|0."""
    target = M.rank(M.full & ~(first[-1][0] if first else 0)) - l
    parts = collections.defaultdict(list)
    for chain in found:
        T = list(chain[len(first):]) + [(M.full, 0)]
        j = next(j for j, (S, _) in enumerate(T, 1)
                 if M.rank(M.full & ~S) < target)
        parts[j].append(chain)
    return dict(parts)


@pytest.mark.parametrize("name", list(FAMILY_CASES))
def test_family_sets_match_the_label_scan(name):
    make, depth, up_to_a = FAMILY_CASES[name]
    M = make()
    cases = 0
    for first in gap_free_firsts(M, depth):
        a = SplitBiflag(M, list(first), []).a
        ls = range(a + 1 if up_to_a else a)
        scans = [reference_seconds(M, first, k) for k in range(len(ls) + 1)]
        for l in ls:
            data = family_sets(M, first, l)
            assert chains(data["A"]) == scans[l]
            assert chains(data["Aprime"]) == scans[l + 1]
            got = {j: chains(part) for j, part in data["Aprime_parts"].items()
                   if part}
            assert got == low_index_parts(M, first, l, scans[l + 1])
            cases += 1
    assert cases > depth


@pytest.mark.parametrize("name", list(FAMILY_CASES))
def test_canonical_expansion_matches_the_full_scan(name):
    """Every member of A and A' for every first component and l: the
    insertions read off the successor lists are the biflats the full scan
    finds insertable with a gap."""
    make, depth, up_to_a = FAMILY_CASES[name]
    M = make()
    seen = set()
    for first in gap_free_firsts(M, depth):
        a = SplitBiflag(M, list(first), []).a
        for l in range(a + 1 if up_to_a else a):
            data = family_sets(M, first, l)
            for split in data["A"] + data["Aprime"]:
                chain = tuple(split.chain())
                if chain not in seen:
                    seen.add(chain)
                    assert canonical_expansion(split) == \
                        reference_canonical_expansion(split), chain
    assert seen


@pytest.mark.parametrize("name", ["U(2,4)", "U(3,4)", "K4", "parallel-pair"])
def test_gap_free_firsts_match_breadth_first_search(name):
    M = FAMILY_CASES[name][0]()
    for depth in (1, 2, 3):
        assert gap_free_firsts(M, depth) == reference_gap_free_firsts(M, depth)


@pytest.mark.parametrize("build, reference", [
    (lambda: permutohedral_fan(4),
     lambda: reference_bergman_cones(matroid_uniform(4, 4))),
    (lambda: bergman_fan(pyramid_matroid()),
     lambda: reference_bergman_cones(pyramid_matroid())),
    (lambda: bergman_fan(matroid_from_graph(K4_EDGES)),
     lambda: reference_bergman_cones(matroid_from_graph(K4_EDGES))),
    (lambda: bipermutohedral_fan(3),
     lambda: reference_bundle_cones(matroid_uniform(3, 3))),
    (lambda: projective_bundle_fan(4, matroid_uniform(2, 4)),
     lambda: reference_bundle_cones(matroid_uniform(2, 4))),
    (lambda: projective_bundle_fan(4, matroid_uniform(3, 4)),
     lambda: reference_bundle_cones(matroid_uniform(3, 4))),
    (lambda: projective_bundle_fan(5, matroid_uniform(3, 5)),
     lambda: reference_bundle_cones(matroid_uniform(3, 5))),
], ids=["perm4", "bergman-pyramid", "bergman-K4", "biperm3", "bundle-U(2,4)",
        "bundle-U(3,4)", "bundle-U(3,5)"])
def test_fan_cones_match_the_label_scan(build, reference):
    assert build().cones == set(reference())


BUNDLE_WALKS = {
    **{"U(%d,%d)" % (r, N): (lambda r=r, N=N: projective_bundle_fan(
        N, matroid_uniform(r, N)), lambda r=r, N=N: matroid_uniform(r, N))
       for N in range(2, 6) for r in range(1, min(N, 3) + 1)},
    "parallel-pair": (lambda: projective_bundle_fan(4, parallel_pair()),
                      parallel_pair),
    **{"biperm%d" % N: (lambda N=N: bipermutohedral_fan(N),
                        lambda N=N: matroid_uniform(N, N)) for N in (3, 4)},
}


@pytest.mark.parametrize("name", list(BUNDLE_WALKS))
def test_bundle_fan_walk_lists_the_label_scan_in_order(monkeypatch, name):
    """projective_bundle_fan tests only the newest link of each chain for a
    gap, with one flag per depth for its prefix; it hands its fan the same
    cones, in the same order, as a scan that tests every whole chain."""
    build, matroid = BUNDLE_WALKS[name]

    class Cones(list):
        """The cones handed to BiflagFan, which bipermutohedral_fan labels."""

    monkeypatch.setattr(fans, "BiflagFan", lambda *args: Cones(args[4]))
    assert build() == reference_bundle_cones(matroid())


def test_walk_yields_prefixes_first_and_respects_the_bound():
    # the divisibility order on 1..6, along the increasing order
    labels = list(range(1, 7))
    succ = fans._successors(labels, lambda p, q: q % p == 0)
    assert succ[0] == (1, 2, 3, 4, 5) and succ[1] == (3, 5)
    walk = list(walk_chains(succ, range(6), lambda chain: True, 3))
    assert walk[:4] == [(0,), (0, 1), (0, 1, 3), (0, 1, 5)]
    assert max(map(len, walk)) == 3 and len(walk) == len(set(walk))
    assert list(walk_chains(succ, range(6), lambda chain: True, 0)) == []
    # a failing prefix is never extended
    odd = list(walk_chains(succ, range(6), lambda c: labels[c[-1]] % 2, 3))
    assert odd == [(0,), (0, 2), (0, 4), (2,), (4,)]


def test_lemma_suite_builds_the_biflat_poset_once(monkeypatch):
    M = matroid_uniform(2, 4)
    built = collections.Counter()
    for name in ("proper_biflats", "_successors"):
        def counting(*args, _name=name, _original=getattr(fans, name)):
            built[_name] += 1
            return _original(*args)
        monkeypatch.setattr(fans, name, counting)
    reports = list(lemma_suite(M, max_first_len=1))
    assert reports and all(r["status"] == "pass" for r in reports)
    assert built == {"proper_biflats": 1, "_successors": 1}
