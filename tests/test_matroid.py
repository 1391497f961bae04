from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chowfans.matroid import (EmptyBases, ExchangeAxiomViolated, LoopyMatroid,
                              Matroid, MatroidError, RankZero,
                              UnequalCardinality,
                              mask_to_set, matroid_from_bases,
                              matroid_from_graph, matroid_from_json,
                              matroid_uniform, pyramid_matroid, set_to_mask)
from naive_oracle import reference_graph_bases


def subsets_of(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_uniform_basics():
    M = matroid_uniform(2, 4)
    assert M.n == 4 and M.r == 2
    assert len(M.bases) == 6
    assert M.rank(set_to_mask({1, 2, 3})) == 2
    assert M.rank(set_to_mask({3})) == 1
    assert M.rank(0) == 0


def test_uniform_flats():
    M = matroid_uniform(2, 3)
    flats = M.flats()
    assert flats[0] == 0 and flats[-1] == M.full
    assert set(flats) == {0, 1, 2, 4, 7}


def test_closure_is_idempotent_and_extensive():
    M = matroid_uniform(3, 5)
    for S in range(32):
        c = M.closure(S)
        assert c & S == S
        assert M.closure(c) == c
        assert M.rank(c) == M.rank(S)


def test_invalid_bases_rejected():
    with pytest.raises(EmptyBases):
        matroid_from_bases(3, [])
    with pytest.raises(UnequalCardinality):
        matroid_from_bases(3, [{1}, {1, 2}])
    with pytest.raises(ExchangeAxiomViolated):
        matroid_from_bases(4, [{1, 2}, {3, 4}])


@pytest.mark.parametrize("build", [
    lambda: matroid_uniform(0, 0),
    lambda: matroid_from_graph([]),
    lambda: matroid_from_json({"graph": {"vertices": 0, "edges": []}}),
    lambda: matroid_from_bases(0, [[]]),
    lambda: Matroid(0, [0]),
    lambda: matroid_uniform(0, 2).delete_loops(),
], ids=["uniform-0-0", "edgeless-graph", "empty-graph", "bases-n-0",
        "Matroid-n-0", "all-loops-deleted"])
def test_empty_ground_set_rejected(build):
    with pytest.raises(MatroidError, match="ground set must be nonempty"):
        build()


def test_exchange_axiom_brute_force():
    """Every constructed matroid satisfies basis exchange, checked from
    scratch against the definition."""
    for M in [matroid_uniform(2, 4), pyramid_matroid(),
              matroid_from_graph([(1, 2), (1, 2), (2, 3)])]:
        for A in M.bases:
            for B in M.bases:
                for a in mask_to_set(A & ~B):
                    ok = any((A & ~set_to_mask({a})) | set_to_mask({b})
                             in M.bases for b in mask_to_set(B & ~A))
                    assert ok


def test_pyramid_rank_and_closure():
    M = pyramid_matroid()
    assert M.n == 8 and M.r == 4
    S = set_to_mask({3, 5, 7, 8})
    assert M.closure(S) == set_to_mask({3, 4, 5, 7, 8})
    assert M.closure(set_to_mask({3, 7, 8})) == set_to_mask({3, 7, 8})
    assert M.rank(set_to_mask({1, 2, 6})) == 3
    assert M.rank(set_to_mask({3, 7, 8})) == 2


def test_pyramid_flats_contain_examples():
    M = pyramid_matroid()
    flats = set(M.flats())
    assert set_to_mask({3, 4, 5, 7, 8}) in flats
    assert set_to_mask({3, 7, 8}) in flats
    assert set_to_mask({1, 2, 3, 4}) in flats
    assert set_to_mask({3}) in flats


@given(st.integers(0, 255), st.integers(0, 255))
def test_rank_submodular(a, b):
    M = pyramid_matroid()
    assert M.rank(a | b) + M.rank(a & b) <= M.rank(a) + M.rank(b)


@given(st.integers(0, 255), st.integers(0, 255))
def test_rank_monotone_and_unit_increase(a, b):
    M = pyramid_matroid()
    s = a & b
    assert M.rank(s) <= M.rank(a) <= M.rank(a | b)
    assert M.rank(a | b) - M.rank(a) <= bin((a | b) & ~a).count("1")


def test_truncation_rank_identity():
    M = matroid_uniform(3, 5)
    T = M.truncate()
    assert T.r == 2
    for S in range(32):
        assert T.rank(S) == min(M.rank(S), 2)


def test_truncate_to_rank_zero():
    M = matroid_uniform(1, 3)
    T = M.truncate()
    assert T.r == 0 and T.bases == {0}
    with pytest.raises(RankZero):
        T.truncate()


def test_graph_matroid_with_self_loop():
    M = matroid_from_graph([(1, 2), (2, 3), (3, 3)])
    assert M.loops() == set_to_mask({3})
    D, relabel = M.delete_loops()
    assert D.loops() == 0
    assert D.n == 2 and relabel == {1: 1, 2: 2}


def test_delete_loops_identity_when_loopless():
    M = matroid_uniform(2, 3)
    D, relabel = M.delete_loops()
    assert D is M
    assert relabel == {1: 1, 2: 2, 3: 3}


def test_from_json_variants():
    M = matroid_from_json({"uniform": [2, 3]})
    assert M == matroid_uniform(2, 3)
    G = matroid_from_json({"graph": {"vertices": 3,
                                     "edges": [[1, 2], [2, 3], [1, 3]]}})
    assert G.r == 2 and len(G.bases) == 3
    B = matroid_from_json({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]})
    assert B == matroid_uniform(2, 3)


def test_from_json_rejects_garbage():
    with pytest.raises(Exception):
        matroid_from_json({"nonsense": 1})


def test_pyramid_is_graphic():
    edges = [(1, 2), (2, 3), (3, 4), (4, 1),
             (1, 5), (2, 5), (3, 5), (4, 5)]
    assert pyramid_matroid() == matroid_from_graph(edges)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_graph_bases_match_the_downward_size_search(data):
    """One union-find pass sizes the spanning forests and only subsets of
    that size are tested: the same bases as the search from min(|E|,
    |V| - 1) edges down, on multigraphs with loops, parallel edges and
    isolated vertices."""
    v = data.draw(st.integers(1, 5))
    edge = st.tuples(st.integers(1, v), st.integers(1, v))
    edges = data.draw(st.lists(edge, min_size=1, max_size=9))
    vertices = v + data.draw(st.integers(0, 3))
    assert matroid_from_graph(edges).bases == \
        reference_graph_bases(vertices, edges)
