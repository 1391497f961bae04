import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

from chowfans.cli import main
from chowfans.matroid import matroid_from_json, matroid_uniform

U23 = '{"uniform": [2, 3]}'
U24 = '{"uniform": [2, 4]}'
LOOPY = '{"graph": {"vertices": 2, "edges": [[1, 2], [1, 1]]}}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(s) for s in captured.out.splitlines() if s.strip()]
    return code, lines, captured.err


def test_verify_identity_passes(capsys):
    code, lines, err = run(capsys, ["verify", "--matroid", U23,
                                    "--which", "identity"])
    assert code == 0
    assert lines and all(line["status"] == "pass" for line in lines)
    assert "4/4 checks passed" in err


def test_verify_rank_one_matroid_on_one_element(capsys):
    # the fan is a point, so the cap of its fundamental weight is zero and
    # the truncation, of rank 0, has nothing to compare it with
    code, lines, err = run(capsys, ["verify", "--matroid", '{"uniform":[1,1]}'])
    assert code == 0
    assert lines[-1] == {"check": "truncation-recursion", "status": "pass"}
    assert "Traceback" not in err


def test_internal_error_is_one_line_and_exit_3(capsys, monkeypatch):
    from chowfans import cli

    def broken(*args, **kwargs):
        raise KeyError("ray 7")
    monkeypatch.setattr(cli, "check_balanced", broken)
    code, _, err = run(capsys, ["fan", "--kind", "permutohedral", "--N", "3"])
    assert code == 3
    assert err == "internal error: KeyError: 'ray 7'\n"


def test_verify_all_passes(capsys):
    code, lines, _ = run(capsys, ["verify", "--matroid", U23])
    assert code == 0
    kinds = {line["check"] for line in lines}
    assert "truncation-recursion" in kinds


def test_kahler_passes(capsys):
    code, lines, _ = run(capsys, ["kahler", "--matroid", U23, "--N", "3",
                                  "--samples", "2"])
    assert code == 0
    assert len(lines) == 2
    for line in lines:
        assert line["pd"] and line["hl"] and line["hr"]


def test_kahler_zero_samples_pd_only(capsys):
    code, lines, _ = run(capsys, ["kahler", "--matroid", U23, "--N", "3",
                                  "--samples", "0"])
    assert code == 0
    assert len(lines) == 1
    assert lines[0]["check"] == "pd"


def test_bloch_gieseker_passes(capsys):
    code, lines, _ = run(capsys, ["bloch-gieseker", "--matroid", U23,
                                  "--N", "3", "--lams", "0,1,10"])
    assert code == 0
    assert len(lines) == 3
    assert all(line["status"] == "pass" for line in lines)


def test_quotient_ahk_passes(capsys):
    code, lines, _ = run(capsys, ["quotient-ahk", "--matroid", U24,
                                  "--N", "4"])
    assert code == 0
    assert lines[0]["status"] == "pass"
    assert lines[0]["t"] == 2


def test_fan_dump(capsys):
    code, lines, _ = run(capsys, ["fan", "--kind", "permutohedral",
                                  "--N", "3"])
    assert code == 0
    assert lines[0]["unimodular"] is True
    assert lines[0]["balanced"] is True
    assert len(lines[0]["rays"]) == 6


def test_fan_loopy_rejected_without_simplify(capsys):
    code, _, err = run(capsys, ["fan", "--kind", "bergman",
                                "--matroid", LOOPY])
    assert code == 2
    assert err


def test_fan_loopy_simplify(capsys):
    code, lines, _ = run(capsys, ["fan", "--kind", "bergman",
                                  "--matroid", LOOPY, "--simplify"])
    assert code == 0
    assert lines[0]["balanced"] is True


def test_malformed_matroid_json_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--matroid", "{not json"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("in_file", [False, True], ids=["inline", "file"])
def test_deeply_nested_descriptor_is_usage_error(capsys, tmp_path, in_file):
    """JSON nested 5,000 levels inline or 100,000 in a file, past the
    decoder's recursion limit, is bad input: exit 2, one line."""
    depth = 100000 if in_file else 5000
    descriptor = "[" * depth + "]" * depth
    if in_file:
        path = tmp_path / "deep.json"
        path.write_text(descriptor)
        descriptor = str(path)
    start = time.perf_counter()
    code, lines, err = run(capsys, ["verify", "--matroid", descriptor])
    assert time.perf_counter() - start < 1
    assert (code, lines) == (2, [])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lams, shown", [
    ("0,1e5000", "1e5000"), ("1e10000000", "1e10000000"),
    ("1E-1_000", "1E-1_000"), ("1" * 101, "1" * 20),
], ids=["exponent", "huge-exponent", "negative-exponent", "long"])
def test_huge_twist_parameter_is_usage_error(capsys, lams, shown):
    """An entry of --lams whose decimal exponent or length is past the
    bound exits 2 before Fraction reads it: 1e5000 is an int too long to
    print, and Fraction("1e10000000") alone takes seconds."""
    start = time.perf_counter()
    code, lines, err = run(capsys, ["bloch-gieseker", "--N", "3",
                                    "--lams", lams])
    assert time.perf_counter() - start < 1
    assert (code, lines, err) == (2, [], (
        "error: --lams entry %s has more than 100 characters or an exponent "
        "above 100\n" % shown))


def test_twist_parameters_at_the_bound_are_read(capsys):
    """100 characters, and a decimal exponent of 100 either way, pass."""
    lams = ["9" * 96 + "e100", "1e-100", "1" * 100]
    code, lines, _ = run(capsys, ["bloch-gieseker", "--N", "3",
                                  "--lams", ",".join(lams)])
    assert code in (0, 1)
    assert [line["lam"] for line in lines] == \
        [int("9" * 96 + "0" * 100), "1/1" + "0" * 100, int("1" * 100)]


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_missing_required_argument(capsys):
    code, _, _ = run(capsys, ["verify"])
    assert code == 2


def test_output_is_deterministic(capsys):
    argv = ["kahler", "--matroid", U23, "--N", "3", "--samples", "3",
            "--seed", "5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_jobs_option_and_variable_are_gone(capsys, monkeypatch):
    monkeypatch.setenv("CHOWFANS_JOBS", "x")
    argv = ["fan", "--kind", "permutohedral", "--N", "3"]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, ["--jobs", "4"] + argv)[0] == 2


def test_kahler_free_matroid_without_descriptor(capsys):
    # the top Chern class of the free matroid lies above the top degree of
    # the base ring, where it is zero
    code, lines, err = run(capsys, ["kahler", "--N", "3"])
    assert code == 0
    assert "9/9 checks passed" in err
    assert len(lines) == 3


def test_bloch_gieseker_rank_above_base_dimension(capsys):
    code, lines, err = run(capsys, ["bloch-gieseker", "--matroid",
                                    '{"uniform":[3,3]}'])
    assert code == 1
    assert [line["status"] for line in lines] == ["fail", "pass"]
    assert "1/2 checks passed" in err


def test_bloch_gieseker_default_matroid_needs_two_elements(capsys):
    """Without --matroid the matroid is U(2, N), so --N 1 is bad input: the
    message names that default and the least N it takes."""
    code, lines, err = run(capsys, ["bloch-gieseker", "--N", "1"])
    assert code == 2
    assert lines == []
    assert err == "error: the default matroid U(2, N) needs --N >= 2\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("descriptor", [
    "null",
    "[1, 2]",
    '{"uniform":"ab"}',
    '{"graph": {"vertices": 3, "edges": [[1, 2], [1, 7]]}}',
    '{"n": 3, "bases": [[1, 1]]}',
    '{"n": 3, "bases": [[1, 4]]}',
], ids=["null", "non-object", "uniform-not-ints", "edge-off-graph",
        "basis-repeats", "basis-out-of-range"])
def test_malformed_descriptor_is_usage_error(capsys, descriptor):
    code, lines, err = run(capsys, ["verify", "--matroid", descriptor])
    assert code == 2
    assert lines == []
    assert err.startswith("error: malformed")
    assert "Traceback" not in err


BAD_ARGUMENTS = {
    "bergman-without-matroid": ["fan", "--kind", "bergman"],
    "bundle-without-matroid": ["fan", "--kind", "bundle"],
    "permutohedral-without-N": ["fan", "--kind", "permutohedral"],
    "bipermutohedral-without-N": ["fan", "--kind", "bipermutohedral"],
    "bloch-gieseker-without-matroid-or-N": ["bloch-gieseker"],
    "zero-denominator-twist": ["bloch-gieseker", "--N", "3", "--lams", "1/0"],
    "bloch-gieseker-default-matroid-on-one-element": ["bloch-gieseker",
                                                      "--N", "1"],
    "bundle-fan-N-mismatch": ["fan", "--kind", "bundle", "--matroid", U23,
                              "--N", "4"],
    "kahler-N-mismatch": ["kahler", "--matroid", U23, "--N", "4"],
    "quotient-ahk-N-mismatch": ["quotient-ahk", "--matroid", U24, "--N", "5"],
    "bloch-gieseker-N-mismatch": ["bloch-gieseker", "--matroid", U23,
                                  "--N", "4"],
    "kahler-negative-samples": ["kahler", "--N", "3", "--samples", "-1"],
    "kahler-samples-past-the-schedule": ["kahler", "--N", "3",
                                         "--samples", "9"],
    "kahler-huge-samples": ["kahler", "--N", "3",
                            "--samples", "100000000000"],
    "verify-negative-max-first-len": ["verify", "--matroid", U23,
                                      "--max-first-len", "-1"],
    "non-numeric-twist": ["bloch-gieseker", "--N", "3", "--lams", "1,x"],
    "matroid-path-is-a-directory": ["verify", "--matroid",
                                    os.path.dirname(__file__)],
    "simplify-leaves-no-elements": ["fan", "--kind", "bergman", "--matroid",
                                    '{"uniform": [0, 2]}', "--simplify"],
    "permutohedral-above-size-budget": ["fan", "--kind", "permutohedral",
                                        "--N", "8"],
    "bipermutohedral-above-size-budget": ["fan", "--kind", "bipermutohedral",
                                          "--N", "5"],
    "huge-N": ["fan", "--kind", "permutohedral", "--N", "1000000000"],
    "kahler-above-size-budget": ["kahler", "--N", "8"],
    "bloch-gieseker-above-size-budget": ["bloch-gieseker", "--N", "8"],
    "quotient-ahk-above-size-budget": ["quotient-ahk", "--matroid",
                                       '{"uniform": [2, 8]}'],
    "kahler-above-model-budget": ["kahler", "--matroid", '{"uniform": [2, 7]}',
                                  "--N", "7", "--samples", "1"],
    "bloch-gieseker-above-model-budget": ["bloch-gieseker", "--N", "7"],
    "quotient-ahk-above-model-budget": ["quotient-ahk", "--matroid",
                                        '{"uniform": [2, 7]}'],
    "loopy-matroid-without-simplify": ["fan", "--kind", "bergman",
                                       "--matroid", LOOPY],
    "empty-uniform-matroid": ["verify", "--matroid", '{"uniform": [0, 0]}'],
    "edgeless-graph-matroid": ["verify", "--matroid",
                               '{"graph": {"vertices": 1, "edges": []}}'],
    "negative-ground-set": ["verify", "--matroid",
                            '{"n": -3, "bases": [[]]}'],
}


@pytest.mark.parametrize("argv", list(BAD_ARGUMENTS.values()),
                         ids=list(BAD_ARGUMENTS))
def test_bad_arguments_fail_before_any_work(capsys, monkeypatch, argv):
    from chowfans import cli, kahler

    def work(*args, **kwargs):
        raise AssertionError("work started on bad arguments")

    for module, name in [(cli, "FanRingModel"), (cli, "permutohedral_fan"),
                         (cli, "bipermutohedral_fan"), (cli, "bergman_fan"),
                         (cli, "projective_bundle_fan"),
                         (kahler, "matroid_bundle_model")]:
        monkeypatch.setattr(module, name, work)
    start = time.perf_counter()
    code, lines, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_size_budget_fails_fast(capsys):
    start = time.perf_counter()
    code, lines, err = run(capsys, ["fan", "--kind", "permutohedral",
                                    "--N", "9"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == ("error: the permutohedral fan on N = 9 has more than "
                   "10000 maximal cones\n")


@pytest.mark.parametrize("kind, matroid, cones", [
    ("bergman", '{"uniform": [8, 8]}', "40320"),
    ("bundle", '{"uniform": [5, 5]}', "113400"),
    ("bundle", '{"uniform": [8, 8]}', "at least 40320")],
    ids=["bergman", "bundle", "bundle-bounded-by-its-flags"])
def test_matroid_fan_size_budget_fails_fast(capsys, kind, matroid, cones):
    """perm(8) as a Bergman fan and bipermutohedral(5) as a bundle fan are
    refused by their count of maximal cones, before the chain walk;
    bipermutohedral(8) by the count of maximal flags of U(8,8), a lower
    bound for it, in under 1 s, where listing its 6,558 biflats and
    comparing them pairwise took 3.3 s."""
    start = time.perf_counter()
    code, lines, err = run(capsys, ["fan", "--kind", kind,
                                    "--matroid", matroid])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == ("error: the %s fan has %s maximal cones, more than "
                   "10000\n" % (kind, cones))


def test_bundle_fan_bound_lists_no_biflat(capsys, monkeypatch):
    """The flag count refuses U(8,8) before its biflats are listed, while
    U(5,5), whose 120 maximal flags pass the bound, is counted exactly."""
    from chowfans import fans
    real = fans.biflat_poset
    listed = []

    def record(M):
        listed.append(M.n)
        return real(M)

    monkeypatch.setattr(fans, "biflat_poset", record)
    for n in (8, 5):
        code, _, _ = run(capsys, ["fan", "--kind", "bundle", "--matroid",
                                  json.dumps({"uniform": [n, n]})])
        assert code == 2
    assert listed == [5]


@pytest.mark.parametrize("kind, largest", [
    ("permutohedral", 7), ("bipermutohedral", 4)])
def test_size_budget_counts_maximal_cones(monkeypatch, kind, largest):
    """With the limit set to a small fan's number of maximal cones, that
    fan passes the budget and a limit one lower rejects it; at the fixed
    limit, perm(7) and bipermutohedral(4) are the largest that pass."""
    from chowfans import cli
    from chowfans.fans import bipermutohedral_fan, permutohedral_fan
    build = {"permutohedral": permutohedral_fan,
             "bipermutohedral": bipermutohedral_fan}[kind]
    for n in range(1, 5):
        count = len(build(n).maximal_cones)
        monkeypatch.setattr(cli, "MAX_CONES", count)
        cli.check_size(kind, n)
        monkeypatch.setattr(cli, "MAX_CONES", count - 1)
        with pytest.raises(cli.SystemExit2):
            cli.check_size(kind, n)
    monkeypatch.undo()
    cli.check_size(kind, largest)
    with pytest.raises(cli.SystemExit2):
        cli.check_size(kind, largest + 1)


def test_model_budget_names_the_largest_pairing_matrix(capsys):
    start = time.perf_counter()
    code, lines, err = run(capsys, ["bloch-gieseker", "--N", "7"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == ("error: the ring model of the permutohedral fan on N = 7 "
                   "pairs 8400 x 8400 cones, more than 1000000 entries\n")


def test_model_budget_counts_pairing_matrices(monkeypatch):
    """With the limit set to the entries of the largest pairing matrix of a
    small perm(N), counted on the fan, that model passes the budget and a
    limit one lower rejects it; at the fixed limit, N = 6 is the largest
    that passes."""
    from chowfans import cli
    from chowfans.fans import permutohedral_fan
    for N in range(1, 6):
        fan = permutohedral_fan(N)
        n = fan.top_dim
        largest = max(len(fan.cones_of_dim(k)) * len(fan.cones_of_dim(n - k))
                      for k in range(n // 2 + 1))
        monkeypatch.setattr(cli, "MAX_PAIRING_ENTRIES", largest)
        cli.check_model_size(N)
        monkeypatch.setattr(cli, "MAX_PAIRING_ENTRIES", largest - 1)
        with pytest.raises(cli.SystemExit2):
            cli.check_model_size(N)
    monkeypatch.undo()
    cli.check_model_size(6)
    with pytest.raises(cli.SystemExit2):
        cli.check_model_size(7)


def complete_graph(v):
    return json.dumps({"graph": {"vertices": v, "edges": [
        [a, b] for a in range(1, v + 1) for b in range(a + 1, v + 1)]}})


def test_uniform_descriptor_budget_fails_fast(capsys):
    """U(10,30) would list its C(30, 10) bases before any check ran."""
    start = time.perf_counter()
    code, lines, err = run(capsys, ["verify", "--matroid",
                                    '{"uniform": [10, 30]}'])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == "error: U(10,30) has 30045015 bases, more than 100000\n"


def test_graph_descriptor_budget_fails_fast(capsys):
    """K8 would test its C(28, 7) edge subsets for a spanning forest
    before any check ran; K7, with C(21, 6) = 54,264, is accepted."""
    start = time.perf_counter()
    code, lines, err = run(capsys, ["verify", "--matroid", complete_graph(8)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == ("error: the graph on 8 vertices and 28 edges has 1184040 "
                   "edge subsets to test, more than 100000\n")
    matroid_from_json(json.loads(complete_graph(7)))


@pytest.mark.parametrize("descriptor, n", [
    ({"uniform": [0, 10 ** 30]}, 10 ** 30),
    ({"n": 10 ** 30, "bases": [[]]}, 10 ** 30),
    ({"uniform": [0, 10 ** 11]}, 10 ** 11),
    ({"n": 10 ** 11, "bases": [[1]]}, 10 ** 11),
], ids=["uniform-1e30", "bases-1e30", "uniform-1e11", "bases-1e11"])
def test_ground_set_budget_fails_fast(capsys, descriptor, n):
    """matroid_from_json builds masks 1 << n, which overflows at n = 10^30
    and asks for 12.5 GB at n = 10^11: exit 2 first, naming n."""
    start = time.perf_counter()
    code, lines, err = run(capsys, ["verify", "--matroid",
                                    json.dumps(descriptor)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == ("error: the ground set has %d elements, more than 100000\n"
                   % n)


REFUSED_AT_ONCE = {
    # 25 edges on 12 of 30 vertices: its spanning forests have 11 edges,
    # and listing them took 135 s when the graph was sized at |V| - 1
    "graph-sized-at-its-forests": (
        {"graph": {"vertices": 30, "edges": [
            [a, b] for a in range(1, 13) for b in range(a + 1, 13)][:25]}},
        "the graph on 30 vertices and 25 edges has 4457400 edge subsets to "
        "test, more than 100000"),
    # the exchange check visits 11.8 M pairs of the 7-subsets of [14]
    "listed-bases-sized-by-pairs": (
        {"n": 14, "bases": [list(c) for c in combinations(range(1, 15), 7)]},
        "the 3432 listed bases make 11778624 pairs to check for exchange, "
        "more than 100000"),
    # verify walked U(4,6)'s bundle fan for 220 s
    "verify-bundle-fan-budget": (
        {"uniform": [4, 6]},
        "the bundle fan has 226800 maximal cones, more than 50000"),
    # every element a loop: counting the fan would list 2^20 - 2 biflats
    "verify-loopy-uniform": (
        {"uniform": [0, 20]},
        "projective bundle fan needs a loopless matroid"),
    # K7 and a loop: counting the fan would hang in listing its flats
    "verify-loopy-k7": (
        {"graph": {"vertices": 7, "edges": [[1, 1]] + [
            [a, b] for a in range(1, 8) for b in range(a + 1, 8)]}},
        "projective bundle fan needs a loopless matroid"),
}


@pytest.mark.parametrize("descriptor, message", list(REFUSED_AT_ONCE.values()),
                         ids=list(REFUSED_AT_ONCE))
def test_verify_budgets_fail_fast(capsys, descriptor, message):
    start = time.perf_counter()
    code, lines, err = run(capsys, ["verify", "--matroid",
                                    json.dumps(descriptor)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == []
    assert err == "error: %s\n" % message


def test_listed_bases_of_u510_are_accepted():
    """252 listed bases make 63,504 pairs, under the budget."""
    M = matroid_from_json({"n": 10, "bases": [
        list(c) for c in combinations(range(1, 11), 5)]})
    assert M == matroid_uniform(5, 10)


def test_repeated_listed_bases_are_sized_once():
    """The exchange check visits distinct bases only: one basis listed 400
    times is one pair, not 160,000."""
    M = matroid_from_json({"n": 2, "bases": [[1]] * 400})
    assert M == matroid_from_json({"n": 2, "bases": [[1]]})


def test_verify_budget_counts_the_bundle_fan(capsys, monkeypatch):
    """At U(2,3)'s number of maximal bundle cones verify passes the budget
    and a limit one lower rejects it; lemma_suite reads the fan verify
    built rather than building its own."""
    from chowfans import biflags, cli
    from chowfans.fans import projective_bundle_fan

    def build_again(*args, **kwargs):
        raise AssertionError("the bundle fan was built twice")

    count = len(projective_bundle_fan(3, matroid_uniform(2, 3)).maximal_cones)
    monkeypatch.setattr(biflags, "projective_bundle_fan", build_again)
    monkeypatch.setattr(cli, "MAX_BUNDLE_CONES", count)
    code, _, _ = run(capsys, ["verify", "--matroid", U23, "--which",
                              "lemmas"])
    assert code == 0
    monkeypatch.setattr(cli, "MAX_BUNDLE_CONES", count - 1)
    code, lines, err = run(capsys, ["verify", "--matroid", U23])
    assert (code, lines) == (2, [])
    assert err == ("error: the bundle fan has %d maximal cones, more than "
                   "%d\n" % (count, count - 1))


def test_identity_witness_fails_the_command(capsys, monkeypatch):
    from chowfans import cli
    monkeypatch.setattr(cli, "verify_bundle_identity", lambda *a, **k: {
        "status": "fail", "checks": {"first": None, "second": [3, 1]}})
    code, lines, err = run(capsys, ["verify", "--matroid", U23,
                                    "--which", "identity"])
    assert code == 1
    assert [line["status"] for line in lines] == ["pass", "fail"]
    assert lines[1]["witness"] == [3, 1]
    assert err == "1/2 checks passed\n"


def test_failing_lemma_fails_the_command(capsys, monkeypatch):
    from chowfans import cli
    monkeypatch.setattr(cli, "lemma_suite", lambda *a, **k: iter([
        {"check": "cancellation", "status": "pass"},
        {"check": "cancellation", "status": "fail"}]))
    code, lines, err = run(capsys, ["verify", "--matroid", U23,
                                    "--which", "lemmas"])
    assert code == 1
    assert [line["status"] for line in lines] == ["pass", "fail"]
    assert err == "1/2 checks passed\n"


def test_failing_lefschetz_candidate_fails_the_command(capsys, monkeypatch):
    from chowfans import cli
    monkeypatch.setattr(cli, "sample_lefschetz_candidates", lambda *a, **k: [
        {"pd": True, "hl": False, "hr": False, "s": 1, "t": 1,
         "flipped": False}])
    code, lines, err = run(capsys, ["kahler", "--matroid", U23,
                                    "--samples", "1"])
    assert code == 1
    assert [(line["pd"], line["hl"], line["hr"]) for line in lines] == [
        (True, False, False)]
    assert err == "1/3 checks passed\n"


def test_negative_sign_value_fails_the_command(capsys, monkeypatch):
    from chowfans import cli
    monkeypatch.setattr(cli, "bloch_gieseker", lambda *a, **k: [
        {"lam": 0, "zeta_full_rank": True, "cd_rank_conditions": True,
         "sign_value": -1}])
    code, lines, err = run(capsys, ["bloch-gieseker", "--matroid", U23])
    assert code == 1
    assert [line["status"] for line in lines] == ["fail"]
    assert err == "0/1 checks passed\n"


def test_hilbert_function_mismatch_fails_the_command(capsys, monkeypatch):
    from chowfans import cli

    class Quotient:
        top, t = 1, 1

        def dim(self, k):
            return 2

    monkeypatch.setattr(cli, "quotient_by_ann_segre",
                        lambda *a, **k: Quotient())
    code, lines, err = run(capsys, ["quotient-ahk", "--matroid", U23])
    assert code == 1
    assert [line["status"] for line in lines] == ["fail"]
    assert (lines[0]["quotient"], lines[0]["bergman"]) == ([2, 2], [1, 1])
    assert err == "0/1 checks passed\n"


def test_unbalanced_fan_fails_the_command(capsys, monkeypatch):
    from chowfans import cli
    monkeypatch.setattr(cli, "check_balanced", lambda *a, **k: [(0,)])
    code, lines, err = run(capsys, ["fan", "--kind", "permutohedral",
                                    "--N", "3"])
    assert code == 1
    assert (lines[0]["unimodular"], lines[0]["balanced"]) == (True, False)
    assert err == "0/1 checks passed\n"


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_process(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "chowfans.cli"] + list(argv),
                          env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("vertices", [2, 10 ** 9, 10 ** 20])
def test_graph_vertex_count_costs_nothing(vertices):
    """One edge on 10^9 or 10^20 vertices is the matroid of one edge on 2:
    the forest search keeps only the vertices its edges touch.  Run under
    a 1 GB address-space cap, so that a list over every vertex fails."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    done = run_process("verify", "--matroid", json.dumps(
        {"graph": {"vertices": vertices, "edges": [[1, 2]]}}),
        preexec_fn=cap)
    assert (done.returncode, done.stderr) == (0, "7/7 checks passed\n")
    assert [json.loads(s)["status"] for s in done.stdout.splitlines()] == \
        ["pass"] * 7


def test_process_exit_codes():
    done = run_process("fan", "--kind", "permutohedral", "--N", "3")
    assert done.returncode == 0
    assert done.stderr == "1/1 checks passed\n"
    done = run_process("fan", "--kind", "permutohedral", "--N", "9")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    done = run_process("frobnicate")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


def test_console_script_names_main():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"chowfans": "chowfans.cli:main"}
