"""Workload inputs as plain matroid descriptors and CLI argument lists.

Everything here is derived from the seed and nothing imports chowfans, so
the set-up probe can time the package import and the descriptor parsing
on their own.  The seed permutes the ground-set labels of the matroids
that are not uniform (parallel pair, pyramid, K6); the Kahler candidate
schedule is rotated by the seed in `workloads`.
"""

import json
import random

# Length of the cycle of chowfans.kahler.candidate_schedule.  Goldens for
# candidates are keyed by the position (seed + i) % SCHEDULE_LEN.
SCHEDULE_LEN = 8

PARALLEL_PAIR_BASES = [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
PYRAMID_EDGES = [[1, 2], [2, 3], [3, 4], [4, 1], [1, 5], [2, 5], [3, 5], [4, 5]]
K6_EDGES = [[a, b] for a in range(1, 7) for b in range(a + 1, 7)]


def uniform(r, n):
    return {"uniform": [r, n]}


def _relabel_bases(rng, n, bases):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return {"n": n, "bases": sorted(sorted(perm[e - 1] for e in b) for b in bases)}


def _relabel_graph(rng, vertices, edges):
    # graphic matroids label edges by position, so shuffling the edge list
    # permutes the ground set
    edges = [list(e) for e in edges]
    rng.shuffle(edges)
    return {"graph": {"vertices": vertices, "edges": edges}}


def descriptors(workload, seed):
    """Matroid descriptors of a workload, by instance name."""
    rng = random.Random(seed)
    parallel_pair = _relabel_bases(rng, 4, PARALLEL_PAIR_BASES)
    pyramid = _relabel_graph(rng, 5, PYRAMID_EDGES)
    k6 = _relabel_graph(rng, 6, K6_EDGES)
    table = {
        "bundle_fan": {
            "U(1,2)": uniform(1, 2), "U(2,3)": uniform(2, 3),
            "U(2,4)": uniform(2, 4), "U(3,4)": uniform(3, 4),
            "parallel_pair": parallel_pair, "U(3,5)": uniform(3, 5)},
        "kahler_sweep": {
            "U(2,4)": uniform(2, 4), "U(1,4)": uniform(1, 4),
            "pyramid": pyramid},
        "combinatorics": {
            "K6": k6, "pyramid": pyramid, "U(3,5)": uniform(3, 5),
            "U(2,4)": uniform(2, 4), "U(3,4)": uniform(3, 4)},
        "cli": {
            "U(2,3)": uniform(2, 3), "U(2,4)": uniform(2, 4),
            "U(3,4)": uniform(3, 4)},
    }
    return table[workload]


WORKLOADS = ("bundle_fan", "kahler_sweep", "combinatorics", "cli")

# The command lines of the README, verbatim.
README_COMMANDS = [
    ["verify", "--matroid", '{"uniform": [2, 3]}'],
    ["verify", "--matroid", '{"uniform": [2, 4]}', "--which", "lemmas",
     "--max-first-len", "2"],
    ["kahler", "--matroid", '{"uniform": [2, 3]}', "--N", "3", "--phi",
     "negation", "--samples", "3"],
    ["bloch-gieseker", "--matroid", '{"uniform": [2, 3]}', "--N", "3",
     "--lams", "0,1,10"],
    ["quotient-ahk", "--matroid", '{"uniform": [2, 4]}', "--N", "4"],
    ["fan", "--kind", "bundle", "--matroid", '{"uniform": [2, 3]}', "--N", "3"],
]

# Inputs the README exit-code contract covers but the CLI does not keep at
# the commit that introduced the benchmark: "valid" inputs must exit 0 or
# 1, "malformed" ones must exit 2 with a message and no traceback.
CONTRACT_COMMANDS = [
    ("valid", ["kahler", "--N", "3"]),
    ("valid", ["bloch-gieseker", "--matroid", '{"uniform":[3,3]}']),
    ("malformed", ["verify", "--matroid", '{"uniform":"ab"}']),
    ("malformed", ["verify", "--matroid", "null"]),
    ("malformed", ["verify", "--matroid",
                   json.dumps({"graph": {"vertices": 3,
                                         "edges": [[1, 2], [1, 7]]}})]),
]


def heavy_commands(seed):
    """The three heavier CLI commands, keyed for their goldens."""
    pos = seed % SCHEDULE_LEN
    return [
        ("verify-U(3,4)", ["verify", "--matroid", '{"uniform": [3, 4]}']),
        ("kahler-U(2,4)/seed%d" % pos,
         ["kahler", "--matroid", '{"uniform": [2, 4]}', "--samples", "2",
          "--seed", str(pos)]),
        ("quotient-ahk-U(3,4)",
         ["quotient-ahk", "--matroid", '{"uniform": [3, 4]}']),
    ]
