"""Walk through the pyramid graphic matroid running example.

The pyramid matroid is the graphic matroid of a 4-cycle with spokes to an
apex: 8 edges, rank 4.  This script splits a chain of biflats at its first
gap, shows why it fails the lexicographic condition, and prints a canonical
expansion of a shorter chain together with the sign cancellation pattern.

Run: python3 demos/pyramid_walkthrough.py
"""

from chowfans.biflags import (canonical_expansion, split_at_first_gap,
                              is_lex_decreasing, verify_cancellation)
from chowfans.fans import gap_indices
from chowfans.matroid import mask_to_set, pyramid_matroid, set_to_mask


def m(*elems):
    return set_to_mask(set(elems))


def show(pair):
    S, T = pair
    return "%s|%s" % (sorted(mask_to_set(S)), sorted(mask_to_set(T)))


def main():
    M = pyramid_matroid()
    E = M.full

    chain = [(m(1, 2, 6), E), (m(1, 2, 6), m(3, 4, 5, 7, 8)),
             (m(1, 2, 4, 6), m(3, 4, 5, 7, 8)),
             (m(1, 2, 4, 5, 6), m(3, 7, 8)),
             (m(1, 2, 4, 5, 6, 7), m(3, 7, 8))]
    print("running chain:")
    for p in chain:
        print("  ", show(p))
    print("gap indices:", sorted(gap_indices(M.n, chain)))

    sp = split_at_first_gap(M, chain)
    print("split at first gap: s =", sp.s, " l =", sp.l, " a =", sp.a)
    print("closure of the complement:", sorted(mask_to_set(sp.closure_Ssc)))
    print("lex decreasing:", is_lex_decreasing(sp))

    short = [(m(1, 2, 6, 7), E), (E, m(3))]
    spe = split_at_first_gap(M, short)
    e, pos, neg = canonical_expansion(spe)
    print()
    print("canonical expansion of", [show(p) for p in short])
    print("expansion element e =", e)
    print("positive terms:", len(pos), " negative terms:", len(neg))
    for term in sorted(pos)[:3]:
        print("  +", [show(p) for p in term])
    for term in sorted(neg)[:3]:
        print("  -", [show(p) for p in term])

    rep = verify_cancellation(M, [(m(1, 2, 6, 7), E)], 1)
    print()
    print("cancellation check for first component 1267|E, l = 1:",
          rep["status"])


if __name__ == "__main__":
    main()
