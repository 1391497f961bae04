"""The cancellation calculus on biflags: splitting at the first gap,
lexicographic decrease, canonical expansions, the pos/neg bookkeeping with
its set-level identities, and the bundle relation checks that tie the
combinatorics to the Chow engine.

Everything before the verify_* helpers is pure biflag arithmetic on a
matroid and never builds a fan, so large ground sets stay cheap.
"""

import itertools
from collections import Counter

from .chow import (ChowElement, multiply_by_divisor, nonzero_pairing_witness,
                   unit_class)
from .fans import (_gaps, biflat_poset, bisubset_leq, gap_indices,
                   projective_bundle_fan, walk_chains)
from .matroid import mask_to_set
from .tautological import elementary_symmetric_products, structural_divisors


class BiflagError(Exception):
    pass


class NotABiflag(BiflagError):
    pass


class NotLexDecreasing(BiflagError):
    pass


class IndexOutOfRange(BiflagError):
    pass


class InvalidFirstComponent(BiflagError):
    pass


class InvariantViolated(BiflagError):
    """An identity of the calculus that a lemma guarantees does not hold."""


def _minimum(mask):
    return (mask & -mask).bit_length()


def _lex_holds(cSsc, gi, gnext):
    """min(cSsc \\ gnext) lies in gi, or cSsc lies in gnext."""
    rem = cSsc & ~gnext
    return rem == 0 or bool(gi & rem & -rem)


class SplitBiflag:
    """A biflag of M split at its first gap index s, with the sentinels
    T_0|G_0 = S_s|F_s and T_{l+1}|G_{l+1} = [N]|0."""

    def __init__(self, M, first, second):
        self.M = M
        self.first = list(first)
        self.second = list(second)
        self.s = len(self.first)
        self.l = len(self.second)
        full = M.full
        Ss = self.first[-1][0] if self.first else 0
        self.closure_Ssc = M.closure(full & ~Ss)
        self.a = M.rank(self.closure_Ssc)

    def chain(self):
        return self.first + self.second

    def T(self, i):
        if i == 0:
            return self.first[-1] if self.first else (0, self.M.full)
        if i == self.l + 1:
            return (self.M.full, 0)
        return self.second[i - 1]

    def low_index(self, target):
        """The smallest 1 <= i <= l+1 with rk(T_i^c) < target, or None."""
        M = self.M
        return next((i for i in range(1, self.l + 2)
                     if M.rank(M.full & ~self.T(i)[0]) < target), None)


def split_at_first_gap(M, chain):
    chain = list(chain)
    gaps = sorted(gap_indices(M.n, chain))
    if not gaps:
        raise NotABiflag("chain has no gap index")
    for S, F in chain:
        if not M.is_flat(F):
            raise NotABiflag("%s is not a flat" % (mask_to_set(F),))
    s = gaps[0]
    return SplitBiflag(M, chain[:s], chain[s:])


def is_lex_decreasing(split, at=None):
    """min(closure(S_s^c) \\ G_{i+1}) in G_i, for one index or all of
    0..l; index 0 holds automatically."""
    if at is not None:
        if not 0 <= at <= split.l:
            raise IndexOutOfRange("index %d outside 0..%d" % (at, split.l))
        return _lex_holds(split.closure_Ssc, split.T(at)[1], split.T(at + 1)[1])
    return all(is_lex_decreasing(split, at=i) for i in range(split.l + 1))


def dyck_profile(split):
    """Per index i = 1..l, the pair (rk(closure(S_s^c) & G_i), rk(T_i^c));
    raises InvariantViolated unless the first entries strictly decrease
    from a and rk(T_i^c) <= rk(closure(S_s^c) & G_i) <= a - i."""
    if not is_lex_decreasing(split):
        raise NotLexDecreasing("profile is only defined for lexicographically "
                               "decreasing biflags")
    M, a = split.M, split.a
    full = M.full
    out = []
    prev = a
    for i in range(1, split.l + 1):
        Ti, Gi = split.T(i)
        inter = M.rank(split.closure_Ssc & Gi)
        tci = M.rank(full & ~Ti)
        if not (inter < prev and tci <= inter <= a - i):
            raise InvariantViolated("Dyck profile fails at index %d: %d, %d "
                                    "after %d with a = %d"
                                    % (i, inter, tci, prev, a))
        out.append((inter, tci))
        prev = inter
    return out


def expansion_index(split):
    """The smallest 1 <= i <= l+1 with rk(T_i^c) < a - l, and the pivot
    element e = min(closure(S_s^c) \\ G_i)."""
    i = split.low_index(split.a - split.l)
    if i is None:
        raise BiflagError("no expansion index; rk(T_{l+1}^c) = 0 should qualify")
    return i, _minimum(split.closure_Ssc & ~split.T(i)[1])


def _biflat_lookup(M):
    """(position, pred): the index of each proper biflat of M among the
    labels of `biflat_poset`, and pred[j], in increasing order, the i with
    labels[i] < labels[j], read off the successor lists; built once per
    matroid, when a canonical expansion first needs them, with one shared
    int object per index, as `fans._successors` keeps them."""
    if M._biflat_lookup is None:
        labels, succ = biflat_poset(M)
        index = list(range(len(labels)))
        pred = [[] for _ in labels]
        for i, later in enumerate(succ):
            for j in later:
                pred[j].append(index[i])
        M._biflat_lookup = (dict(zip(labels, index)),
                            tuple(map(tuple, pred)))
    return M._biflat_lookup


def canonical_expansion(split):
    """The signed square-free rewriting of x_chain * (gammabar - v_{a-l}^-)
    with the representative gammabar_e: returns (e, pos, neg) where pos and
    neg are sets of chains (tuples of biflats).  Each term inserts one
    proper biflat p into the chain, in the slot t with chain[t-1] < p <
    chain[t]: a predecessor of chain[0] for t = 0 (any biflat for the empty
    chain), else a successor of chain[t-1] listed before chain[t] and
    below it, so the new chain needs only a gap."""
    if not is_lex_decreasing(split):
        raise NotLexDecreasing("canonical expansion needs a lexicographically "
                               "decreasing biflag")
    M, full = split.M, split.M.full
    target = split.a - split.l
    i, e = expansion_index(split)
    ebit = 1 << (e - 1)
    chain = split.chain()
    labels, succ = biflat_poset(M)
    position, pred = _biflat_lookup(M)
    at = []
    for S, F in chain:
        j = position.get((S, F))
        if j is None:
            raise NotABiflag("%s|%s is not a proper biflat of M"
                             % (mask_to_set(S), mask_to_set(F)))
        at.append(j)
    pos, neg = set(), set()
    for t in range(len(chain) + 1):
        if t == 0:
            candidates = pred[at[0]] if chain else range(len(labels))
        else:
            candidates = succ[at[t - 1]]
        upper = at[t] if t < len(chain) else len(labels)
        for j in candidates:
            if j >= upper:
                break
            U, H = p = labels[j]
            if 0 < t < len(chain) and not bisubset_leq(p, chain[t]):
                continue
            rkU = M.rank(full & ~U)
            if rkU < target and (H & ebit) and H != full:
                bucket = pos
            elif rkU >= target and not (H & ebit):
                bucket = neg
            else:
                continue
            new = chain[:t] + [p] + chain[t:]
            if _gaps(full, new):
                bucket.add(tuple(new))
    return e, pos, neg


def family_sets(M, first, l):
    """All the set-level data of the cancellation argument for the first
    component `first` and second components of length l: the family A of
    lexicographically decreasing biflags, its partition A_1..A_{l+1} by
    first low-rank index, the length-(l+1) family A' and its partition by
    the same index (rk(T_j^c) < a - l), the pos/neg images,
    and the subfamily B of pos(A_1) whose inserted flat contains
    closure(S_s^c)."""
    first = list(first)
    s = len(first)
    if first:
        gaps = gap_indices(M.n, first)
        if any(g < s for g in gaps):
            raise InvalidFirstComponent("first component has a gap before its end")
        for S, F in first:
            if not M.is_flat(F):
                raise InvalidFirstComponent("%s is not a flat" % (mask_to_set(F),))
    base = SplitBiflag(M, first, [])
    a = base.a
    full = M.full
    Ss, Fs = first[-1] if first else (0, full)
    cSsc = base.closure_Ssc
    labels, succ = biflat_poset(M)

    # second components: chains of biflats above S_s|F_s with the first gap
    # at s and every internal index i (G_i against G_{i+1}) lexicographically
    # decreasing; a failing index stays failing in every extension
    def keep(chain):
        prev = labels[chain[-2]][1] if len(chain) > 1 else Fs
        return _lex_holds(cSsc, prev, labels[chain[-1]][1])

    roots = succ[labels.index(first[-1])] if first else range(len(labels))
    seconds = walk_chains(succ, [j for j in roots if (Ss | labels[j][1]) != full],
                          keep, l + 1)
    A, Aprime = [], []
    # the empty second component has its gap at s exactly when S_s != [N]
    for second in itertools.chain([()] if Ss != full else [], seconds):
        # the last index, against the sentinel G_{l+1} = 0
        if len(second) >= l and _lex_holds(
                cSsc, labels[second[-1]][1] if second else Fs, 0):
            split = SplitBiflag(M, first, [labels[i] for i in second])
            (A if split.l == l else Aprime).append(split)

    parts = {j: [] for j in range(1, l + 2)}
    for split in A:
        parts[split.low_index(a - l)].append(split)
    aprime_parts = {j: [] for j in range(1, l + 3)}
    for split in Aprime:
        aprime_parts[split.low_index(a - l)].append(split)

    pos_parts = {j: {} for j in range(1, l + 2)}
    neg_parts = {j: {} for j in range(1, l + 2)}
    for j, members in parts.items():
        for split in members:
            e, pos, neg = canonical_expansion(split)
            pos_parts[j][tuple(split.chain())] = pos
            neg_parts[j][tuple(split.chain())] = neg

    # B: in pos(A_1) the inserted biflat sits right after the first
    # component; it belongs to B when closure(S_s^c) lies in its flat
    B = set()
    for chain, pos in pos_parts[1].items():
        for new in pos:
            inserted = [p for p in new if p not in chain]
            if len(inserted) != 1:
                raise InvariantViolated("pos term %r of %r does not insert "
                                        "exactly one biflat" % (new, chain))
            if (cSsc & ~inserted[0][1]) == 0:
                B.add(new)

    return {"a": a, "A": A, "parts": parts, "Aprime": Aprime,
            "Aprime_parts": aprime_parts, "pos_parts": pos_parts,
            "neg_parts": neg_parts, "B": B}


def verify_cancellation(M, first, l):
    """Check the disjointness, emptiness, containment, partition, and
    signed-sum identities of the length-l cancellation step.  Returns a
    report dict with status and a witness on the first failure."""
    data = family_sets(M, first, l)
    l1 = l + 1
    pos_parts, neg_parts = data["pos_parts"], data["neg_parts"]

    def fail(check, witness):
        return {"status": "fail", "check": check, "witness": witness, "data": data}

    # pairwise disjointness across members of A
    all_pos, all_neg = {}, {}
    for j in range(1, l1 + 1):
        for chain, pos in pos_parts[j].items():
            for new in pos:
                if new in all_pos:
                    return fail("disjoint-pos", new)
                all_pos[new] = chain
        for chain, neg in neg_parts[j].items():
            for new in neg:
                if new in all_neg:
                    return fail("disjoint-neg", new)
                all_neg[new] = chain

    # neg of the last part is empty
    for chain, neg in neg_parts[l1].items():
        if neg:
            return fail("last-neg-empty", sorted(neg)[0])

    pos_union = {j: set().union(*pos_parts[j].values()) for j in range(1, l1 + 1)}
    neg_union = {j: set().union(*neg_parts[j].values()) for j in range(1, l1 + 1)}

    aprime_chains = {tuple(sp.chain()) for sp in data["Aprime"]}

    # the shifted containment and its characterized difference
    for j in range(1, l1):
        diff = pos_union[j + 1] - neg_union[j]
        if not neg_union[j] <= pos_union[j + 1]:
            return fail("neg-containment", sorted(neg_union[j] - pos_union[j + 1])[0])
        expected = {tuple(sp.chain()) for sp in data["Aprime_parts"][j + 1]}
        if diff != expected:
            return fail("neg-containment-difference",
                        sorted(diff.symmetric_difference(expected))[0])

    # the partition identity for the next-length family
    B = data["B"]
    assembled = set(pos_union[1]) - B
    for j in range(1, l1):
        assembled |= pos_union[j + 1] - neg_union[j]
    if assembled != aprime_chains:
        return fail("partition", sorted(assembled.symmetric_difference(aprime_chains))[0])
    alt = (set(all_pos) - B) - set(all_neg)
    if alt != aprime_chains:
        return fail("partition-alt", sorted(alt.symmetric_difference(aprime_chains))[0])

    # the signed formal sum collapses onto A' plus B
    signed = Counter(all_pos.keys())
    signed.subtract(all_neg.keys())
    signed = {k: v for k, v in signed.items() if v}
    expected = dict(Counter(aprime_chains) + Counter(B))
    if signed != expected:
        bad = set(signed.items()).symmetric_difference(expected.items())
        return fail("signed-sum", sorted(bad)[0])

    return {"status": "pass", "data": data}


def gap_free_firsts(M, max_len=1):
    """Chains of proper biflats with no gap before their end, in increasing
    length, starting with the empty chain.  These are exactly the usable
    first components: the first gap of any completed biflag sits at the
    chain length or later."""
    labels, succ = biflat_poset(M)
    full = M.full

    def keep(chain):
        # the newest internal index, len - 1, is no gap
        prev = labels[chain[-2]][0] if len(chain) > 1 else 0
        return (prev | labels[chain[-1]][1]) == full

    found = sorted(walk_chains(succ, range(len(labels)), keep, max_len), key=len)
    return [()] + [tuple(labels[i] for i in chain) for chain in found]


def lemma_suite(M, fan=None, max_first_len=1, with_min_dec=True):
    """Run the cancellation and vanishing checks over every gap-free first
    component up to the given length and every admissible l.  Yields one
    report dict per (first, l) pair.  The family sets of a pair are built
    once and read by both checks."""
    if with_min_dec:
        if fan is None:
            fan = projective_bundle_fan(M.n, M)
        sd = structural_divisors(fan, M)
    for first in gap_free_firsts(M, max_first_len):
        a = SplitBiflag(M, list(first), []).a
        for l in range(a):
            rep = verify_cancellation(M, list(first), l)
            yield {"check": "cancellation", "first": first, "l": l,
                   "status": rep["status"],
                   "witness": rep.get("witness"), "detail": rep.get("check")}
            if with_min_dec:
                ok = _min_dec_vanishes(fan, sd, rep["data"]["A"],
                                       len(first) + l, a - l)
                yield {"check": "vanishing-product", "first": first, "l": l,
                       "status": "pass" if ok else "fail", "witness": None}


def chain_to_cone(fan, chain):
    try:
        cone = tuple(sorted(fan.ray_index[p] for p in chain))
    except KeyError:
        return None
    return cone if cone in fan.cones else None


def _min_dec_vanishes(fan, sd, A, degree, steps):
    """Whether the sum of x_chain over the family A, a class of the given
    degree, times prod_{i=1}^{steps} (gammabar - v_i^-) is zero; sd holds
    the structural divisors of the fan."""
    terms = {}
    for sp in A:
        cone = chain_to_cone(fan, sp.chain())
        if cone is not None:
            terms[cone] = 1
    elem = ChowElement(fan, degree, terms)
    for i in range(1, steps + 1):
        elem = multiply_by_divisor(elem, sd["gammabar"] - sd["vminus"][i])
    return nonzero_pairing_witness(elem) is None


def verify_min_dec(M, fan, first, l):
    """Check that the sum of x_chain over the length-l lexicographically
    decreasing family, times prod_{i=1}^{a-l} (gammabar - v_i^-), vanishes."""
    first = list(first)
    base = SplitBiflag(M, first, [])
    if base.a == 0:
        # the first component is gap-free, so its monomial is already zero
        return chain_to_cone(fan, first) is None
    return _min_dec_vanishes(fan, structural_divisors(fan, M),
                             family_sets(M, first, l)["A"],
                             len(first) + l, base.a - l)


def verify_bundle_identity(N, M, fan=None):
    """The degree-r relation on the biflag fan of M: the Chern polynomial
    in delta, the product of (delta + u_j), and the product of
    (gammabar - v_j^-) all vanish and agree pairwise; additionally every
    restricted v_r^- coefficient is zero on this fan.

    Each check is the zero test of the pairing walk, whose witness is the
    first complementary cone, in an order that does not depend on the
    class, that pairs nonzero with it.  Once e1 = 0 and e1 - e2 = 0 are
    proved, e2 = 0, so e2 - e3 pairs as -e3 with every cone and the walk
    of e3 finds the same witness; e3 has far fewer terms than e2 - e3.
    Where either earlier check fails, e2 - e3 is walked as it is."""
    if fan is None:
        fan = projective_bundle_fan(N, M)
    sd = structural_divisors(fan, M)
    r = M.r
    us = sd["u"][1:]
    cs = elementary_symmetric_products(us)
    delta = sd["delta"]

    # sum_i c_i delta^(r-i) by Horner, apart from the product e2
    e1 = cs[0]
    for c in cs[1:]:
        e1 = multiply_by_divisor(e1, delta) + c

    e2 = unit_class(fan)
    for j in range(1, r + 1):
        e2 = multiply_by_divisor(e2, delta + sd["u"][j])

    e3 = unit_class(fan)
    for j in range(1, r + 1):
        e3 = multiply_by_divisor(e3, sd["gammabar"] - sd["vminus"][j])

    checks = {}
    checks["chern-delta-polynomial"] = nonzero_pairing_witness(e1)
    checks["delta-u-product-difference"] = nonzero_pairing_witness(e1 - e2)
    e2_is_zero = (checks["chern-delta-polynomial"] is None
                  and checks["delta-u-product-difference"] is None)
    checks["v-minus-product-difference"] = nonzero_pairing_witness(
        e3 if e2_is_zero else e2 - e3)
    vr = sd["vminus"][r]
    checks["v-r-minus-restricts-to-zero"] = (
        fan.ray_labels[min(vr.terms)[0]] if vr.terms else None)
    status = "pass" if all(w is None for w in checks.values()) else "fail"
    return {"status": status, "checks": checks, "fan": fan}
