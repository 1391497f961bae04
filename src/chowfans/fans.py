"""Simplicial fans with lineality: flag fans of matroids and their
two-sided analogues built from biflags.

Rays are integer vectors in the full ambient space.  Cones are stored as
sorted tuples of ray indices, closed under taking subsets, with the empty
tuple standing for the lineality cone.
"""

from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .matroid import LoopyMatroid, mask_to_set, matroid_uniform


class FanError(Exception):
    pass


class NotAChain(FanError):
    pass


class ConeNotInFan(FanError):
    pass


class DimensionMismatch(FanError):
    pass


# ---------------------------------------------------------------------------
# bisubset / biflag combinatorics (masks over [N])

def is_bisubset(N, S, T):
    full = (1 << N) - 1
    return (S | T) == full and (S & T) != full


def is_proper_bisubset(N, S, T):
    return is_bisubset(N, S, T) and S != 0 and T != 0


def bisubset_leq(a, b):
    return (a[0] & ~b[0]) == 0 and (b[1] & ~a[1]) == 0


def is_chain(pairs):
    for i in range(len(pairs) - 1):
        if pairs[i] == pairs[i + 1] or not bisubset_leq(pairs[i], pairs[i + 1]):
            return False
    return True


def gap_indices(N, pairs):
    """Gap indices of a strictly increasing chain of proper bisubsets,
    computed with the sentinels 0|[N] below and [N]|0 above."""
    for S, T in pairs:
        if not is_proper_bisubset(N, S, T):
            raise NotAChain("not a proper bisubset: %s|%s"
                            % (mask_to_set(S), mask_to_set(T)))
    if not is_chain(pairs):
        raise NotAChain("not strictly increasing: %r" % (pairs,))
    return set(_gaps((1 << N) - 1, pairs))


def _gaps(full, pairs):
    """The indices j with S_j | T_{j+1} != [N] of a chain of bisubsets,
    with the sentinels 0|[N] below and [N]|0 above."""
    ext = [(0, full)] + list(pairs) + [(full, 0)]
    return [j for j in range(len(pairs) + 1) if (ext[j][0] | ext[j + 1][1]) != full]


def proper_biflats(M):
    """All proper biflats S|F of M, sorted by (|S|, -|F|, S, F), as a
    tuple.  Callers read them through `biflat_poset`, which builds them
    once per matroid."""
    out = []
    for F in M.flats():
        # S is F^c together with any subset of F
        extra = F
        while True:
            S = (M.full & ~F) | extra
            if is_proper_bisubset(M.n, S, F):
                out.append((S, F))
            if extra == 0:
                break
            extra = (extra - 1) & F
    out.sort(key=lambda p: (p[0].bit_count(), -p[1].bit_count(), p[0], p[1]))
    return tuple(out)


def biflat_poset(M):
    """(labels, succ): the proper biflats of M and their successor lists,
    built once per matroid and cached on it.  succ[i] lists, in increasing
    order, the j with labels[i] < labels[j]; the order of `proper_biflats`
    is a linear extension of the bisubset order, so every j is above i."""
    if M._biflat_poset is None:
        labels = proper_biflats(M)
        M._biflat_poset = (labels, _successors(labels, bisubset_leq))
    return M._biflat_poset


def _successors(labels, leq):
    """succ[i]: the j > i with leq(labels[i], labels[j]), for distinct
    labels listed along a linear extension of the partial order leq."""
    # one shared int object per index: fresh ints take four times the memory
    index = list(range(len(labels)))
    return tuple(tuple(index[j] for j in range(i + 1, len(labels))
                       if leq(p, labels[j])) for i, p in enumerate(labels))


def walk_chains(succ, roots, keep, max_len):
    """Every chain i_1 < ... < i_k with 1 <= k <= max_len, i_1 in roots and
    each i_{t+1} in succ[i_t], whose every prefix passes keep(prefix), as
    tuples in DFS pre-order: a chain comes right before its extensions, in
    the order of its successor list.  keep is called on a chain only right
    after its prefix passed, so it need only judge the newest element and
    may keep one flag per depth for the prefix."""
    chain = []
    stack = [iter(roots)] if max_len > 0 else []
    while stack:
        for i in stack[-1]:
            chain.append(i)
            if keep(chain):
                yield tuple(chain)
                if len(chain) < max_len:
                    stack.append(iter(succ[i]))
                    break
            chain.pop()
        else:
            stack.pop()
            if chain:
                chain.pop()


# ---------------------------------------------------------------------------

class Fan:
    """A simplicial fan, whose class is its contract.  Fan itself is never
    built; a subclass implements two hooks on sorted cones, as ChowElement
    keys them:

    - `_fan_out(cone, a)` is the product x_cone * D for D = sum a[rho]
      x_rho, a holding D's nonzero coefficients by ray and nonzero on some
      ray of cone (Adiprasito-Huh-Katz): the pairs (cone + {rho}, a_rho -
      m(u_rho)) whose coefficient is nonzero, over the rays rho extending
      cone in ascending order, for m the functional vanishing on the
      lineality with m(u_i) = a_i on the rays i of cone and 0 off the
      pivot coordinates of its rows;
    - `_relation(tau, weights)` is the balancing relation around tau: the
      tuple lambda, over the rays of tau, with sum w u_rho = sum_i
      lambda_i u_(tau_i) modulo the lineality, the sum over the
      extensions sigma = tau + {rho} of weight w = weights[sigma]; None
      when that sum leaves the span of the lineality and the rays of tau.

    Its cones are unimodular, so a maximal cone's degree is its weight,
    and its Chow ring satisfies Poincare duality, on which FanRingModel
    and the zero test of the pairing walk rest: FlagFan (bergman_fan) by
    Adiprasito-Huh-Katz, BiflagFan (projective_bundle_fan) by the Hodge
    theory of combinatorial projective bundles.  These two list their
    labels along a linear extension of the chain order, so a sorted cone
    lists its chain in order and an extension in slot j, between the rays
    j-1 and j of the chain, comes after the extensions of the slots below
    it.  They read both hooks off the blocks of that chain: m(u_rho) off
    the slot of rho alone, with one or two bit tests, and a relation off
    the blocks of its occupied slots alone; the inverse of the pivot block
    of a cone's rows has entries 0 and +-1 (Adiprasito-Huh-Katz).  The
    fundamental class is fixed with the fan:
    weight, read-only, is 1 on every maximal cone, and so is the cone's
    degree.  Its relations at the (top-1)-cones are kept on the fan
    (`_top_relation`), filled by fundamental_weight or on first use by
    the walk and the cap product (`chow`): there deg(x_tau x_(tau_i)) =
    -lambda_i.  family is a display label, which to_json writes and no
    code branches on; to_json writes a ray label as it is
    (`_label_json`), and FlagFan and BiflagFan write their bitmask labels
    as sets."""

    def __init__(self, ambient_dim, lineality, rays, ray_labels, cones, family):
        if type(self) is Fan:
            raise FanError("a bare Fan has no per-cone hooks: build it with "
                           "bergman_fan or projective_bundle_fan")
        self.ambient_dim = ambient_dim
        self.lineality = [list(v) for v in lineality]
        self.rays = [list(v) for v in rays]
        self.ray_labels = list(ray_labels)
        self.ray_index = {lab: i for i, lab in enumerate(ray_labels)}
        self.family = family
        by_dim = {}
        for c in cones:
            by_dim.setdefault(len(c), []).append(c)
        # the chain walks list the cones of each dimension in ascending
        # order, so sorting them in the given order takes one pass
        self._by_dim = {k: tuple(sorted(dict.fromkeys(cs)))
                        for k, cs in by_dim.items()}
        self.cones = {c for cs in self._by_dim.values() for c in cs}
        self.top_dim = max(by_dim, default=0)
        self.maximal_cones = list(self.cones_of_dim(self.top_dim))
        self.weight = MappingProxyType(dict.fromkeys(self.maximal_cones, 1))
        self._extensions = None
        self._top_relations = {}  # _relation(tau, self.weight) by tau
        self._relation_pool = {}  # one tuple per distinct relation

    def cones_of_dim(self, k):
        """The k-cones in ascending order, as a tuple."""
        return self._by_dim.get(k, ())

    def cone_chain(self, cone):
        """Ray labels of a cone in chain order (for flag/biflag fans, whose
        constructors list the labels along a linear extension of the chain
        order, so ascending ray index is chain order)."""
        return tuple(self.ray_labels[i] for i in sorted(cone))

    def _cone(self, cone):
        """The cone of the fan that the tuple cone lists, as a sorted
        tuple; ConeNotInFan, naming the tuple, if it lists none."""
        if cone in self.cones:
            return cone
        key = tuple(sorted(cone))
        if key not in self.cones:
            raise ConeNotInFan("not a cone of this fan: %r" % (cone,))
        return key

    def _extension_map(self, cone):
        """{i: sorted cone + {i}} over the rays i extending the sorted cone,
        in ascending order of i, built for every cone at once on first use."""
        if self._extensions is None:
            # the cones tau+{i} of one tau share a dimension, and their
            # sorted order there is ascending order of i; combinations
            # drops the last ray of c first
            self._extensions = ext = {}
            for d, cones in self._by_dim.items():
                for c in cones if d else ():
                    for tau, i in zip(combinations(c, d - 1), reversed(c)):
                        ext.setdefault(tau, {})[i] = c
        return self._extensions.get(cone, {})

    def _by_slot(self, tau, weights):
        """{j: [(label of rho, w)]} over the extensions sigma = tau + {rho}
        of weight w = weights[sigma] != 0, by slot j = sigma.index(rho):
        rho lies between the rays j-1 and j of tau's chain, so u_rho is
        constant off the block that those two rays bound."""
        labels, slots = self.ray_labels, {}
        for rho, sigma in self._extension_map(tau).items():
            w = weights.get(sigma)
            if w:
                slots.setdefault(sigma.index(rho), []).append((labels[rho], w))
        return slots

    def _top_relation(self, tau):
        """_relation(tau, self.weight) at a (top-1)-cone tau, kept in
        `_top_relations` unless it is None.  Equal relations share one
        tuple: the bundle fan of U(2,7) has 9 distinct ones over its
        128,520 (top-1)-cones."""
        lam = self._top_relations.get(tau)
        if lam is None:
            lam = self._relation(tau, self.weight)
            if lam is not None:
                lam = self._relation_pool.setdefault(lam, lam)
                self._top_relations[tau] = lam
        return lam

    def _label_json(self, label):
        """A ray label as to_json writes it: as it is."""
        return label

    def to_json(self):
        return {
            "family": self.family,
            "ambient_dim": self.ambient_dim,
            "lineality": self.lineality,
            "rays": self.rays,
            "ray_labels": [self._label_json(l) for l in self.ray_labels],
            "top_dim": self.top_dim,
            "maximal_cones": [list(c) for c in self.maximal_cones],
            "weights": [str(self.weight[c]) for c in self.maximal_cones],
        }


def _sum_on(block, cuts):
    """The sum of the w over the (mask, w) in cuts whose mask holds e, if
    it is the same at every e in block, 0 for an empty block, else None.
    A mask that covers the block adds its w at every e and one that misses
    it adds nothing, so the callers pass only the masks that cut it."""
    value = None
    while block:
        e = block & -block
        block ^= e
        x = 0
        for mask, w in cuts:
            if mask & e:
                x += w
        if value is None:
            value = x
        elif x != value:
            return None
    return value or 0


def _slot_values(cone, a):
    """(v, active) for the fan-out of D = sum a[rho] x_rho at a sorted
    cone: v = [0, a on the rays of cone, 0], so that the rays bounding slot
    j hold v[j] and v[j + 1], and the slots where a coefficient can be
    nonzero.  That is every slot when D has a ray off the cone, and else
    the slots beside a ray of D, off which m vanishes but for the block of
    q on a biflag chain (`BiflagFan._fan_out`): the walk's x_rho, the j-th
    ray of the cone, has two, j below rho and j + 1 above it."""
    k = len(cone)
    v = [0, *[a.get(i, 0) for i in cone], 0]
    slots = range(k + 1)
    if len(a) > k + 2 - v.count(0):
        return v, slots
    return v, [j for j in slots if v[j] or v[j + 1]]


class FlagFan(Fan):
    """A fan of bergman_fan: it lists its flats by size.  The blocks of
    the flag F_1 < ... < F_k of a cone are B_j = F_{j+1} minus F_j,
    j = 0..k, for F_0 empty and F_{k+1} = [n]; rays j-1 and j bound B_j."""

    def _fan_out(self, cone, a):
        """The fan-out read off the chain, slot by slot.  Each block's
        columns of the rows are equal, a 1 then j zeros then ones, so the
        pivots are the min B_j, and m = v_(j+1) - v_j on min B_j, for v_j
        the value on e_(F_j) and v_0 = v_(k+1) = 0.  An extension G in slot
        j (F_j < G < F_(j+1)) holds min B_i for every i < j and none for
        i > j, so m(e_G) is v_(j+1) if min B_j lies in G, else v_j."""
        labels, k = self.ray_labels, len(cone)
        v, active = _slot_values(cone, a)
        slots = [None] * (k + 1)
        for j in active:
            E = labels[cone[j - 1]] if j else 0
            F = labels[cone[j]] if j < k else (1 << self.ambient_dim) - 1
            B = F & ~E
            slots[j] = (v[j], v[j + 1], B & -B)
        out, j, ends = [], 0, (*cone, len(labels))
        for rho, sigma in self._extension_map(cone).items():
            while ends[j] < rho:
                j += 1
            if slots[j]:
                below, above, bit = slots[j]
                x = a.get(rho, 0) - (above if labels[rho] & bit else below)
                if x:
                    out.append((sigma, x))
        return out

    def _label_json(self, label):
        return sorted(mask_to_set(label))

    def _relation(self, tau, weights):
        """The relation around tau read off the blocks of its occupied
        slots.  Its span is the vectors constant on each block, so slot
        j's sum x_j = sum w [e in G] must be constant on B_j, which every
        extension G cuts (F_j < G < F_{j+1}); the weighted sum then reads
        c_j = x_j + sum_(j' > j) W_j' on B_j, W_j the slot's total weight,
        and the r-th ray e_(F_(r+1)) reads 1 on B_j exactly for j <= r, so
        lambda_r = c_r - c_(r+1) gains x_j at r = j and W_j - x_j at
        r = j - 1."""
        labels, k = self.ray_labels, len(tau)
        lam = [0] * k
        for j, parts in self._by_slot(tau, weights).items():
            E = labels[tau[j - 1]] if j else 0
            F = labels[tau[j]] if j < k else (1 << self.ambient_dim) - 1
            x = _sum_on(F & ~E, parts)
            if x is None:
                return None
            if j < k:
                lam[j] += x
            if j:
                lam[j - 1] += sum(w for _, w in parts) - x
        return tuple(lam)


class BiflagFan(Fan):
    """A fan of projective_bundle_fan: it lists its biflats by
    (|S|, -|F|).

    For the biflag S_1|F_1 < ... < S_k|F_k with the sentinels
    S_0|F_0 = 0|[N] and S_{k+1}|F_{k+1} = [N]|0, the blocks are
    A_j = S_j minus S_{j-1} and B_j = F_{j-1} minus F_j, j = 1..k+1.  A
    vector v = a e_{0|[N]} + b e_{[N]|0} + sum_i g_i e_{S_i|F_i} reads
    c_j = b + sum_{i>=j} g_i on A_j and c_0 - c_j on N + B_j, for
    c_0 = a + b + sum_i g_i; conversely a = c_0 - c_1, b = c_{k+1} and
    g_i = c_i - c_{i+1}."""

    def _fan_out(self, cone, a):
        """The fan-out read off the chain, slot by slot.  The functional
        of the chain is m = sum_j (v_j - v_(j-1)) c_j, j = 1..k+1, for v_j
        the value on e_(S_j|F_j) and v_0 = v_(k+1) = 0, with each c_j
        written on pivot columns: c_j is v[min A_j] where A_j is nonempty;
        c_0 = v[N + q] + v[a_q] for q the least min B_j over the blocks with
        both parts nonempty, in block j_q, whose min A_j is a_q (a cone of
        the fan has one); and c_j = c_0 - v[N + min B_j] where A_j is
        empty.  An extension S|F in block j (S_(j-1)|F_(j-1) < S|F <
        S_j|F_j) reads c_i = 1 for i < j and c_i = 0 for i > j where A_i
        is nonempty, and c_0 = 1 off block j_q, so m(e_(S|F)) is v_j if c_j
        = [min A_j in S] or, for A_j empty, 1 - [min B_j in F], is 1, else
        v_(j-1).  In block j_q it gains (c_0 - 1) times the sum of the v_i -
        v_(i-1) over the empty A_i, for c_0 = [q in F] + c_j; that sum
        reads only the blocks beside a nonzero v_i, so q is looked for only
        when it is nonzero."""
        labels, k = self.ray_labels, len(cone)
        full = (1 << (self.ambient_dim // 2)) - 1
        v, active = _slot_values(cone, a)
        # slot j holds block j + 1: its values and its bit test, on S where
        # that block's A is nonempty, else on F
        slots, empty = [None] * (k + 1), 0
        for j in active:
            S0, F0 = labels[cone[j - 1]] if j else (0, full)
            S, F = labels[cone[j]] if j < k else (full, 0)
            A = S & ~S0
            if A:
                slots[j] = (v[j], v[j + 1], A & -A, 0)
            else:
                B = F0 & ~F
                slots[j] = (v[j], v[j + 1], 0, B & -B)
                empty += v[j + 1] - v[j]
        q = jq = -1
        if empty:
            q, S0, F0 = 0, 0, full
            for j in range(k + 1):
                S, F = labels[cone[j]] if j < k else (full, 0)
                A, B = S & ~S0, F0 & ~F
                if A and B and (not q or B & -B < q):
                    q, jq, aq = B & -B, j, A & -A
                S0, F0 = S, F
            slots[jq] = slots[jq] or (v[jq], v[jq + 1], aq, 0)
        out, j, ends = [], 0, (*cone, len(labels))
        for rho, sigma in self._extension_map(cone).items():
            while ends[j] < rho:
                j += 1
            if slots[j]:
                below, above, sbit, fbit = slots[j]
                S, F = labels[rho]
                c = S & sbit if sbit else not F & fbit
                m = above if c else below
                if j == jq:
                    if c and F & q:
                        m += empty
                    elif not (c or F & q):
                        m -= empty
                x = a.get(rho, 0) - m
                if x:
                    out.append((sigma, x))
        return out

    def _label_json(self, label):
        return [sorted(mask_to_set(label[0])), sorted(mask_to_set(label[1]))]

    def _relation(self, tau, weights):
        """The relation around tau read off the blocks of its occupied
        slots.  The span of the lineality and the e_(S_j|F_j) of tau is the
        vectors constant on each A_j and on each N + B_j whose two values
        add up to the same c_0 on every block with both parts nonempty.  An
        extension S|F adds w to that total off its slot, so on slot j
        X_j = sum w [e in S] on A_j and Y_j = sum w [e in F] on B_j must be
        constant, and X_j + Y_j - W_j, W_j = sum w, the same kappa on every
        such block: 0 on an empty slot.  S|F covers, misses or cuts each
        part (S_(j-1) <= S <= S_j, F_j <= F <= F_(j-1)), and only the parts
        it cuts are summed per element.  The weighted sum then reads c_j = d_j
        + sum_(j' > j) W_j' on A_j and c_0 - c_j = Y_j + sum_(j' < j) W_j'
        on N + B_j, for c_0 = kappa + sum_j W_j, so d_j = X_j where A_j is
        nonempty and d_j = W_j - Y_j + kappa where it is empty, and lambda
        gains d_j and W_j - d_j as on FlagFan."""
        labels, k = self.ray_labels, len(tau)
        full = (1 << (self.ambient_dim // 2)) - 1
        lam, kappa = [0] * k, None
        slots = self._by_slot(tau, weights)
        for j, parts in slots.items():
            S0, F0 = labels[tau[j - 1]] if j else (0, full)
            S1, F1 = labels[tau[j]] if j < k else (full, 0)
            A, B = S1 & ~S0, F0 & ~F1
            x = y = W = 0
            cut_a, cut_b = [], []
            for (S, F), w in parts:
                W += w
                if S & A == A:
                    x += w
                elif S & A:
                    cut_a.append((S, w))
                if F & B == B:
                    y += w
                elif F & B:
                    cut_b.append((F, w))
            if cut_a or cut_b:
                dx, dy = _sum_on(A, cut_a), _sum_on(B, cut_b)
                if dx is None or dy is None:
                    return None
                x, y = x + dx, y + dy
            if A and B:
                if kappa is None:
                    kappa = x + y - W
                elif x + y - W != kappa:
                    return None
            d = x if A else W - y
            if j < k:
                lam[j] += d
            if j:
                lam[j - 1] += W - d
        if kappa:
            # every block: kappa enters d_j where A_j is empty, and a block
            # with both parts nonempty must hold a slot
            S0, F0 = 0, full
            for j in range(k + 1):
                S1, F1 = labels[tau[j]] if j < k else (full, 0)
                if S1 == S0:
                    if j < k:
                        lam[j] += kappa
                    if j:
                        lam[j - 1] -= kappa
                elif F1 != F0 and j not in slots:
                    return None
                S0, F0 = S1, F1
        return tuple(lam)


def _indicator(N, mask):
    return [1 if (mask >> i) & 1 else 0 for i in range(N)]


def permutohedral_fan(N):
    """Rays e_S over proper nonempty subsets of [N], cones = chains,
    lineality the all-ones vector.  This is the flag fan of the free
    matroid on [N]."""
    fan = bergman_fan(matroid_uniform(N, N))
    fan.family = "permutohedral"
    return fan


def flag_poset(M):
    """`biflat_poset` for the proper nonempty flats of M, uncached."""
    labels = [F for F in M.flats() if F not in (0, M.full)]
    labels.sort(key=lambda F: (F.bit_count(), F))
    return labels, _successors(labels, lambda F, G: (F & ~G) == 0)


def count_maximal_cones(M, biflags=False):
    """len(fan.maximal_cones) for the bergman_fan of M or, with biflags,
    its projective_bundle_fan, without the chain walk: the longest chains
    (or the empty one), with biflags those with a gap (`_gaps`), counted
    from the last label down by the length and number of the longest chains
    from each label i, per gap flag of the links from i up."""
    if M.loops():
        raise LoopyMatroid("%s fan needs a loopless matroid"
                           % ("projective bundle" if biflags else "bergman"))
    labels, succ = (biflat_poset if biflags else flag_poset)(M)
    # index -1 stands for the sentinels 0|[N] below and [N]|0 above
    ends = list(labels) + [(0, 0)]

    def gap(i, j):
        return not biflags or (ends[i][0] | ends[j][1]) != M.full

    def longest(pairs):
        top = max(n for n, _ in pairs)
        return top, sum(c for n, c in pairs if n == top)

    chains = [None] * len(labels)
    for i in reversed(range(len(labels))):
        by_flag = [[(0, 0)] + [(1, 1)] * (gap(i, -1) == f) for f in (0, 1)]
        for j in succ[i]:
            for f, (n, c) in enumerate(chains[j]):
                by_flag[f or gap(i, j)].append((n + 1, c))
        chains[i] = [longest(pairs) for pairs in by_flag]
    return longest([(0, 1)] + [chains[i][f] for i in range(len(labels))
                               for f in (0, 1) if f or gap(-1, i)])[1]


def bergman_fan(M):
    """Rays e_F over proper nonempty flats, cones = flag chains."""
    if M.loops():
        raise LoopyMatroid("bergman fan needs a loopless matroid")
    labels, succ = flag_poset(M)
    cones = [()] + list(walk_chains(succ, range(len(labels)),
                                    lambda chain: True, len(labels)))
    rays = [_indicator(M.n, F) for F in labels]
    return FlagFan(M.n, [[1] * M.n], rays, labels, cones, "bergman")


def projective_bundle_fan(N, M):
    """Rays e_{S|F} over proper biflats of M, cones = biflags of M,
    lineality e_{0|[N]} and e_{[N]|0}."""
    if M.n != N:
        raise DimensionMismatch("matroid lives on [%d], not [%d]" % (M.n, N))
    if M.loops():
        raise LoopyMatroid("projective bundle fan needs a loopless matroid")
    full = M.full
    labels, succ = biflat_poset(M)
    # the cones are the chains with a gap, so the walk may stop at gap-free
    # chains.  p_1 < ... < p_d has one iff its prefix has one below p_{d-1}
    # (inner[d - 1]), S_{d-1} | F_d != [N] (S_0 = 0) or S_d != [N]
    inner = [False] * (len(labels) + 1)

    def has_gap(chain):
        d, (S, F) = len(chain), labels[chain[-1]]
        below = labels[chain[-2]][0] if d > 1 else 0
        inner[d] = inner[d - 1] or (below | F) != full
        return inner[d] or S != full

    cones = [()] + list(walk_chains(succ, range(len(labels)), has_gap,
                                    len(labels)))
    rays = [_indicator(N, S) + _indicator(N, F) for S, F in labels]
    lin = [[0] * N + [1] * N, [1] * N + [0] * N]
    return BiflagFan(2 * N, lin, rays, labels, cones, "projective_bundle")


def bipermutohedral_fan(N):
    """The projective bundle fan of the free matroid on [N]."""
    fan = projective_bundle_fan(N, matroid_uniform(N, N))
    fan.family = "bipermutohedral"
    return fan


def check_balanced(fan, dim, values):
    """Balancing of a rational weight on the dim-cones: around every
    (dim-1)-cone tau, the weighted sum of the extending ray generators must
    lie in span(tau) + lineality (`_relation` of the fan is not None).
    Returns a list of violating cones in `cones_of_dim` order, and raises
    ConeNotInFan for a key that is not a dim-cone of the fan.  Only the
    facets of the weighted cones are visited: any other tau has no
    weighted extension, so its relation is the zero tuple.  It writes
    nothing to the fan."""
    if dim < 0 or dim > fan.top_dim:
        raise DimensionMismatch("no cones of dimension %d" % dim)
    for c in values:
        if c not in fan.cones or len(c) != dim:
            raise ConeNotInFan("weight on %r, not a %d-cone of this fan"
                               % (c, dim))
    weights = {c: v if type(v) is int else Fraction(v)
               for c, v in values.items() if v}
    facets = {sigma[:j] + sigma[j + 1:] for sigma in weights
              for j in range(dim)}
    return [tau for tau in fan.cones_of_dim(dim - 1)
            if tau in facets and fan._relation(tau, weights) is None]
