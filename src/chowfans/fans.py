"""Simplicial fans with lineality: flag fans of matroids and their
two-sided analogues built from biflags.

Rays are integer vectors in the full ambient space.  Cones are stored as
sorted tuples of ray indices, closed under taking subsets, with the empty
tuple standing for the lineality cone.
"""

from fractions import Fraction
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

    - `_functional(cone, values)` is the functional m vanishing on the
      lineality with m(u_j) = values[j] on the j-th ray u_j of cone and 0
      off the pivot coordinates of its rows, as a list over the ambient
      coordinates;
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
    lists its chain in order, and read both hooks off the blocks of that
    chain (`_blocks`); the inverse of the pivot block of a cone's rows
    has entries 0 and +-1 (Adiprasito-Huh-Katz).  The fundamental class
    is fixed with the fan: weight, read-only, is 1 on every maximal cone,
    and so is the cone's degree.  Its relations at the (top-1)-cones are
    kept on the fan (`_top_relation`), filled by fundamental_weight or on
    first use by the walk and the cap product (`chow`): there
    deg(x_tau x_(tau_i)) = -lambda_i.  family is a display label, which
    to_json writes and no code branches on; to_json writes a ray label
    as it is (`_label_json`), and FlagFan and BiflagFan write their
    bitmask labels as sets."""

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
            # sorted order there is ascending order of i
            self._extensions = {}
            for cones in self._by_dim.values():
                for c in cones:
                    for j, i in enumerate(c):
                        self._extensions.setdefault(c[:j] + c[j + 1:], {})[i] = c
        return self._extensions.get(cone, {})

    def _slots(self, tau, weights):
        """The blocks of tau's chain, and {j: [(label of rho, w)]} over the
        extensions sigma = tau + {rho} of weight w = weights[sigma] != 0 by
        slot j = sigma.index(rho): u_rho is constant off block j."""
        labels, slots = self.ray_labels, {}
        for rho, sigma in self._extension_map(tau).items():
            w = weights.get(sigma)
            if w:
                slots.setdefault(sigma.index(rho), []).append((labels[rho], w))
        return self._blocks(tau), slots

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


def _low(mask):
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _sum_on(block, parts):
    """The sum of the w over the (mask, w) in parts whose mask holds e, if
    it is the same at every e in block, 0 for an empty block, else None."""
    value = None
    while block:
        e = block & -block
        block ^= e
        x = 0
        for mask, w in parts:
            if mask & e:
                x += w
        if value is None:
            value = x
        elif x != value:
            return None
    return value or 0


def _lambda(k, steps):
    """The relation (lambda_0, ..., lambda_(k-1)) of a weighted sum that
    reads c_j = d_j + sum_(j' > j) W_j' on block j = 0..k of a chain of k
    rays, where the r-th ray reads c_j = 1 for j <= r and 0 above, modulo
    the lineality: lambda_r = c_r - c_(r+1) = d_r - d_(r+1) + W_(r+1).  steps
    lists (j, d_j, W_j) for the blocks where either is nonzero, a block's
    entries adding up."""
    lam = [0] * k
    for j, d, W in steps:
        if j < k:
            lam[j] += d
        if j:
            lam[j - 1] += W - d
    return tuple(lam)


class FlagFan(Fan):
    """A fan of bergman_fan: it lists its flats by size."""

    def _blocks(self, cone):
        """The blocks B_j = F_{j+1} minus F_j, j = 0..k, of the flag
        F_1 < ... < F_k of cone, for F_0 empty and F_{k+1} = [n]."""
        labels = self.ray_labels
        out, E = [], 0
        for i in cone:
            F = labels[i]
            out.append(F & ~E)
            E = F
        out.append(((1 << self.ambient_dim) - 1) & ~E)
        return out

    def _functional(self, cone, values):
        """The functional of the sorted cone read off its chain: each
        block's columns of the rows are equal, a 1 then j zeros then ones,
        so the pivots are the min B_j, and m = v_{j+1} - v_j on min B_j,
        for v_j the value on e_{F_j} and v_0 = v_{k+1} = 0, so that
        m(e_G) = sum_j [min B_j in G] (v_{j+1} - v_j)."""
        m, prev = [0] * self.ambient_dim, 0
        for B, v in zip(self._blocks(cone), [*values, 0]):
            m[_low(B)] = v - prev
            prev = v
        return m

    def _label_json(self, label):
        return sorted(mask_to_set(label))

    def _relation(self, tau, weights):
        """The relation around tau read off its chain.  Its span is the
        vectors constant on each block, so slot j's sum x_j = sum w [e in
        G] must be constant on B_j; the weighted sum then reads x_j +
        sum_(j' > j) W_j' on B_j, W_j the slot's total weight, and the r-th
        ray e_(F_(r+1)) reads 1 on B_j exactly for j <= r (`_lambda` with
        d_j = x_j)."""
        blocks, slots = self._slots(tau, weights)
        steps = []
        for j, parts in slots.items():
            x = _sum_on(blocks[j], parts)
            if x is None:
                return None
            steps.append((j, x, sum(w for _, w in parts)))
        return _lambda(len(tau), steps)


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

    def _blocks(self, cone):
        """The pairs (A_j, B_j), j = 1..k+1, of cone's biflag."""
        labels = self.ray_labels
        full = (1 << (self.ambient_dim // 2)) - 1
        out, S0, F0 = [], 0, full
        for i in cone:
            S, F = labels[i]
            out.append((S & ~S0, F0 & ~F))
            S0, F0 = S, F
        out.append((full & ~S0, F0))
        return out

    def _functional(self, cone, values):
        """The functional of the sorted cone read off its chain: m =
        sum_j (v_j - v_{j-1}) c_j, j = 1..k+1, for v_j the value on
        e_{S_j|F_j} and v_0 = v_{k+1} = 0, with each c_j written on pivot
        columns: c_j is v[min A_j] where A_j is nonempty; c_0 = v[N + q] +
        v[aq] for q the least min B_j over the blocks with both parts
        nonempty, in a block whose min A_j is aq (a cone of the fan has
        one); and c_j = c_0 - v[N + min B_j] where A_j is empty."""
        N = self.ambient_dim // 2
        m, on_c0, prev, q = [0] * self.ambient_dim, 0, 0, None
        for (A, B), v in zip(self._blocks(cone), [*values, 0]):
            if A:
                m[_low(A)] = v - prev
                if B and (q is None or _low(B) < q):
                    q, aq = _low(B), _low(A)
            else:
                m[N + _low(B)] = prev - v
                on_c0 += v - prev
            prev = v
        m[N + q] = on_c0
        m[aq] += on_c0
        return m

    def _label_json(self, label):
        return [sorted(mask_to_set(label[0])), sorted(mask_to_set(label[1]))]

    def _relation(self, tau, weights):
        """The relation around tau read off its chain.  The span of the
        lineality and the e_(S_j|F_j) of tau is the vectors constant on each
        A_j and on each N + B_j whose two values add up to the same c_0 on
        every block with both parts nonempty.  An extension S|F adds w to
        that total off its slot, so on slot j X_j = sum w [e in S] on A_j
        and Y_j = sum w [e in F] on B_j must be constant, and X_j + Y_j -
        W_j, W_j = sum w, the same kappa on every such block: 0 on an
        empty slot.  The weighted sum then reads c_j = d_j + sum_(j' > j)
        W_j' on A_j and c_0 - c_j = Y_j + sum_(j' < j) W_j' on N + B_j, for
        c_0 = kappa + sum_j W_j, so d_j = X_j where A_j is nonempty and
        d_j = W_j - Y_j + kappa where it is empty (`_lambda`)."""
        blocks, slots = self._slots(tau, weights)
        steps, kappa = [], None
        for j, parts in slots.items():
            A, B = blocks[j]
            x = _sum_on(A, [(S, w) for (S, _), w in parts])
            y = _sum_on(B, [(F, w) for (_, F), w in parts])
            if x is None or y is None:
                return None
            W = sum(w for _, w in parts)
            if A and B:
                if kappa is None:
                    kappa = x + y - W
                elif x + y - W != kappa:
                    return None
            steps.append((j, x if A else W - y, W))
        if kappa:
            for j, (A, B) in enumerate(blocks):
                if not A:
                    steps.append((j, kappa, 0))
                elif B and j not in slots:
                    return None
        return _lambda(len(tau), steps)


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
    Returns a list of violating cones, and raises ConeNotInFan for a key
    that is not a dim-cone of the fan.  It writes nothing to the fan."""
    if dim < 0 or dim > fan.top_dim:
        raise DimensionMismatch("no cones of dimension %d" % dim)
    for c in values:
        if c not in fan.cones or len(c) != dim:
            raise ConeNotInFan("weight on %r, not a %d-cone of this fan"
                               % (c, dim))
    weights = {c: v if type(v) is int else Fraction(v)
               for c, v in values.items() if v}
    return [tau for tau in fan.cones_of_dim(dim - 1)
            if fan._relation(tau, weights) is None]
