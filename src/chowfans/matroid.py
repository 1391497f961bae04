"""Matroids on the ground set {1, ..., n}, with subsets encoded as bitmasks.

Bit i-1 of a mask stands for element i.  All derived data (rank table,
flats, closure) is computed lazily and cached; instances are immutable
after construction.
"""

from itertools import combinations
from math import comb


class MatroidError(Exception):
    pass


class EmptyBases(MatroidError):
    pass


class UnequalCardinality(MatroidError):
    pass


class ExchangeAxiomViolated(MatroidError):
    pass


class RankOutOfRange(MatroidError):
    pass


class RankZero(MatroidError):
    pass


class LoopyMatroid(MatroidError):
    pass


def set_to_mask(elements):
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def mask_to_set(mask):
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


class Matroid:
    def __init__(self, n, bases, _validated=False):
        if n < 1:
            raise MatroidError("ground set must be nonempty")
        self.n = n
        self.full = (1 << n) - 1
        self.bases = frozenset(bases)
        if not self.bases:
            raise EmptyBases("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) != 1:
            raise UnequalCardinality("bases of different sizes: %s" % sorted(sizes))
        self.r = sizes.pop()
        if not _validated:
            self._check_exchange()
        self._rank_cache = {}
        self._flats = None
        self._closure_cache = {}
        self._biflat_poset = None     # fans.biflat_poset
        self._biflat_lookup = None    # biflags._biflat_lookup

    def _check_exchange(self):
        # for bases A, B and x in A \ B there must be y in B \ A with
        # A - x + y again a basis
        for a in self.bases:
            for b in self.bases:
                diff = a & ~b
                x = diff
                while x:
                    bit = x & -x
                    base = a & ~bit
                    rest = b & ~a
                    y = rest
                    ok = False
                    while y:
                        ybit = y & -y
                        if (base | ybit) in self.bases:
                            ok = True
                            break
                        y &= y - 1
                    if not ok:
                        raise ExchangeAxiomViolated(
                            "exchange fails for bases %s, %s at element %s"
                            % (mask_to_set(a), mask_to_set(b), mask_to_set(bit)[0]))
                    x &= x - 1

    def rank(self, mask):
        if mask in self._rank_cache:
            return self._rank_cache[mask]
        rk = max((b & mask).bit_count() for b in self.bases)
        self._rank_cache[mask] = rk
        return rk

    def closure(self, mask):
        if mask in self._closure_cache:
            return self._closure_cache[mask]
        rk = self.rank(mask)
        out = mask
        rem = self.full & ~mask
        while rem:
            bit = rem & -rem
            if self.rank(mask | bit) == rk:
                out |= bit
            rem &= rem - 1
        self._closure_cache[mask] = out
        return out

    def is_flat(self, mask):
        return self.closure(mask) == mask

    def flats(self):
        """All flats of the matroid, sorted by (rank, mask)."""
        if self._flats is None:
            found = {self.closure(0), self.full}
            frontier = list(found)
            while frontier:
                nxt = []
                for f in frontier:
                    rem = self.full & ~f
                    while rem:
                        bit = rem & -rem
                        g = self.closure(f | bit)
                        if g not in found:
                            found.add(g)
                            nxt.append(g)
                        rem &= rem - 1
                frontier = nxt
            self._flats = tuple(sorted(found, key=lambda f: (self.rank(f), f)))
        return self._flats

    def loops(self):
        return self.closure(0)

    def truncate(self):
        if self.r == 0:
            raise RankZero("cannot truncate a rank-0 matroid")
        sub = set()
        for b in self.bases:
            m = b
            while m:
                bit = m & -m
                sub.add(b & ~bit)
                m &= m - 1
        return Matroid(self.n, sub, _validated=True)

    def delete_loops(self):
        """Remove loops; returns (loopless matroid, old-to-new element map)."""
        loops = self.loops()
        if loops == 0:
            return self, {e: e for e in range(1, self.n + 1)}
        keep = [e for e in range(1, self.n + 1) if not (loops >> (e - 1)) & 1]
        relabel = {e: i + 1 for i, e in enumerate(keep)}
        def remap(mask):
            out = 0
            for e in keep:
                if (mask >> (e - 1)) & 1:
                    out |= 1 << (relabel[e] - 1)
            return out
        bases = {remap(b) for b in self.bases}
        return Matroid(len(keep), bases, _validated=True), relabel

    def __repr__(self):
        return "Matroid(n=%d, r=%d, %d bases)" % (self.n, self.r, len(self.bases))

    def __eq__(self, other):
        return isinstance(other, Matroid) and self.n == other.n and self.bases == other.bases

    def __hash__(self):
        return hash((self.n, self.bases))


def matroid_from_bases(n, bases):
    masks = []
    for b in bases:
        m = b if isinstance(b, int) else set_to_mask(b)
        if m & ~((1 << max(n, 0)) - 1):
            raise MatroidError("basis %r not contained in [%d]" % (b, n))
        masks.append(m)
    return Matroid(n, masks)


def matroid_uniform(r, n):
    if not 0 <= r <= n:
        raise RankOutOfRange("need 0 <= r <= n, got r=%d, n=%d" % (r, n))
    bases = [set_to_mask(c) for c in combinations(range(1, n + 1), r)]
    return Matroid(n, bases, _validated=True)


def matroid_from_graph(edges):
    """Graphic matroid; edges are (u, v) pairs labeled 1..len(edges) in order.
    Its bases are the forests of spanning-forest size, which the edges alone
    fix."""
    rk = _forest_rank(edges)
    found = [set_to_mask([i + 1 for i in combo])
             for combo in combinations(range(len(edges)), rk)
             if _forest_rank([edges[i] for i in combo]) == rk]
    return Matroid(len(edges), found, _validated=True)


def _forest_rank(edge_list):
    """Spanning-forest size: the merges of union-find over the vertices the
    edges touch; the edges are a forest iff it equals their number."""
    parent = {}
    merges = 0
    for u, v in edge_list:
        # find the roots of u and v, halving their paths
        while parent.setdefault(u, u) != u:
            parent[u] = u = parent[parent[u]]
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            merges += 1
    return merges


# The most elements (a matroid keeps n-bit masks), and the most subsets
# or pairs matroid_from_json lets a descriptor make it enumerate: K7 tests
# 54,264 edge subsets in about 0.2 s and K8 1,184,040 in about 5 s; the
# exchange check visits 11.8 M pairs of 3,432 listed bases in about 15 s.
MAX_SUBSETS = 10 ** 5


def _refuse_if(over, what):
    if over:
        raise MatroidError("%s, more than %d" % (what, MAX_SUBSETS))


def _check_subsets(what, n, k):
    """Refuse a ground set of n elements, or C(n, k) subsets, above
    MAX_SUBSETS; `what` has a %s for the count."""
    _refuse_if(n > MAX_SUBSETS, "the ground set has %d elements" % n)
    # for n > 10,000 and 2 <= k <= n - 2, C(n, k) > C(10001, 2) is over the
    # limit, and its digits are left uncomputed
    symbolic = n > 10 ** 4 and 2 <= k <= n - 2
    count = "C(%d, %d)" % (n, k) if symbolic else comb(n, k)
    _refuse_if(symbolic or count > MAX_SUBSETS, what % count)


def _is_int_list(value, length=None):
    return (isinstance(value, list) and all(type(x) is int for x in value)
            and length in (None, len(value)))


def _malformed(what, value):
    return MatroidError("malformed %s: %r" % (what, value))


def matroid_from_json(data):
    """Parse a matroid descriptor dict.

    Accepted forms: {"n": 4, "bases": [[1,2], ...]}, {"uniform": [r, n]},
    {"graph": {"vertices": 5, "edges": [[1,2], ...]}}.  Anything else,
    including ill-typed fields, raises MatroidError, and so does a
    descriptor above MAX_SUBSETS, before any of it is built.
    """
    if not isinstance(data, dict):
        raise _malformed("matroid descriptor, want a JSON object", data)
    if "uniform" in data:
        u = data["uniform"]
        if not _is_int_list(u, 2):
            raise _malformed("uniform, want [r, n]", u)
        r, n = u
        if 0 <= r <= n:  # else matroid_uniform names the bad rank
            _check_subsets("U(%d,%d) has %%s bases" % (r, n), n, r)
        return matroid_uniform(r, n)
    if "graph" in data:
        g = data["graph"]
        if not (isinstance(g, dict) and type(g.get("vertices")) is int
                and isinstance(g.get("edges"), list)):
            raise _malformed('graph, want {"vertices": v, "edges": [...]}', g)
        v = g["vertices"]
        for e in g["edges"]:
            if not (_is_int_list(e, 2) and all(1 <= x <= v for x in e)):
                raise _malformed("edge, want [a, b] in 1..%d" % v, e)
        edges = [tuple(e) for e in g["edges"]]
        _check_subsets("the graph on %d vertices and %d edges has %%s edge "
                       "subsets to test" % (v, len(edges)),
                       len(edges), _forest_rank(edges))
        return matroid_from_graph(edges)
    if "bases" in data:
        n, bases = data.get("n"), data["bases"]
        if type(n) is not int or not isinstance(bases, list):
            raise _malformed('bases descriptor, want {"n": n, "bases": [...]}',
                             data)
        for b in bases:
            if not (_is_int_list(b) and len(set(b)) == len(b)
                    and all(1 <= e <= n for e in b)):
                raise _malformed("basis, want distinct elements of 1..%d" % n,
                                 b)
        _refuse_if(n > MAX_SUBSETS, "the ground set has %d elements" % n)
        distinct = len({set_to_mask(b) for b in bases})
        _refuse_if(distinct ** 2 > MAX_SUBSETS, "the %d listed bases make %d "
                   "pairs to check for exchange" % (distinct, distinct ** 2))
        return matroid_from_bases(n, bases)
    raise MatroidError("unrecognized matroid descriptor: %r" % (sorted(data),))


def pyramid_matroid():
    """Graphic matroid of the wheel-like graph on 5 vertices and 8 edges
    used throughout the tests: a 4-cycle 1,2,3,4 plus spokes 5,6,7,8 to
    an apex vertex."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)]
    return matroid_from_graph(edges)
