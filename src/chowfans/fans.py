"""Simplicial fans with lineality: flag fans of matroids and their
two-sided analogues built from biflags.

Rays are integer vectors in the full ambient space.  Cones are stored as
sorted tuples of ray indices, closed under taking subsets, with the empty
tuple standing for the lineality cone.
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .matroid import LoopyMatroid, mask_to_set, matroid_uniform, popcount


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
    full = (1 << N) - 1
    for S, T in pairs:
        if not is_proper_bisubset(N, S, T):
            raise NotAChain("not a proper bisubset: %s|%s"
                            % (mask_to_set(S), mask_to_set(T)))
    if not is_chain(pairs):
        raise NotAChain("not strictly increasing: %r" % (pairs,))
    ext = [(0, full)] + list(pairs) + [(full, 0)]
    return {j for j in range(len(pairs) + 1) if (ext[j][0] | ext[j + 1][1]) != full}


def is_biflag(N, pairs):
    return bool(gap_indices(N, pairs))


def matroid_gap_indices(M, pairs):
    """Same gap set, via the closure criterion for chains of biflats:
    j is a gap iff closure(S_j^c) is not contained in F_{j+1}."""
    full = M.full
    ext = [(0, full)] + list(pairs) + [(full, 0)]
    out = set()
    for j in range(len(pairs) + 1):
        if M.closure(full & ~ext[j][0]) & ~ext[j + 1][1]:
            out.add(j)
    return out


def proper_biflats(M):
    """All proper biflats S|F of M, sorted by (|S|, -|F|, S, F)."""
    full = M.full
    out = []
    for F in M.flats():
        if F == 0:
            continue
        comp = full & ~F
        # S must contain F^c; the rest of S is any subset of F, but S = [N]
        # is excluded exactly when F = [N]
        subsets = []
        x = F
        while True:
            subsets.append(x)
            if x == 0:
                break
            x = (x - 1) & F
        for extra in subsets:
            S = comp | extra
            if S == 0 or not is_proper_bisubset(M.n, S, F):
                continue
            out.append((S, F))
    out.sort(key=lambda p: (popcount(p[0]), -popcount(p[1]), p[0], p[1]))
    return out


# ---------------------------------------------------------------------------

class Fan:
    def __init__(self, ambient_dim, lineality, rays, ray_labels, cones, family):
        self.ambient_dim = ambient_dim
        self.lineality = [list(v) for v in lineality]
        self.rays = [list(v) for v in rays]
        self.ray_labels = list(ray_labels)
        self.ray_index = {lab: i for i, lab in enumerate(ray_labels)}
        self.cones = set(cones)
        self.family = family
        self.top_dim = max((len(c) for c in self.cones), default=0)
        self.maximal_cones = sorted(c for c in self.cones if len(c) == self.top_dim)
        self.weight = {c: Fraction(1) for c in self.maximal_cones}
        self._extensions = None
        self._mult_cache = {}
        self._dual_cache = {}

    def cones_of_dim(self, k):
        return sorted(c for c in self.cones if len(c) == k)

    def cone_chain(self, cone):
        """Ray labels of a cone in chain order (for flag/biflag fans)."""
        labels = [self.ray_labels[i] for i in cone]
        if labels and isinstance(labels[0], tuple):
            labels.sort(key=lambda p: (popcount(p[0]), -popcount(p[1])))
        else:
            labels.sort(key=popcount)
        return tuple(labels)

    def cone_extensions(self, cone):
        cone = tuple(sorted(cone))
        if cone not in self.cones:
            raise ConeNotInFan("not a cone of this fan: %r" % (cone,))
        if self._extensions is None:
            # sorted order of the cones tau+{i} is ascending order of i
            self._extensions = {}
            for c in sorted(self.cones):
                for j, i in enumerate(c):
                    self._extensions.setdefault(c[:j] + c[j + 1:], []).append(i)
        return self._extensions.get(cone, [])

    def cone_multiplicity(self, cone):
        cone = tuple(sorted(cone))
        if cone not in self.cones:
            raise ConeNotInFan("not a cone of this fan: %r" % (cone,))
        hit = self._mult_cache.get(cone)
        if hit is None:
            rows = self.lineality + [self.rays[i] for i in cone]
            hit = linalg.lattice_index(rows)
            self._mult_cache[cone] = hit
        return hit

    def dual_basis(self, cone):
        """(pivots, dual) for the rows [lineality; rays of cone], cached by
        cone.  pivots are the pivot columns of those rows, and dual[i] is
        the i-th column of the inverse of their pivot block: the functional
        that is 1 on row i and 0 on every other row, given by its values on
        the pivot coordinates and 0 elsewhere.  So the functional vanishing
        on the lineality with values v_j on the rays u_j of the cone is
        sum_j v_j dual[L + j], L the number of lineality rows."""
        hit = self._dual_cache.get(cone)
        if hit is None:
            rows = self.lineality + [self.rays[i] for i in cone]
            try:
                pivots, inv = linalg.pivot_inverse(rows)
            except ValueError:
                raise FanError("cone %r is not simplicial modulo the "
                               "lineality" % (cone,))
            hit = (tuple(pivots), tuple(zip(*inv)))
            self._dual_cache[cone] = hit
        return hit

    def to_json(self):
        def fmt_label(lab):
            if isinstance(lab, tuple):
                return [sorted(mask_to_set(lab[0])), sorted(mask_to_set(lab[1]))]
            return sorted(mask_to_set(lab))
        return {
            "family": self.family,
            "ambient_dim": self.ambient_dim,
            "lineality": self.lineality,
            "rays": self.rays,
            "ray_labels": [fmt_label(l) for l in self.ray_labels],
            "top_dim": self.top_dim,
            "maximal_cones": [list(c) for c in self.maximal_cones],
            "weights": [str(self.weight[c]) for c in self.maximal_cones],
        }


def _indicator(N, mask):
    return [1 if (mask >> i) & 1 else 0 for i in range(N)]


def permutohedral_fan(N):
    """Rays e_S over proper nonempty subsets of [N], cones = chains,
    lineality the all-ones vector.  This is the flag fan of the free
    matroid on [N]."""
    fan = bergman_fan(matroid_uniform(N, N))
    fan.family = "permutohedral"
    return fan


def bergman_fan(M):
    """Rays e_F over proper nonempty flats, cones = flag chains."""
    if M.loops():
        raise LoopyMatroid("bergman fan needs a loopless matroid")
    full = M.full
    labels = [F for F in M.flats() if F not in (0, full)]
    labels.sort(key=lambda F: (popcount(F), F))
    index = {F: i for i, F in enumerate(labels)}
    cones = set()
    def extend(chain):
        cones.add(tuple(sorted(index[F] for F in chain)))
        last = chain[-1] if chain else 0
        for F in labels:
            if F != last and (last & ~F) == 0:
                extend(chain + [F])
    extend([])
    rays = [_indicator(M.n, F) for F in labels]
    return Fan(M.n, [[1] * M.n], rays, labels, cones, "bergman")


def projective_bundle_fan(N, M, family="projective_bundle"):
    """Rays e_{S|F} over proper biflats of M, cones = biflags of M,
    lineality e_{0|[N]} and e_{[N]|0}."""
    if M.n != N:
        raise DimensionMismatch("matroid lives on [%d], not [%d]" % (M.n, N))
    if M.loops():
        raise LoopyMatroid("projective bundle fan needs a loopless matroid")
    full = M.full
    labels = proper_biflats(M)
    index = {p: i for i, p in enumerate(labels)}
    cones = set()
    def extend(chain, last):
        # every chain reached here is a biflag; gap-free chains are pruned
        # because no extension of a gap-free chain can acquire a gap
        cones.add(tuple(sorted(index[p] for p in chain)))
        for p in labels:
            if last is not None and (p == last or not bisubset_leq(last, p)):
                continue
            nxt = chain + [p]
            ext = [(0, full)] + nxt + [(full, 0)]
            if any((ext[j][0] | ext[j + 1][1]) != full for j in range(len(nxt) + 1)):
                extend(nxt, p)
    extend([], None)
    rays = [_indicator(N, S) + _indicator(N, F) for S, F in labels]
    lin = [[0] * N + [1] * N, [1] * N + [0] * N]
    return Fan(2 * N, lin, rays, labels, cones, family)


def bipermutohedral_fan(N):
    return projective_bundle_fan(N, matroid_uniform(N, N), family="bipermutohedral")


def check_balanced(fan, dim, values):
    """Balancing of a rational weight on the dim-cones: around every
    (dim-1)-cone tau, the weighted sum of the extending ray generators must
    lie in span(tau) + lineality.  Returns a list of violating cones."""
    if dim == 0:
        # a weight on the zero cone has nothing to balance against
        return []
    if dim < 0 or dim > fan.top_dim:
        raise DimensionMismatch("no cones of dimension %d" % dim)
    # balancing is invariant under scaling, so clear the denominators once
    # and add up integer vectors
    scale = lcm(*(Fraction(v).denominator for v in values.values()))
    weights = {c: int(Fraction(v) * scale) for c, v in values.items() if v}
    violations = []
    for tau in fan.cones_of_dim(dim - 1):
        total = [0] * fan.ambient_dim
        for rho in fan.cone_extensions(tau):
            w = weights.get(tuple(sorted(tau + (rho,))))
            if w is not None:
                for i, x in enumerate(fan.rays[rho]):
                    total[i] += w * x
        if not any(total):
            continue
        # coordinates of total against [lineality; rays of tau]; total lies
        # in their span exactly when those coordinates reproduce it, which
        # they do on the pivot coordinates by construction
        pivots, dual = fan.dual_basis(tau)
        coords = [sum(f * total[p] for f, p in zip(fi, pivots)) for fi in dual]
        rows = fan.lineality + [fan.rays[i] for i in tau]
        if any(sum(c * row[q] for c, row in zip(coords, rows)) != total[q]
               for q in range(fan.ambient_dim) if q not in pivots):
            violations.append(tau)
    return violations
