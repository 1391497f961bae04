"""Finite-dimensional graded ring models.

A model exposes: top (the socle degree), dim(k), multiply(k1, v1, k2, v2)
returning a coefficient vector in degree k1+k2, and deg(v) on top-degree
vectors.  Everything downstream (bundle rings, annihilator quotients, the
Kahler checks) is written against this interface only.
"""

from fractions import Fraction

from . import linalg
from .chow import (ChowElement, DegreeTooLow, _pairing_matrix, graded_basis,
                   multiply_by_monomial)


class RingError(Exception):
    pass


class SingularGram(RingError):
    pass


class AllSegreZero(RingError):
    pass


def _zeros(n):
    return [Fraction(0)] * n


class FanRingModel:
    """Graded ring model of the Chow ring of a supported fan.  Basis
    elements are cone monomials; an element is expressed in the basis by
    reading its pairings with the complementary basis cones off the fan's
    pairing matrix and solving against the Gram inverse, kept per degree
    as an integer matrix over one common denominator, so each solve is an
    integer mat-vec."""

    def __init__(self, fan):
        self.fan = fan
        self.top = fan.top_dim
        self._solve = {}
        self._pairing_rows = {}
        self._mul_cache = {}
        for k in range(self.top + 1):
            _, basis_cols, gram = graded_basis(fan, k)
            cones, cols, mat = _pairing_matrix(fan, k)
            at = {c: j for j, c in enumerate(cols)}
            pick = [at[c] for c in basis_cols]
            self._pairing_rows[k] = {s: [row[j] for j in pick]
                                 for s, row in zip(cones, mat)}
            try:
                self._solve[k] = linalg.scaled_integer(linalg.invert(
                    [list(col) for col in zip(*gram)]))
            except ValueError:
                raise SingularGram("pairing degenerate in degree %d" % k)

    def dim(self, k):
        if not 0 <= k <= self.top:
            return 0
        return len(graded_basis(self.fan, k)[0])

    def basis_cones(self, k):
        return graded_basis(self.fan, k)[0]

    def to_vector(self, elem):
        """Coordinates of a ChowElement in the degree-k basis; above the
        top degree the ring is zero and the coordinates are empty."""
        k = elem.degree
        if k > self.top:
            return []
        rows = self._pairing_rows[k]
        p = [0] * self.dim(k)
        for sigma, c in elem.terms.items():
            p = [x + c * y for x, y in zip(p, rows[sigma])]
        return linalg.scaled_mat_vec(self._solve[k], p)

    def multiply(self, k1, v1, k2, v2):
        k = k1 + k2
        if k > self.top:
            return []
        out = _zeros(self.dim(k))
        for i, a in enumerate(v1):
            if a == 0:
                continue
            for j, b in enumerate(v2):
                if b == 0:
                    continue
                ab = a * b
                for t, x in enumerate(self._basis_product(k1, i, k2, j)):
                    if x:
                        out[t] += ab * x
        return out

    def _basis_product(self, k1, i, k2, j):
        key = (k1, i, k2, j)
        hit = self._mul_cache.get(key)
        if hit is None:
            sigma = self.basis_cones(k1)[i]
            tau = self.basis_cones(k2)[j]
            elem = multiply_by_monomial(
                ChowElement(self.fan, k1, {sigma: Fraction(1)}), tau)
            hit = self.to_vector(elem)
            self._mul_cache[key] = hit
            self._mul_cache[(k2, j, k1, i)] = hit
        return hit

    def deg(self, v):
        # the degree-top Gram matrix pairs the basis with the unit class
        gram = graded_basis(self.fan, self.top)[2]
        return sum(a * row[0] for a, row in zip(v, gram))

    def unit(self):
        return [Fraction(1)]


def model_gram(model, k):
    """Pairing matrix of the degree-k basis against the complementary one."""
    n = model.top
    d1, d2 = model.dim(k), model.dim(n - k)
    out = []
    for i in range(d1):
        ei = _unit_vec(d1, i)
        row = []
        for j in range(d2):
            row.append(model.deg(model.multiply(k, ei, n - k, _unit_vec(d2, j))))
        out.append(row)
    return out


def _unit_vec(n, i):
    v = _zeros(n)
    v[i] = Fraction(1)
    return v


def mult_matrix(model, d, w, k):
    """Matrix of multiplication by the degree-d element w, from degree k to
    degree k+d, columns indexed by the degree-k basis."""
    rows = model.dim(k + d)
    cols = model.dim(k)
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for j in range(cols):
        img = model.multiply(d, w, k, _unit_vec(cols, j))
        for i in range(rows):
            mat[i][j] = img[i]
    return mat


class BundleRing:
    """A[zeta] modulo the monic degree-r relation with coefficients c_i.

    Elements of degree k are stored as a list of r base-ring vectors, the
    i-th being the zeta^i coefficient in base degree k-i; out-of-range
    components are empty lists.  The flat coordinate vector used by the
    model interface concatenates these components.
    """

    def __init__(self, base, r, c):
        self.base = base
        self.r = r
        # c[i] is a base vector of degree i, for 1 <= i <= r
        self.c = [None] + [list(ci) for ci in c]
        if len(self.c) != r + 1:
            raise RingError("need exactly r coefficient classes")
        for i in range(1, r + 1):
            if len(self.c[i]) != base.dim(i):
                raise RingError("coefficient %d has wrong dimension" % i)
        self.top = base.top + r - 1

    def dim(self, k):
        return sum(self.base.dim(k - i) for i in range(self.r))

    def split(self, k, v):
        comps = []
        pos = 0
        for i in range(self.r):
            d = self.base.dim(k - i)
            comps.append(v[pos:pos + d])
            pos += d
        return comps

    def join(self, comps):
        out = []
        for c in comps:
            out.extend(c)
        return out

    def reduce_poly(self, k, poly):
        """Reduce a dict zeta-power -> base vector (of degree k - power)
        modulo the defining relation, returning components 0..r-1."""
        maxp = max(poly) if poly else 0
        work = dict(poly)
        for m in range(maxp, self.r - 1, -1):
            a = work.pop(m, None)
            if a is None or not any(a):
                continue
            deg_a = k - m
            for t in range(1, self.r + 1):
                prod = self.base.multiply(t, self.c[t], deg_a, a)
                if not prod:
                    continue
                tgt = m - t
                cur = work.get(tgt)
                if cur is None or not cur:
                    work[tgt] = [-x for x in prod]
                else:
                    work[tgt] = [u - x for u, x in zip(cur, prod)]
        comps = []
        for i in range(self.r):
            d = self.base.dim(k - i)
            cur = work.get(i)
            comps.append(list(cur) if cur else _zeros(d))
        return comps

    def multiply(self, k1, v1, k2, v2):
        k = k1 + k2
        if k > self.top:
            return []
        c1 = self.split(k1, v1)
        c2 = self.split(k2, v2)
        poly = {}
        for i in range(self.r):
            if not any(c1[i]):
                continue
            for j in range(self.r):
                if not any(c2[j]):
                    continue
                prod = self.base.multiply(k1 - i, c1[i], k2 - j, c2[j])
                if not prod:
                    continue
                m = i + j
                cur = poly.get(m)
                if cur is None:
                    poly[m] = list(prod)
                else:
                    poly[m] = [u + x for u, x in zip(cur, prod)]
        return self.join(self.reduce_poly(k, poly))

    def deg(self, v):
        comps = self.split(self.top, v)
        return self.base.deg(comps[self.r - 1])

    def unit(self):
        return [Fraction(1)]

    def lift(self, k, v):
        """pi^*: a base degree-k vector as a bundle-ring vector."""
        comps = [list(v) if i == 0 else _zeros(self.base.dim(k - i))
                 for i in range(self.r)]
        return self.join(comps)

    def zeta_power(self, e):
        """The element zeta^e, of degree e."""
        if e < self.r:
            comps = []
            for i in range(self.r):
                d = self.base.dim(e - i)
                comps.append(_unit_vec(d, 0) if i == e else _zeros(d))
            return self.join(comps)
        return self.join(self.reduce_poly(e, {e: self.base.unit()}))

    def zeta(self):
        return self.zeta_power(1)

    def pushforward(self, k, v):
        if k < self.r - 1:
            raise DegreeTooLow("pushforward needs degree at least r-1")
        return self.split(k, v)[self.r - 1]


def segre_vectors(model, c, upto):
    """s_0..s_upto in the model from the classes c[1..r]."""
    r = len(c) - 1
    out = [model.unit()]
    for i in range(1, upto + 1):
        acc = _zeros(model.dim(i))
        for j in range(1, min(i, r) + 1):
            prod = model.multiply(j, c[j], i - j, out[i - j])
            acc = [u - x for u, x in zip(acc, prod)]
        out.append(acc)
    return out


def twist_vectors(model, c, delta, lam):
    """The twisted coefficients c_i' after the substitution by lam*delta."""
    from math import comb
    r = len(c) - 1
    d = [Fraction(lam) * x for x in delta]
    out = [model.unit()]
    for i in range(1, r + 1):
        acc = _zeros(model.dim(i))
        for j in range(0, i + 1):
            term = c[i - j]
            deg_t = i - j
            for _ in range(j):
                term = model.multiply(1, d, deg_t, term)
                deg_t += 1
            sign = -1 if j % 2 else 1
            coef = sign * comb(r - i + j, j)
            acc = [u + coef * x for u, x in zip(acc, term)]
        out.append(acc)
    return out


def bloch_gieseker(base, c, delta, lams=(0,)):
    """For each twist parameter, check that every multiplication-by-zeta
    matrix of the bundle ring has full rank, and if so that multiplication
    by c_d on the base has the predicted injectivity/surjectivity ranges;
    for r >= n also record the sign of (-1)^n deg(c_n')."""
    r = len(c) - 1
    n = base.top
    d = min(r, n)
    results = []
    for lam in lams:
        cl = twist_vectors(base, c, delta, lam) if lam != 0 else list(c)
        B = BundleRing(base, r, cl[1:])
        zeta = B.zeta()
        full_rank = True
        for i in range(B.top):
            mat = mult_matrix(B, 1, zeta, i)
            rk = linalg.rank(mat) if mat else 0
            if rk != min(B.dim(i), B.dim(i + 1)):
                full_rank = False
                break
        entry = {"lam": lam, "zeta_full_rank": full_rank}
        if full_rank:
            ok = True
            for i in range(0, n - d + 1):
                mat = mult_matrix(base, d, cl[d], i)
                rk = linalg.rank(mat) if mat else 0
                inj = rk == base.dim(i)
                surj = rk == base.dim(i + d)
                if 2 * i <= n - r and not inj:
                    ok = False
                if 2 * i >= n - r and not surj:
                    ok = False
            entry["cd_rank_conditions"] = ok
        if r >= n:
            val = base.deg(cl[n]) if n >= 1 else base.deg(base.unit())
            entry["sign_value"] = (Fraction(-1) ** n) * val
        results.append(entry)
    return results


def quotient_by_ann_segre(base, c):
    s = segre_vectors(base, c, base.top)
    t = max((i for i in range(base.top + 1) if any(s[i])), default=None)
    if t is None:
        raise AllSegreZero("every Segre class vanishes, including s_0")
    return QuotientRingModel(base, t, s[t])


class QuotientRingModel:
    """base / ann(z) for a fixed degree-t class z, with the induced degree
    map a -> deg(a * z) scaled so that the first top-degree basis element
    has degree 1."""

    def __init__(self, base, t, z):
        self.base = base
        self.t = t
        self.z = list(z)
        self.top = base.top - t
        self._comp = {}
        self._proj = {}
        for k in range(self.top + 1):
            # the complement of ker(mat) takes the greedy independent columns
            # C of mat, and w projects along ker(mat) to the c with
            # mat_C c = mat w; on independent rows R of mat_C that is
            # c = mat_C[R]^-1 mat[R] w, one matrix formed once per degree
            mat = mult_matrix(base, t, self.z, k)
            chosen = linalg.row_echelon(linalg.mat_copy(mat))
            rows, inv_t = linalg.pivot_inverse(
                [[row[i] for row in mat] for i in chosen])
            proj = linalg.mat_mul([list(col) for col in zip(*inv_t)],
                                  [mat[r] for r in rows])
            self._comp[k] = chosen
            self._proj[k] = (linalg.scaled_integer(proj), len(chosen))
        scale = None
        if self.dim(self.top) > 0:
            rep = self._rep(self.top, _unit_vec(self.dim(self.top), 0))
            raw = base.deg(base.multiply(self.top, rep, t, self.z))
            if raw == 0:
                raise SingularGram("degenerate degree map on the quotient")
            scale = 1 / raw
        self._scale = scale

    def dim(self, k):
        if not 0 <= k <= self.top:
            return 0
        return self._proj[k][1]

    def _rep(self, k, v):
        D = self.base.dim(k)
        out = _zeros(D)
        for x, i in zip(v, self._comp[k]):
            out[i] = Fraction(x)
        return out

    def project(self, k, w):
        return linalg.scaled_mat_vec(self._proj[k][0], w)

    def multiply(self, k1, v1, k2, v2):
        k = k1 + k2
        if k > self.top:
            return []
        w = self.base.multiply(k1, self._rep(k1, v1), k2, self._rep(k2, v2))
        return self.project(k, w)

    def deg(self, v):
        rep = self._rep(self.top, v)
        return self._scale * self.base.deg(
            self.base.multiply(self.top, rep, self.t, self.z))

    def unit(self):
        return [Fraction(1)]


def multi_bundle_ring(base, specs):
    """Iterated bundle ring: specs is a list of coefficient lists c with
    c[i] a base-ring vector of degree i; each round lifts the remaining
    coefficient lists through the ring just built."""
    model = base
    pending = [ [list(ci) for ci in spec] for spec in specs ]
    for idx, spec in enumerate(pending):
        r = len(spec) - 1
        model_new = BundleRing(model, r, spec[1:])
        for later in pending[idx + 1:]:
            for i in range(1, len(later)):
                later[i] = model_new.lift(i, later[i])
        # unit entries stay formal
        model = model_new
    return model
