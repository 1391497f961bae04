"""Finite-dimensional graded ring models.

A model exposes: top (the socle degree), dim(k), mult_matrix(d, w, k),
the matrix of multiplication by the degree-d element w from degree k to
degree k+d (rows first, one column per degree-k basis element), and deg(v)
on top-degree vectors.  mult_matrix returns the scaled form (A, den) of
linalg: A a list of int rows and den a positive int, the matrix being
A / den.  Element vectors (w, v and everything multiply returns) are
Fractions.  Every model derives from GradedModel, which reads
multiply(k1, v1, k2, v2), unit() and the Gram matrices gram(k), in the
same scaled form, off mult_matrix; a fan model holds the Grams it builds
with its graded basis, and a bundle ring assembles them from the Grams of
its base.  A fan model also reads the form (x, y) -> deg(w x y) of a
divisor w off the pairings it holds (divisor_form).  Everything
downstream (bundle rings, annihilator quotients, the Kahler checks) is
written against this interface only, and reads the scaled form as it is.
"""

from fractions import Fraction
from itertools import accumulate
from math import lcm

from . import linalg
from .chow import (ChowElement, DegreeTooLow, FanMismatch, _pairing_matrix,
                   _times, multiply_by_monomial)


class RingError(Exception):
    pass


class SingularGram(RingError):
    pass


class AllSegreZero(RingError):
    pass


_ZERO = Fraction(0)


def _zeros(n):
    return [_ZERO] * n


class GradedModel:
    """The part of the model interface that every model reads off its own
    mult_matrix: the product of two vectors and the unit class."""

    def multiply(self, k1, v1, k2, v2):
        """v1 * v2 in degree k1 + k2: multiplication by v1 applied to v2."""
        return linalg.scaled_mat_vec(self.mult_matrix(k1, v1, k2), v2)

    def unit(self):
        return [Fraction(1)]

    def gram(self, k):
        """The Gram matrix G_k of the degree-k basis against the
        complementary one, in the scaled form (A, den): column j holds the
        degrees of the columns of multiplication by the j-th degree-(n-k)
        basis element from degree k, each int column of that matrix's A
        put over its den."""
        n = self.top
        d = self.dim(n - k)
        cols = []
        for j in range(d):
            a, den = self.mult_matrix(
                n - k, [Fraction(int(i == j)) for i in range(d)], k)
            (col,), col_den = linalg.scaled_integer(
                [[self.deg(list(c)) for c in zip(*a)]])
            cols.append((col, den * col_den))
        den = lcm(1, *(col_den for _, col_den in cols))
        return [list(row) for row in zip(*(
            [x * (den // col_den) for x in col] for col, col_den in cols))], den


class FanRingModel(GradedModel):
    """Graded ring model of the Chow ring of a fan.  Basis elements are
    cone monomials, the rows and columns of a nonsingular minor of each
    pairing matrix; `kahler.check_pd` confirms that basis, and Poincare
    duality itself, which makes it span, rests on the theorem for the
    fan's class (`fans.Fan`).  An element is expressed in the basis by
    reading its pairings with the complementary basis cones off the
    pairing matrix and solving against the Gram inverse, all built once
    per pair of complementary degrees and kept per degree as ints over one
    denominator.  Multiplication by w is the sum of w_j T_j, where T_j
    multiplies by the j-th basis monomial; each T_j is built on first use,
    one product of basis monomials per column, and kept as integer columns
    over one denominator.  Multiplication out of degree 0 and the form of
    a divisor read w and the pairing rows directly, with no T_j."""

    def __init__(self, fan):
        self.fan = fan
        n = self.top = fan.top_dim
        self._basis = {}
        self._gram = {}
        self._pairing_rows = {}
        self._solve = {}
        self._monomials = {}
        for k in range(n // 2 + 1):
            cones, cocones, mat = _pairing_matrix(fan, k)
            rows, cols = linalg.basis_minor(mat)
            gram = [[mat[i][j] for j in cols] for i in rows]
            gram_t = [list(col) for col in zip(*gram)]
            inv, inv_den = linalg.scaled_inverse(gram_t)
            # degree n-k reads the columns of M_k and the rows of the inverse
            sides = [(k, cones, rows, gram,
                      [[x[j] for j in cols] for x in mat],
                      [list(col) for col in zip(*inv)])]
            if 2 * k < n:
                sides.append((n - k, cocones, cols, gram_t,
                              list(zip(*(mat[i] for i in rows))), inv))
            for d, d_cones, picked, d_gram, pairings, inv_cols in sides:
                pairings, den = linalg.scaled_integer(pairings)
                self._basis[d] = [d_cones[i] for i in picked]
                self._gram[d] = d_gram
                self._pairing_rows[d] = {
                    s: [(j, x) for j, x in enumerate(r) if x]
                    for s, r in zip(d_cones, pairings)}, den
                self._solve[d] = inv_cols, inv_den

    def dim(self, k):
        return len(self._basis[k]) if 0 <= k <= self.top else 0

    def basis_cones(self, k):
        return self._basis[k]

    def _pairings(self, elem):
        """(p, den): the pairings of elem with the complementary basis are
        the ints p[j] over den, read off the pairing rows of its terms;
        the j it does not reach are absent."""
        rows, den = self._pairing_rows[elem.degree]
        (coeffs,), scale = linalg.scaled_integer([list(elem.terms.values())])
        p = {}
        for sigma, c in zip(elem.terms, coeffs):
            for j, y in rows[sigma]:
                p[j] = p.get(j, 0) + c * y
        return p, den * scale

    def _coords(self, elem):
        """(x, den): the coordinates of elem are the ints x over den; only
        the columns of the Gram inverse its sparse pairings reach are read."""
        p, den = self._pairings(elem)
        inv_cols, inv_den = self._solve[elem.degree]
        x = [0] * len(inv_cols)
        for j, y in p.items():
            if y:
                x = [a + y * b for a, b in zip(x, inv_cols[j])]
        return x, den * inv_den

    def to_vector(self, elem):
        """Coordinates of a ChowElement in the degree-k basis; above the
        top degree the ring is zero and the coordinates are empty."""
        if elem.fan is not self.fan:
            raise FanMismatch("class and model live on different fans")
        if elem.degree > self.top:
            return []
        x, den = self._coords(elem)
        return [Fraction(a, den) for a in x]

    def mult_matrix(self, d, w, k):
        """The sum of w_j T_j over the nonzero w_j, accumulated over ints
        with the denominators of w and of the T_j cleared once.  From
        degree 0, whose basis is the unit, it is the one column w."""
        rows, cols = self.dim(k + d), self.dim(k)
        if not (rows and cols):
            return [[0] * cols for _ in range(rows)], 1
        (nums,), scale = linalg.scaled_integer([w])
        if k == 0:
            return [[a] for a in nums], scale
        terms = [(a, self._monomial_columns(d, j, k))
                 for j, a in enumerate(nums) if a]
        den = lcm(1, *(t_den for _, (_, t_den) in terms))
        out = [[0] * rows for _ in range(cols)]
        for a, (t_cols, t_den) in terms:
            a *= den // t_den
            for acc, col in zip(out, t_cols):
                for t, x in col:
                    acc[t] += a * x
        return [list(row) for row in zip(*out)], den * scale

    def divisor_form(self, w, k):
        """The form (x, y) -> deg(w x y) of a degree-1 w, for x of degree k
        and y of the complementary degree top-k-1, in the scaled form:
        column b holds the pairings of w x_b, x_b the b-th degree-k basis
        cone, with the degree-(top-k-1) basis.  Each column is one product
        x_b w (`chow._times`) read off the degree-(k+1) pairing rows, so no
        T_j is built and no Gram inverse applied."""
        (nums,), scale = linalg.scaled_integer([w])
        a = {rho: x for (rho,), x in zip(self._basis[1], nums) if x}
        cols = [self._pairings(ChowElement(
            self.fan, k + 1, _times(self.fan, a, [(sigma, 1)])))
            for sigma in self._basis[k]]
        den = lcm(1, *(c_den for _, c_den in cols))
        out = [[0] * len(cols) for _ in range(self.dim(self.top - k - 1))]
        for b, (p, c_den) in enumerate(cols):
            for j, y in p.items():
                out[j][b] = y * (den // c_den)
        return out, den * scale

    def _monomial_columns(self, d, j, k):
        """T_j from degree k as (columns, den): column i holds the nonzero
        coordinates of x_tau x_sigma, as (row, integer) pairs over den, for
        tau the j-th degree-d and sigma the i-th degree-k basis cone.
        Column i is column j of the twin matrix of sigma from degree d, and
        is shared with it when that is built and has the same den."""
        key = d, j, k
        hit = self._monomials.get(key)
        if hit is not None:
            return hit
        tau = self.basis_cones(d)[j]
        cols = []
        for i, sigma in enumerate(self.basis_cones(k)):
            twin = self._monomials.get((k, i, d))
            if twin is None:
                x, den = self._coords(multiply_by_monomial(
                    ChowElement(self.fan, k, {sigma: 1}), tau))
                cols.append(([(t, a) for t, a in enumerate(x) if a], den))
            else:
                cols.append((twin[0][j], twin[1]))
        den = lcm(1, *(c_den for _, c_den in cols))
        hit = self._monomials[key] = (
            [col if c_den == den else [(t, a * (den // c_den)) for t, a in col]
             for col, c_den in cols], den)
        return hit

    def gram(self, k):
        """G_k, the Gram matrix the model holds, in the scaled form."""
        return linalg.scaled_integer(self._gram[k])

    def deg(self, v):
        # the degree-top Gram matrix pairs the basis with the unit class
        return sum(a * row[0] for a, row in zip(v, self._gram[self.top]))


def _block_matrix(rows, cols, blocks):
    """The scaled form of the block matrix with row and column block sizes
    rows and cols whose block (i, j) is the scaled blocks[i, j], zero where
    absent, put over the lcm of the block denominators."""
    den = lcm(1, *(b_den for _, b_den in blocks.values()))
    row0, col0 = (list(accumulate(x, initial=0)) for x in (rows, cols))
    out = [[0] * col0[-1] for _ in range(row0[-1])]
    for (i, j), (block, b_den) in blocks.items():
        f = den // b_den
        for row, b in zip(out[row0[i]:], block):
            row[col0[j]:col0[j + 1]] = b if f == 1 else [f * x for x in b]
    return out, den


class BundleRing(GradedModel):
    """A[zeta] modulo the monic degree-r relation with coefficients c_i.

    Elements of degree k are stored as a list of r base-ring vectors, the
    i-th being the zeta^i coefficient in base degree k-i; out-of-range
    components are empty lists.  The flat coordinate vector used by the
    model interface concatenates these components.

    Since w zeta^j = sum_s w_s zeta^(s+j), multiplication by w is an r x r
    block matrix whose block (i, j) is multiplication on the base by
    u_ij = sum_s w_s [zeta^(s+j)]_i, where [zeta^m]_i is the zeta^i
    coefficient of the reduced power zeta^m.
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
        # the reduced powers zeta^m, as components; below r, zeta^m itself
        self._zeta = [[base.unit() if i == m else _zeros(base.dim(m - i))
                       for i in range(r)] for m in range(r)]

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

    def _reduced_power(self, m):
        """The components of zeta^m, by the companion recursion: zeta^(e-1)
        = sum_i a_i zeta^i gives zeta^e = sum_i a_(i-1) zeta^i - a_(r-1)
        sum_t c_t zeta^(r-t)."""
        r, base = self.r, self.base
        while len(self._zeta) <= m:
            e = len(self._zeta)
            a = self._zeta[-1]
            nxt = [list(a[i - 1]) if i else _zeros(base.dim(e))
                   for i in range(r)]
            if any(a[r - 1]):
                for i in range(r):
                    prod = base.multiply(r - i, self.c[r - i], e - r, a[r - 1])
                    nxt[i] = [u - x for u, x in zip(nxt[i], prod)]
            self._zeta.append(nxt)
        return self._zeta[m]

    def _block_class(self, ws, d, i, j):
        """u_ij = sum_s w_s [zeta^(s+j)]_i, of base degree d+j-i; None when
        every term vanishes."""
        u = None
        for s, w in enumerate(ws):
            z = self._reduced_power(s + j)[i]
            if any(w) and any(z):
                prod = self.base.multiply(d - s, w, s + j - i, z)
                u = prod if u is None else [a + b for a, b in zip(u, prod)]
        return u

    def mult_matrix(self, d, w, k):
        """The r x r blocks of multiplication by w, each the base's scaled
        matrix of u_ij."""
        ws = self.split(d, w)
        rows = [self.base.dim(k + d - i) for i in range(self.r)]
        cols = [self.base.dim(k - j) for j in range(self.r)]
        blocks = {}
        for i in range(self.r):
            for j in range(self.r):
                u = self._block_class(ws, d, i, j) \
                    if rows[i] and cols[j] else None
                if u is not None:
                    blocks[i, j] = self.base.mult_matrix(d + j - i, u, k - j)
        return _block_matrix(rows, cols, blocks)

    def gram(self, k):
        """G_k from the base Grams: block (i, j) pairs b zeta^i against
        b' zeta^j, and deg(b b' zeta^(i+j)) = deg_B(b b' z) for z the
        zeta^(r-1) coefficient of the reduced zeta^(i+j), of base degree
        e = i+j-r+1.  So the block is zero for e < 0, the base Gram of
        degree k-i for e = 0, and that Gram times the base's multiplication
        by z from degree n-k-j above."""
        r, base, n = self.r, self.base, self.top
        rows = [base.dim(k - i) for i in range(r)]
        cols = [base.dim(n - k - j) for j in range(r)]
        blocks = {}
        for i in range(r):
            if not rows[i]:
                continue
            g = None
            for j in range(r - 1 - i, r):
                e = i + j - r + 1
                z = self._reduced_power(i + j)[r - 1]
                if not (cols[j] and any(z)):
                    continue
                if g is None:
                    g = base.gram(k - i)
                blocks[i, j] = g if e == 0 else linalg.scaled_mat_mul(
                    g, base.mult_matrix(e, z, n - k - j))
        return _block_matrix(rows, cols, blocks)

    def deg(self, v):
        comps = self.split(self.top, v)
        return self.base.deg(comps[self.r - 1])

    def lift(self, k, v):
        """pi^*: a base degree-k vector as a bundle-ring vector."""
        return list(v) + _zeros(self.dim(k) - len(v))

    def zeta_power(self, e):
        """The element zeta^e, of degree e."""
        return [x for comp in self._reduced_power(e) for x in comp]

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
            mat, _ = B.mult_matrix(1, zeta, i)
            rk = linalg.rank(mat)
            if rk != min(B.dim(i), B.dim(i + 1)):
                full_rank = False
                break
        entry = {"lam": lam, "zeta_full_rank": full_rank}
        if full_rank:
            ok = True
            for i in range(0, n - d + 1):
                mat, _ = base.mult_matrix(d, cl[d], i)
                rk = linalg.rank(mat)
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


class QuotientRingModel(GradedModel):
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
            # c = mat_C[R]^-1 mat[R] w, one matrix formed once per degree.
            # mat = A / den, and den cancels from mat_C[R]^-1 mat[R]
            mat, _ = base.mult_matrix(t, self.z, k)
            rows, chosen = linalg.basis_minor(mat)
            proj = linalg.scaled_mat_mul(
                linalg.scaled_inverse([[mat[r][i] for i in chosen]
                                       for r in rows]),
                ([mat[r] for r in rows], 1))
            self._comp[k] = chosen
            self._proj[k] = (proj, len(chosen))
        # deg(a z) for the top basis, read off the last mat; the ratios
        # do not see its den
        raw = [base.deg([row[i] for row in mat]) for i in chosen]
        if raw and raw[0] == 0:
            raise SingularGram("degenerate degree map on the quotient")
        self._degrees = [Fraction(x, raw[0]) for x in raw]

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

    def mult_matrix(self, d, w, k):
        """The projection of multiplication by a representative of w on
        the base, restricted to the complement columns C_k: one product of
        scaled forms."""
        rows, cols = self.dim(k + d), self.dim(k)
        if not (rows and cols):
            return [[0] * cols for _ in range(rows)], 1
        full, den = self.base.mult_matrix(d, self._rep(d, w), k)
        restricted = [[row[i] for i in self._comp[k]] for row in full]
        return linalg.scaled_mat_mul(self._proj[k + d][0], (restricted, den))

    def deg(self, v):
        return sum((a * b for a, b in zip(v, self._degrees)), Fraction(0))

