"""Independent quotient-ring construction used to cross-check the engine.

Builds the ring directly: all monomials in the ray variables, modulo the
monomials whose support is not a cone and the linear forms coming from
functionals that vanish on the lineality space.  Everything here is
deliberately naive and shares no code with the library beyond the Fan
container itself.

Also the reference Kahler verdicts: Poincare duality, Hard Lefschetz and
Hodge-Riemann checked separately from ranks, kernels and leading minors,
using nothing of a ring model but its graded ring interface.

Also the graded basis of a fan the long way, by two eliminations of a
pairing matrix built afresh in every degree; and the Fraction references
for the two integer solves of the ring models, `FanRingModel.to_vector`
and the projection of `QuotientRingModel` along the kernel (the scaled
forms in its `_proj`): these take the library's Gram matrices, pairings
and multiplication matrices and replace only the solve, by
`reference_invert` and a plain mat-vec.

Also the reference products of the ring models, built without
`mult_matrix`: cone monomials multiplied by `multiply_elements`, one
monomial of the second factor at a time and one `reference_multiply_by_ray`
per ray of it, for a fan model, and for a
bundle ring the zeta polynomial of the products of the components,
reduced by the relation from its highest power down.

Also the Fraction references for the integer kernels of `linalg`, the
fraction-free echelon form, basis minor and inverse, the lattice index,
the product of scaled forms and the fraction-free inertia: row echelon
form, two eliminations for the basis minor and Gauss-Jordan inverse over
`Fraction`, the gcd of every maximal minor, the plain matrix product and
the inertia by symmetric elimination over `Fraction`.

Also the two fraction-free kernels of `linalg` as they were before each
step rewrote only the rows with a nonzero entry in its pivot column: the
dense Bareiss elimination behind the echelon form, basis minor, lattice
index and scaled inverse, and the dense symmetric elimination behind the
inertia, both multiplying every other row by pv / prev at every step.

Also the Fraction reference of the per-cone kernel of `chow`: the
Adiprasito-Huh-Katz fan-out of a cone monomial times a divisor, the ray
and divisor products, the degree, the pairing walk and the cap product,
all over `Fraction` with classes as plain dicts
cone -> coefficient.  Each cone's dual basis comes from a Gauss-Jordan
over `Fraction` and its extensions from a scan of every ray, so the
kernel's integer arithmetic, its cached extension maps and the chain
reads of flag and biflag fans are all checked against it.  `pair`, the
degree of a class times one cone monomial, runs on the same reference
products.  The balancing
relation around a cone is a Fraction solve against the same dual basis,
and `ReferenceFan` answers the per-cone hooks of `Fan` with these
references, for a fan built from explicit rays and cones.

Also the reference chain searches: the flag and biflag cones of the
Bergman and bundle fans, the gap-free first components and the second
components of the cancellation families, each found by scanning every
label at every step and testing whole chains, with no successor lists;
and the canonical expansion by the same full scan, every proper biflat
inserted where it fits and the whole new chain validated.

Also the Gram matrices of a ring model read off its multiplication
matrices as Fractions, one whole `mult_matrix` per complementary basis
element, and the Chern vectors of a matroid on a Bergman fan model by the
ambient route: computed on perm(N) and restricted cone by cone.

Also the Lefschetz forms as they were built before the forms were pulled
back from the middle one: the powers ell^0..ell^n one multiplication by
ell at a time, and Q_i = G_i P_i for P_i the multiplication by
ell^(n-2i) from degree i, as Fractions.

Also the spanning forests of a graph by the downward size search: from
min(|E|, |V| - 1) edges down, the first size with a forest, each subset
tested by a union-find that stops at its first cycle.

Also the gap set of a chain of biflats by the closure criterion, and the
bundle tower as it was built before one loop served every caller: a
single storey by hand, and more storeys by lifting the later coefficient
lists while the tower is built, then walking `.base` back down and
lifting h and the zetas up again.

Also `pullback_pi1`, a divisor of perm(N) pulled back along the first
projection of a biflag fan, against which the tautological tests read
the structural divisors.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from chowfans.chow import (ChowElement, DegreeMismatch, FanMismatch, divisor,
                           pair_all, ray_coefficients)
from chowfans.biflags import expansion_index, is_lex_decreasing
from chowfans.fans import (Fan, bisubset_leq, gap_indices, is_chain,
                           permutohedral_fan, proper_biflats)
from chowfans.kahler import base_convex_divisor
from chowfans.linalg import scaled_integer, scaled_mat_vec
from chowfans.rings import BundleRing, QuotientRingModel
from chowfans.tautological import chern_classes


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    out = []
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def functionals_vanishing_on(lineality, dim):
    """Basis of linear functionals on the ambient space that kill the
    lineality generators: the right kernel of the matrix they form."""
    if not lineality:
        return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows, pivots = rref(lineality)
    free = [c for c in range(dim) if c not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


class NaiveQuotient:
    def __init__(self, fan):
        self.fan = fan
        self.n = fan.top_dim
        self.nrays = len(fan.rays)
        self.forms = []
        for m in functionals_vanishing_on(fan.lineality, fan.ambient_dim):
            self.forms.append([sum(mi * ri for mi, ri in zip(m, ray))
                               for ray in fan.rays])
        self._deg_cache = {}
        self._top = None

    def monomials(self, k):
        return list(combinations_with_replacement(range(self.nrays), k))

    def relation_rows(self, k):
        monos = self.monomials(k)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for m in monos:
            if tuple(sorted(set(m))) not in self.fan.cones:
                row = [Fraction(0)] * len(monos)
                row[index[m]] = Fraction(1)
                rows.append(row)
        for form in self.forms:
            for lower in self.monomials(k - 1):
                row = [Fraction(0)] * len(monos)
                for rho, c in enumerate(form):
                    if c != 0:
                        m = tuple(sorted(lower + (rho,)))
                        row[index[m]] += c
                rows.append(row)
        return monos, index, rows

    def dim(self, k):
        if k == 0:
            return 1
        if not 0 < k <= self.n:
            return 0
        monos, _, rows = self.relation_rows(k)
        reduced, pivots = rref(rows)
        return len(monos) - len(pivots)

    def _top_reduction(self):
        if self._top is None:
            monos, index, rows = self.relation_rows(self.n)
            reduced, pivots = rref(rows)
            free = [c for c in range(len(monos)) if c not in pivots]
            assert len(free) == 1, "top degree is not one dimensional"
            residual = {}
            for m, i in index.items():
                if i == free[0]:
                    residual[m] = Fraction(1)
                else:
                    row = reduced[pivots.index(i)]
                    residual[m] = -row[free[0]]
            self._top = residual
        return self._top

    def pair(self, sigma, tau, ref, ref_degree):
        """Degree of x_sigma x_tau, normalized so the reference maximal
        cone monomial has the supplied degree."""
        residual = self._top_reduction()
        m = tuple(sorted(sigma + tau))
        return residual[m] / residual[tuple(sorted(ref))] * ref_degree


def _unit(d, j):
    return [Fraction(int(i == j)) for i in range(d)]


def _rank(rows):
    return len(rref(rows)[1])


def _is_positive_definite(m):
    """Sylvester's criterion: elimination without row exchanges meets only
    positive pivots, since a zero or negative pivot witnesses a
    non-positive leading minor."""
    w = [[Fraction(x) for x in row] for row in m]
    for k in range(len(w)):
        if w[k][k] <= 0:
            return False
        for i in range(k + 1, len(w)):
            f = w[i][k] / w[k][k]
            w[i] = [a - f * b for a, b in zip(w[i], w[k])]
    return True


def reference_kahler_report(model, ell):
    """PD, HL and HR verdicts the long way, through the graded ring
    interface alone: the rank of every pairing matrix, the rank of every
    ell^(n-2i), and Sylvester's criterion for the Hodge-Riemann form
    (-1)^i deg(ell^(n-2i) x y) on a kernel basis of ell^(n-2i+1), built
    one entry at a time."""
    n = model.top
    d = [model.dim(k) for k in range(n + 1)]

    def power(k, x, e):
        for step in range(e):
            x = model.multiply(1, ell, k + step, x)
        return x

    def images(i, e):
        # the matrix of ell^e on degree i, rows first
        return [list(r) for r in zip(*[power(i, _unit(d[i], j), e)
                                      for j in range(d[i])])]

    middle = range(n // 2 + 1)
    pd = all(d[k] == d[n - k] and _rank(
        [[model.deg(model.multiply(k, _unit(d[k], a), n - k, _unit(d[k], b)))
          for b in range(d[k])] for a in range(d[k])]) == d[k] for k in middle)
    hl = pd and all(_rank(images(i, n - 2 * i)) == d[i] for i in middle)

    def hr_in_degree(i):
        # in degree 0, ell^(n+1) lands above the top degree and is zero
        if i == 0:
            ker = [_unit(d[0], j) for j in range(d[0])]
        else:
            ker = functionals_vanishing_on(images(i, n - 2 * i + 1), d[i])
        form = [[(-1) ** i * model.deg(power(2 * i, model.multiply(i, p, i, q),
                                             n - 2 * i))
                 for q in ker] for p in ker]
        return _is_positive_definite(form)

    hr = hl and all(hr_in_degree(i) for i in middle)
    return {"pd": pd, "hl": hl, "hr": hr}


def reference_graded_basis(fan, k):
    """The graded basis of FanRingModel in degree k without its mirror:
    the basis cones, the complementary basis cones and the Gram matrix
    from the pairing matrix of the k-cones against the (top-k)-cones, one
    pairing walk per row, with the greedy independent rows and columns
    taken by two separate eliminations."""
    n = fan.top_dim
    rows, cols = fan.cones_of_dim(k), fan.cones_of_dim(n - k)
    mat = []
    for sigma in rows:
        pairings = pair_all(ChowElement(fan, k, {sigma: 1}))
        mat.append([pairings[c] for c in cols])
    basis_rows, basis_cols = reference_basis_minor(mat)
    gram = [[mat[i][j] for j in basis_cols] for i in basis_rows]
    return [rows[i] for i in basis_rows], [cols[j] for j in basis_cols], gram


def reference_basis_minor(m):
    """(rows, cols) for linalg.basis_minor by two separate eliminations:
    the pivot columns of m and the pivot columns of its transpose."""
    return (reference_row_echelon([list(col) for col in zip(*m)]),
            reference_row_echelon([list(row) for row in m]))


def reference_lattice_index(rows):
    """The gcd of all maximal minors of the integer rows, each a Fraction
    determinant, with no early stop; ValueError when they are all zero,
    which is when the rows are dependent."""
    k = len(rows)
    index = 0
    for cols in combinations(range(len(rows[0]) if rows else 0), k):
        minor = [[Fraction(r[j]) for j in cols] for r in rows]
        if len(reference_row_echelon(minor)) == k:
            det = 1
            for i, row in enumerate(minor):
                det *= row[i]
            index = gcd(index, int(det))
    if index == 0:
        raise ValueError("rows are linearly dependent")
    return index


def reference_row_echelon(m):
    """In-place row echelon form over Fraction; returns the pivot columns."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = Fraction(m[r][c])
        for i in range(r + 1, rows):
            f = m[i][c]
            if f != 0:
                ratio = f / pv
                m[i] = [x - y * ratio for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def reference_invert(m):
    """The inverse of a square matrix by Gauss-Jordan over Fraction on
    [m | I]; raises ValueError if m is singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(0)] * n for row in m]
    for i in range(n):
        aug[i][n + i] = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("singular matrix")
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def unscaled(scaled):
    """The Fraction matrix A / den of a scaled form (A, den)."""
    a, den = scaled
    return [[Fraction(x, den) for x in row] for row in a]


def mat_mul(a, b):
    """The product of two matrices, entry by entry, with no zero skipping."""
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    return [[sum(a[i][k] * bt[j][k] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def reference_inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix
    by symmetric elimination over Fraction.  Each step is a congruence and
    splits off one nonzero pivot; when the remaining diagonal is zero but
    some a_pq is not, adding row and column q to row and column p makes it
    2*a_pq."""
    w = [[Fraction(x) for x in row] for row in m]
    live = list(range(len(w)))
    positive = []
    while live:
        p = next((i for i in live if w[i][i] != 0), None)
        if p is None:
            pq = next(((i, j) for i in live for j in live if w[i][j] != 0), None)
            if pq is None:
                break
            p, q = pq
            for j in live:
                w[p][j] += w[q][j]
            w[p][p] += w[p][q]
        # only row p is read from here on, so column p may go stale
        live.remove(p)
        wp = w[p]
        for i in live:
            if wp[i] != 0:
                f, wi = wp[i] / wp[p], w[i]
                for j in live:
                    wi[j] -= f * wp[j]
        positive.append(wp[p] > 0)
    pos = sum(positive)
    return pos, len(positive) - pos, len(w) - len(positive)


def reference_dense_bareiss(m, cols, above):
    """linalg._bareiss with every row rewritten at every step: in place on
    the first cols columns of m, the pivot columns, the last pivot and the
    indices in m of the pivot rows."""
    for i, row in enumerate(m):
        s = lcm(1, *(x.denominator for x in row))
        m[i] = [x.numerator * (s // x.denominator) for x in row]
    rows = len(m)
    order = list(range(rows))
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m.insert(r, m.pop(pr))
            order.insert(r, order.pop(pr))
        y = m[r][c:]
        pv = y[0]
        for i in range(0 if above else r + 1, rows):
            if i != r:
                x = m[i]
                f = x[c]
                x[c:] = ([(pv * a - f * b) // prev for a, b in zip(x[c:], y)]
                         if f else [pv * a // prev for a in x[c:]])
        pivots.append(c)
        prev = pv
        if r + 1 == rows:
            break
    return pivots, prev, order[:len(pivots)]


def reference_dense_inertia(m):
    """linalg.inertia with every remaining row rewritten at every step."""
    w = [row[i:] for i, row in enumerate(scaled_integer(m)[0])]
    prev = 1
    pos = neg = 0

    def full_row(r):
        return [w[k][r - k] for k in range(r)] + w[r]

    while w:
        p = next((i for i, row in enumerate(w) if row[0]), None)
        if p is None:
            pq = next(((i, i + j) for i, row in enumerate(w)
                       for j, x in enumerate(row) if x), None)
            if pq is None:
                break
            p, q = pq
            # column p is read from wp alone, so its stored entries go stale
            wp = [x + y for x, y in zip(full_row(p), full_row(q))]
            wp[p] += wp[q]
        else:
            wp = full_row(p)
        a = wp[p]
        rows = []
        for i, row in enumerate(w):
            if i != p:
                f = wp[i]
                new = ([(a * x - f * y) // prev for x, y in zip(row, wp[i:])]
                       if f else [a * x // prev for x in row])
                if i < p:
                    del new[p - i]
                rows.append(new)
        w = rows
        if (a > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = a
    return pos, neg, len(m) - pos - neg


def reference_coordinates(model, k):
    """FanRingModel.to_vector on degree-k elements: the pairings with the
    complementary basis cones, times the inverse of the transposed Gram
    matrix."""
    cols = model.basis_cones(model.top - k)
    gram = unscaled(model.gram(k))
    inv = reference_invert([list(col) for col in zip(*gram)])
    return lambda elem: _mat_vec(inv, [pair(elem, tau) for tau in cols])


def reference_projection(quotient, k):
    """The projection of QuotientRingModel in degree k, through a full
    change of basis: the greedy unit vectors independent modulo ker(z)
    followed by a kernel basis, inverted whole; the leading rows give the
    coordinates."""
    base = quotient.base
    D = base.dim(k)
    ker = functionals_vanishing_on(
        unscaled(base.mult_matrix(quotient.t, quotient.z, k)), D)
    span, comp = list(ker), []
    for i in range(D):
        if _rank(span + [_unit(D, i)]) > len(span):
            span.append(_unit(D, i))
            comp.append(i)
    cols = [_unit(D, i) for i in comp] + ker
    inv = reference_invert([list(row) for row in zip(*cols)])[:len(comp)]
    return lambda w: _mat_vec(inv, w)


def _reference_times_monomial(fan, terms, cone):
    """The terms of x_cone times the class with the given terms, one
    `reference_multiply_by_ray` per ray of cone."""
    for rho in cone:
        terms = reference_multiply_by_ray(fan, terms, rho)
    return terms


def multiply_elements(e1, e2):
    """The product of two ChowElements of one fan: e1 times each cone
    monomial of e2, one `reference_multiply_by_ray` per ray, summed."""
    if e1.fan is not e2.fan:
        raise FanMismatch("elements on different fans")
    out = {}
    for cone, c in e2.terms.items():
        _reference_accumulate(out, c, _reference_times_monomial(
            e1.fan, e1.terms, cone).items())
    return ChowElement(e1.fan, e1.degree + e2.degree, out)


def pair(elem, tau):
    """deg(elem x_tau) as a Fraction: the `reference_degree` of elem times
    x_tau, one `reference_multiply_by_ray` per ray of tau."""
    fan = elem.fan
    if elem.degree + len(tau) != fan.top_dim:
        raise DegreeMismatch("pairing degrees %d + %d != %d"
                             % (elem.degree, len(tau), fan.top_dim))
    return reference_degree(fan, _reference_times_monomial(
        fan, elem.terms, tau))


def reference_pivot_inverse(rows):
    """(pivots, inv) for linearly independent rows: their pivot columns
    and the inverse of the block those cut out, by Gauss-Jordan over
    Fraction on [rows | I], each pivot row divided by its pivot.  The
    functionals dual to the rows are the columns of inv."""
    n = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            f = aug[i][c]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return pivots, [row[cols:] for row in aug]


@lru_cache(maxsize=None)
def _reference_dual_basis(fan, cone):
    """(pivots, the functionals dual to the rows of the lineality and the
    rays of cone), by Gauss-Jordan over Fraction, kept per fan and cone
    for the life of the tests."""
    pivots, inv = reference_pivot_inverse(
        fan.lineality + [fan.rays[i] for i in cone])
    return pivots, list(zip(*inv))


def reference_functional(fan, cone, values):
    """The functional vanishing on the lineality with m(u_j) = values[j]
    on the j-th ray of cone and 0 off the pivot coordinates, as a list of
    Fractions over the ambient coordinates: `Fan._functional`."""
    pivots, dual = _reference_dual_basis(fan, cone)
    m = [Fraction(0)] * fan.ambient_dim
    for f, v in zip(dual[len(fan.lineality):], values):
        for p, x in zip(pivots, f):
            m[p] += Fraction(v) * x
    return m


def reference_weighted_sum(fan, tau, values):
    """The sum of w u_rho over the rays rho extending the cone tau, found
    by a scan, for w = values[tau + {rho}], as a list of Fractions."""
    total = [Fraction(0)] * fan.ambient_dim
    for rho, u in enumerate(fan.rays):
        key = tuple(sorted(tau + (rho,)))
        w = values.get(key, 0) if rho not in tau and key in fan.cones else 0
        if w:
            total = [t + w * x for t, x in zip(total, u)]
    return total


def reference_relation(fan, tau, values):
    """The relation of `Fan._relation` by a Fraction solve: the
    coefficients of `reference_weighted_sum` on the rows of the lineality
    and the rays of tau, read off the pivot coordinates through the dual
    basis, as a tuple of Fractions over the rays of tau; None if those
    coefficients do not give the sum back."""
    total = reference_weighted_sum(fan, tau, values)
    rows = fan.lineality + [fan.rays[i] for i in tau]
    pivots, dual = _reference_dual_basis(fan, tau)
    coefs = [sum((x * total[p] for p, x in zip(pivots, f)), Fraction(0))
             for f in dual]
    back = [sum((c * row[i] for c, row in zip(coefs, rows)), Fraction(0))
            for i in range(fan.ambient_dim)]
    if back != total:
        return None
    return tuple(coefs[len(fan.lineality):])


class ReferenceFan(Fan):
    """A fan given by its rays and cones that answers the two per-cone
    hooks of `Fan` by the references above: `reference_functional` and
    `reference_relation`.  As for any subclass, its cones must be
    unimodular and its Chow ring must satisfy Poincare duality, as the fan
    of a smooth complete toric variety does."""

    _functional = reference_functional
    _relation = reference_relation


def reference_fan_out(fan, cone, values, a=None):
    """x_cone * D over Fraction, as (cone + rho, a_rho - m(u_rho)) pairs,
    for m the `reference_functional` of the values on the rays of cone,
    and the rays rho extending cone found by a scan."""
    m = reference_functional(fan, cone, values)
    out = []
    for rho, u in enumerate(fan.rays):
        key = tuple(sorted(cone + (rho,)))
        if rho in cone or key not in fan.cones:
            continue
        coef = Fraction(0 if a is None else a[rho]) - sum(
            x * y for x, y in zip(m, u))
        if coef:
            out.append((key, coef))
    return out


def _reference_accumulate(out, c, pairs):
    for key, coef in pairs:
        v = out.get(key, Fraction(0)) + Fraction(c) * coef
        if v:
            out[key] = v
        else:
            out.pop(key, None)


def reference_multiply_by_ray(fan, terms, rho):
    """The terms of x_rho times the class with the given terms."""
    out = {}
    for cone, c in terms.items():
        if rho in cone:
            _reference_accumulate(out, c, reference_fan_out(
                fan, cone, [int(i == rho) for i in cone]))
        else:
            key = tuple(sorted(cone + (rho,)))
            if key in fan.cones:
                _reference_accumulate(out, c, [(key, Fraction(1))])
    return out


def reference_multiply_by_divisor(fan, terms, a):
    """The terms of the divisor with ray coefficients a times the class."""
    out = {}
    for cone, c in terms.items():
        _reference_accumulate(out, c, reference_fan_out(
            fan, cone, [a[i] for i in cone], a))
    return out


def reference_degree(fan, terms):
    """The degree of a top-dimensional class, as a Fraction: every cone of
    a flag or biflag fan is unimodular, so each adds its coefficient times
    its weight."""
    total = Fraction(0)
    for cone, c in terms.items():
        total += Fraction(c) * fan.weight[cone]
    return total


def reference_pairings(fan, k, terms):
    """(cone, pairing) for the complementary cones the walk over every
    ray reaches from a degree-k class, in the order of the walk."""
    depth = fan.top_dim - k
    nrays = len(fan.rays)

    def walk(cur, prefix, next_ray):
        if len(prefix) == depth:
            if prefix in fan.cones:
                yield prefix, reference_degree(fan, cur)
            return
        for rho in range(next_ray, nrays):
            nxt = reference_multiply_by_ray(fan, cur, rho)
            if nxt:
                yield from walk(nxt, prefix + (rho,), rho + 1)
    return walk(dict(terms), (), 0)


def reference_pair_all(fan, k, terms):
    """Pairings of a degree-k class with every complementary cone."""
    out = {tau: Fraction(0) for tau in fan.cones_of_dim(fan.top_dim - k)}
    out.update(reference_pairings(fan, k, terms))
    return out


def reference_cap_product(fan, dim, values, a):
    """The values of the divisor with ray coefficients a capped with the
    weight with the given values on the dim-cones."""
    out = {}
    for tau in fan.cones_of_dim(dim - 1):
        total = sum((coef * Fraction(values.get(sigma, 0)) for sigma, coef
                     in reference_fan_out(fan, tau, [a[i] for i in tau], a)),
                    Fraction(0))
        if total:
            out[tau] = total
    return out


def pullback_pi1(D, target):
    """Pull a divisor on the flag fan of [N] back along the first projection
    of a biflag fan: b_{S|T} = a_S, and 0 on the rays e_{[N]|T}, which map
    to the lineality of the base fan."""
    fan = D.fan
    full = (1 << fan.ambient_dim) - 1
    a = ray_coefficients(D)
    return divisor(target, [0 if S == full else a[fan.ray_index[S]]
                            for S, _ in target.ray_labels])


def reference_multiply(model, k1, v1, k2, v2):
    """v1 * v2 in degree k1 + k2 of a fan model, a bundle ring over one, or
    an annihilator quotient of one, without any multiplication matrix."""
    if k1 + k2 > model.top:
        return []
    if isinstance(model, BundleRing):
        return _reference_bundle_multiply(model, k1, v1, k2, v2)
    if isinstance(model, QuotientRingModel):
        w = reference_multiply(model.base, k1, model._rep(k1, v1),
                               k2, model._rep(k2, v2))
        return scaled_mat_vec(model._proj[k1 + k2][0], w)
    e1, e2 = (ChowElement(model.fan, k, dict(zip(model.basis_cones(k), v)))
              for k, v in ((k1, v1), (k2, v2)))
    return model.to_vector(multiply_elements(e1, e2))


def _reference_bundle_multiply(B, k1, v1, k2, v2):
    c1 = B.split(k1, v1)
    c2 = B.split(k2, v2)
    poly = {}
    for i in range(B.r):
        if not any(c1[i]):
            continue
        for j in range(B.r):
            if not any(c2[j]):
                continue
            prod = reference_multiply(B.base, k1 - i, c1[i], k2 - j, c2[j])
            if not prod:
                continue
            m = i + j
            cur = poly.get(m)
            poly[m] = list(prod) if cur is None else [
                u + x for u, x in zip(cur, prod)]
    return _reference_reduce(B, k1 + k2, poly)


def _reference_reduce(B, k, poly):
    """Reduce a dict zeta-power -> base vector (of degree k - power) by
    zeta^m = -sum_t c_t zeta^(m-t), from the highest power down, and
    concatenate the components 0..r-1."""
    work = dict(poly)
    for m in range(max(poly, default=0), B.r - 1, -1):
        a = work.pop(m, None)
        if a is None or not any(a):
            continue
        for t in range(1, B.r + 1):
            prod = reference_multiply(B.base, t, B.c[t], k - m, a)
            if not prod:
                continue
            cur = work.get(m - t)
            work[m - t] = [-x for x in prod] if not cur else [
                u - x for u, x in zip(cur, prod)]
    out = []
    for i in range(B.r):
        out.extend(work.get(i) or [Fraction(0)] * B.base.dim(k - i))
    return out


def _above(p, q):
    """q is strictly above p in the bisubset order."""
    return p != q and (p[0] & ~q[0]) == 0 and (q[1] & ~p[1]) == 0


def _gaps(full, chain):
    ext = [(0, full)] + list(chain) + [(full, 0)]
    return [j for j in range(len(chain) + 1)
            if (ext[j][0] | ext[j + 1][1]) != full]


def reference_graph_bases(vertices, edges):
    """The spanning forests of the graph as bitmasks, edge i as bit i - 1:
    every subset of the largest size, from min(|E|, |V| - 1) down, that
    has a forest; size 0 always has the empty one."""
    for size in range(min(len(edges), max(vertices - 1, 0)), -1, -1):
        found = {sum(1 << i for i in combo)
                 for combo in combinations(range(len(edges)), size)
                 if _is_forest([edges[i] for i in combo])}
        if found:
            return found


def _is_forest(edge_list):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def reference_bergman_cones(M):
    """The cones of the Bergman fan of M: flags of proper nonempty flats,
    as index tuples into the flats sorted by (size, mask)."""
    labels = sorted((F for F in M.flats() if F not in (0, M.full)),
                    key=lambda F: (F.bit_count(), F))
    index = {F: i for i, F in enumerate(labels)}
    cones = set()

    def extend(chain):
        cones.add(tuple(sorted(index[F] for F in chain)))
        last = chain[-1] if chain else 0
        for F in labels:
            if F != last and (last & ~F) == 0:
                extend(chain + [F])
    extend([])
    return cones


def reference_bundle_cones(M):
    """The cones of the bundle fan of M: chains of proper biflats with a
    gap, each tested as a whole chain (`_gaps`), as index tuples into
    `proper_biflats(M)`.  A depth-first scan of the labels in order, so
    the list is in the DFS pre-order of `fans.walk_chains`, the empty
    chain first."""
    labels = proper_biflats(M)
    index = {p: i for i, p in enumerate(labels)}
    cones = []

    def extend(chain):
        cones.append(tuple(index[p] for p in chain))
        for p in labels:
            if chain and not _above(chain[-1], p):
                continue
            if _gaps(M.full, chain + [p]):
                extend(chain + [p])
    extend([])
    return cones


def reference_gap_free_firsts(M, max_len):
    """Chains of proper biflats with no gap before their end, breadth
    first: by length, each length in the order its parents were found."""
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [cur + (p,) for cur in frontier for p in proper_biflats(M)
                    if (not cur or _above(cur[-1], p))
                    and all(g >= len(cur) + 1
                            for g in _gaps(M.full, cur + (p,)))]
        out += frontier
    return out


def reference_seconds(M, first, length):
    """The biflags first + second with |second| = length, first gap at
    len(first) and every index lexicographically decreasing, in the order
    of a depth-first scan of `proper_biflats(M)` that tests whole chains."""
    first = tuple(first)
    full = M.full
    Ss, Fs = first[-1] if first else (0, full)
    cSsc = M.closure(full & ~Ss)
    labels = proper_biflats(M)
    found = []

    def lex_decreasing(second):
        G = [Fs] + [F for _, F in second] + [0]
        for i in range(len(second) + 1):
            rem = cSsc & ~G[i + 1]
            if rem and not G[i] & rem & -rem:
                return False
        return True

    def extend(second):
        if len(second) == length:
            if (Ss | (second[0][1] if second else 0)) != full \
                    and lex_decreasing(second):
                found.append(first + second)
            return
        S0, F0 = second[-1] if second else (first[-1] if first else (0, full))
        for p in labels:
            # p is strictly above S0|F0 (inlined: this loop is the cost),
            # and the first gap sits at len(first): S_s | T_1 != [N]
            if (p[0] & ~S0 or p[1] != F0) and not S0 & ~p[0] \
                    and not p[1] & ~F0 and (second or (Ss | p[1]) != full):
                extend(second + (p,))
    extend(())
    return found


def _insertable(chain, p):
    """The strictly increasing chain with biflat p inserted after the
    members below it, or None if there is none."""
    if p in chain:
        return None
    out = list(chain)
    out.insert(sum(bisubset_leq(q, p) for q in chain), p)
    return out if is_chain(out) else None


def reference_canonical_expansion(split):
    """(e, pos, neg) of `canonical_expansion`, by scanning every proper
    biflat of M, inserting it where it fits and validating the whole new
    chain with `is_chain` and `gap_indices`."""
    assert is_lex_decreasing(split)
    M, full = split.M, split.M.full
    target = split.a - split.l
    _, e = expansion_index(split)
    ebit = 1 << (e - 1)
    chain = split.chain()
    pos, neg = set(), set()
    for U, H in proper_biflats(M):
        rkU = M.rank(full & ~U)
        if rkU < target and (H & ebit) and H != full:
            bucket = pos
        elif rkU >= target and not (H & ebit):
            bucket = neg
        else:
            continue
        new = _insertable(chain, (U, H))
        if new is not None and gap_indices(M.n, new):
            bucket.add(tuple(new))
    return e, pos, neg


def reference_gram(model, k):
    """Pairing matrix of the degree-k basis against the complementary one:
    column j holds the degrees of the columns of multiplication by the
    j-th degree-(n-k) basis element from degree k.  The degree of an int
    column of A is divided by den exactly, as a Fraction."""
    n = model.top
    d = model.dim(n - k)
    cols = []
    for j in range(d):
        a, den = model.mult_matrix(n - k, _unit(d, j), k)
        cols.append([Fraction(model.deg(list(c)), den) for c in zip(*a)])
    return [list(row) for row in zip(*cols)]


def reference_powers(model, ell):
    """ell^0, ..., ell^n as coordinate vectors."""
    out = [model.unit()]
    for k in range(model.top):
        out.append(model.multiply(1, ell, k, out[k]) if k else list(ell))
    return out


def reference_lefschetz_forms(model, ell):
    """Q_i = G_i P_i for i = 0..n//2, G_i the reference Gram and P_i the
    matrix of multiplication by ell^(n-2i) from degree i, as Fractions."""
    n = model.top
    powers = reference_powers(model, ell)
    forms = []
    for i in range(n // 2 + 1):
        gram = reference_gram(model, i)
        forms.append(gram if 2 * i == n else mat_mul(gram, unscaled(
            model.mult_matrix(n - 2 * i, powers[n - 2 * i], i))))
    return forms


def restrict_to_subfan(elem, subfan):
    """Restriction along an inclusion of fans, matching cones by ray label."""
    fan = elem.fan
    assert all(lab in fan.ray_index for lab in subfan.ray_labels)
    out = {}
    for cone, c in elem.terms.items():
        labs = [fan.ray_labels[i] for i in cone]
        try:
            target = tuple(sorted(subfan.ray_index[l] for l in labs))
        except KeyError:
            continue
        if target in subfan.cones:
            out[target] = c
    return ChowElement(subfan, elem.degree, out)


def reference_restricted_chern_vectors(base, M):
    """c_0..c_r of M as coordinate vectors of base, a model of the Chow
    ring of a Bergman fan: computed on the ambient perm(N) and restricted
    to the Bergman fan; above its top degree they are empty."""
    ambient = permutohedral_fan(M.n)
    return [base.unit()] + [
        base.to_vector(restrict_to_subfan(e, base.fan)) if i <= base.top
        else [] for i, e in enumerate(chern_classes(ambient, M)[1:], 1)]


def reference_gap_indices(M, pairs):
    """The gap set of a chain of biflats of M by the closure criterion:
    j is a gap iff closure(S_j^c) is not contained in F_{j+1}, with the
    sentinels 0|[N] below and [N]|0 above."""
    full = M.full
    ext = [(0, full)] + list(pairs) + [(full, 0)]
    out = set()
    for j in range(len(pairs) + 1):
        if M.closure(full & ~ext[j][0]) & ~ext[j + 1][1]:
            out.add(j)
    return out


def reference_bundle_model(base, specs):
    """(model, h, zetas) of the iterated bundle ring over base with one
    storey per coefficient list in specs, c[0] not read: one storey built
    by hand, several by lifting the later lists through each storey as it
    is built, then walking the finished tower down through `.base` and
    lifting h and the zetas up it again."""
    h = base.to_vector(base_convex_divisor(base.fan, base.fan.ambient_dim))
    if len(specs) == 1:
        (c,) = specs
        B = BundleRing(base, len(c) - 1, c[1:])
        return B, B.lift(1, h), [B.zeta()]
    model = base
    pending = [list(spec) for spec in specs]
    for idx, spec in enumerate(pending):
        model = BundleRing(model, len(spec) - 1, spec[1:])
        for later in pending[idx + 1:]:
            later[1:] = [model.lift(i, v) for i, v in enumerate(later[1:], 1)]
    chain = []
    ring = model
    while ring is not base:
        chain.insert(0, ring)
        ring = ring.base
    zetas = []
    for ring in chain:
        zetas = [ring.lift(1, z) for z in zetas] + [ring.zeta()]
        h = ring.lift(1, h)
    return model, h, zetas
