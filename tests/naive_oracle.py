"""Independent quotient-ring construction used to cross-check the engine.

Builds the ring directly: all monomials in the ray variables, modulo the
monomials whose support is not a cone and the linear forms coming from
functionals that vanish on the lineality space.  Everything here is
deliberately naive and shares no code with the library beyond the Fan
container itself.

Also the reference Kahler verdicts: Poincare duality, Hard Lefschetz and
Hodge-Riemann checked separately from ranks, kernels and leading minors,
using nothing of a ring model but its graded ring interface.
"""

from fractions import Fraction
from itertools import combinations_with_replacement


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
    lineality generators."""
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
