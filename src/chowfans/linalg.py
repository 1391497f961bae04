"""Exact rational linear algebra helpers.

Everything here works over ``fractions.Fraction`` and plain ints.
Elimination keeps an entry an int as long as every division it meets is
exact, and takes a Fraction otherwise, so integer input that stays
integral is never promoted.  Matrices are lists of lists, rows first.
No floating point is used anywhere in the package.
"""

from fractions import Fraction
from math import lcm


def mat_copy(m):
    return [list(row) for row in m]


def _div(a, b):
    """Exact quotient: an int when b divides a, a Fraction otherwise."""
    return a // b if a % b == 0 else Fraction(a) / b


def row_echelon(m):
    """In-place row echelon form.  Returns the list of pivot columns."""
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
        pv = m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f == 0:
                continue
            ratio = _div(f, pv)
            mi, mr = m[i], m[r]
            for j in range(c, cols):
                mi[j] -= mr[j] * ratio
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(m):
    return len(row_echelon(mat_copy(m)))


def pivot_inverse(rows):
    """(pivots, inv) for a matrix with linearly independent rows: pivots
    are its pivot columns, and inv is the inverse of the square block they
    cut out.  Gauss-Jordan on [rows | I]: once the pivot block is reduced
    to I, the right half is its inverse.  Raises ValueError if the rows
    are dependent."""
    n = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
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
        if pv != 1:
            aug[r] = [_div(v, pv) for v in aug[r]]
        for i in range(n):
            f = aug[i][c]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return pivots, [row[cols:] for row in aug]


def invert(m):
    """Exact inverse of a square matrix; raises ValueError if singular."""
    return pivot_inverse(m)[1]


def mat_mul(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    return [[sum(a[i][k] * bt[j][k] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def _lcd(values):
    return lcm(1, *(x.denominator for x in values))


def scaled_integer(m):
    """(A, den) with A an integer matrix and den the least common
    denominator of the rational matrix m, so that m = A / den."""
    den = _lcd(x for row in m for x in row)
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in m], den


def scaled_mat_vec(scaled, v):
    """m v for scaled = scaled_integer(m), exactly, as Fractions.  The
    denominators of v are cleared once, so the mat-vec runs over ints and
    skips the zero entries of v."""
    a, den = scaled
    scale = _lcd(v)
    w = [(j, x.numerator * (scale // x.denominator))
         for j, x in enumerate(v) if x]
    den *= scale
    return [Fraction(sum(row[j] * x for j, x in w), den) for row in a]


def inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    exactly, by symmetric elimination.  Each step is a congruence, which
    keeps the counts (Sylvester's law of inertia), and splits off one
    nonzero pivot.  When the remaining diagonal is zero but some a_pq is
    not, adding row and column q to row and column p makes it 2*a_pq."""
    w = mat_copy(m)
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
                f, wi = _div(wp[i], wp[p]), w[i]
                for j in live:
                    wi[j] -= f * wp[j]
        positive.append(wp[p] > 0)
    pos = sum(positive)
    return pos, len(positive) - pos, len(w) - len(positive)


def lattice_index(rows):
    """Index of the integer lattice spanned by ``rows`` inside its saturation.

    Computed as the product of the invariant factors of the integer matrix,
    i.e. the gcd of its maximal minors, via a Smith-style reduction.  Rows
    must be linearly independent integer vectors.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 1
    nrows, ncols = len(m), len(m[0])
    index = 1
    r = c = 0
    while r < nrows and c < ncols:
        pr = min(
            ((i, j) for i in range(r, nrows) for j in range(c, ncols) if m[i][j] != 0),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
            default=None,
        )
        if pr is None:
            break
        i0, j0 = pr
        m[r], m[i0] = m[i0], m[r]
        for row in m:
            row[c], row[j0] = row[j0], row[c]
        pivot = m[r][c]
        dirty = False
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                q = m[i][c] // pivot
                m[i] = [m[i][j] - q * m[r][j] for j in range(ncols)]
                if m[i][c] != 0:
                    dirty = True
        for j in range(c + 1, ncols):
            if m[r][j] != 0:
                q = m[r][j] // pivot
                for i in range(r, nrows):
                    m[i][j] -= q * m[i][c]
                if m[r][j] != 0:
                    dirty = True
        if dirty:
            continue
        index *= abs(pivot)
        r += 1
        c += 1
    if r < nrows:
        raise ValueError("rows are linearly dependent")
    return index
