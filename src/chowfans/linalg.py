"""Exact rational linear algebra helpers.

Everything here works over ``fractions.Fraction`` and plain ints.  A
rational matrix m can be carried as its scaled form (A, den), with A an
integer matrix and m = A / den: the products and mat-vecs of scaled forms
run over ints alone.  Elimination never promotes to Fraction: one
fraction-free kernel (Bareiss) scales each row to integers and gives
row_echelon, basis_minor (its pivot columns and pivot rows, from one
pass), lattice_index (a gcd of last pivots, each a maximal minor) and,
run as Gauss-Jordan, the scaled form of the inverse; the inertia is
fraction-free too.  Both eliminations rewrite, at each step, only the
rows with a nonzero entry in the pivot column.  Any other row would only
be multiplied by pv / prev, the step's pivot over the one before; it owes
that factor instead, and the factors of consecutive skipped steps
telescope to one ratio of pivots, multiplied out when the row is next
read.  That division is exact because the true entry is a minor
(Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  The fans build no per-cone
elimination: flag and biflag fans read their products and balancing off
their chains.  lattice_index serves only the `fan` command's
`unimodular` report.  Matrices are lists of lists, rows first.  No
floating point is used anywhere in the package.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def mat_copy(m):
    return [list(row) for row in m]


def _bareiss(m, cols, above):
    """Fraction-free elimination in place on the first cols columns of m;
    returns the pivot columns, the last pivot and the indices in m of the
    pivot rows.  Each row with a Fraction entry is first scaled to
    integers by its least common denominator.  The first remaining row with a nonzero entry in a column
    is moved up to be its pivot row, the others keeping their order.  A
    step on pivot pv, after the previous pivot prev, replaces every row x
    below the pivot row y, and above it too when above is set, by
    (pv x - f y) / prev, for f the entry of x in the pivot column, from
    that column on.  Every entry is then a minor of the scaled m, so the
    division is exact (Bareiss).

    A row with f = 0 would only be multiplied by pv / prev, so it is left
    as it is and owes that factor.  With hist the pivots so far after a
    leading 1, the factors of the steps a row skips telescope: a row last
    rewritten by step s owes hist[t] / hist[s] after step t.  Such a row
    is next rewritten as (pv x - f y) / hist[s] from its stored entries,
    which is the step on its true entries, and its debt is multiplied out
    before it becomes a pivot row and, at the end, in every row a step
    would still have reached.  Each result is a true entry, a minor, so
    each division is exact.  A debt applies from the pivot column of the
    first skipped step on, as the skipped steps would have; from there to
    the current column the row is zero, since in Gauss-Jordan mode a
    column with no pivot makes the rows above pay their debts, and left of
    it the skipped steps would not have touched the row.

    A row below the pivot row has f = 0 unless it comes after the pivot
    row in m, so every row stays itself plus a combination of the rows
    before it in m; a row that never becomes a pivot ends at zero, so the
    pivot rows are the greedy independent rows of m."""
    for i, row in enumerate(m):
        if not _all_int(row):
            s = _lcd(row)
            m[i] = [x.numerator * (s // x.denominator) for x in row]
    rows = len(m)
    order = list(range(rows))
    done = [0] * rows  # the number of steps each row is current through
    hist = [1]
    pivots = []

    def settle(i):
        d = done[i]
        if d < len(pivots):
            x, h, lo = m[i], hist[d], pivots[d]
            x[lo:] = [a * hist[-1] // h for a in x[lo:]]
            done[i] = len(pivots)

    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            if above:
                for i in range(r):
                    settle(i)
            continue
        if pr != r:
            m.insert(r, m.pop(pr))
            order.insert(r, order.pop(pr))
            done.insert(r, done.pop(pr))
        settle(r)
        # the step on its own pivot does not change the pivot row
        done[r] = r + 1
        y = m[r][c:]
        pv = y[0]
        for i in range(0 if above else r + 1, rows):
            x = m[i]
            f = x[c]
            if f and i != r:
                h = hist[done[i]]
                x[c:] = [(pv * a - f * b) // h for a, b in zip(x[c:], y)]
                done[i] = r + 1
        pivots.append(c)
        hist.append(pv)
        if r + 1 == rows:
            break
    for i in range(0 if above else len(pivots), rows):
        settle(i)
    return pivots, hist[-1], order[:len(pivots)]


def row_echelon(m):
    """In-place row echelon form: m is overwritten with the integer echelon
    form of fraction-free elimination.  Returns the list of pivot columns,
    the greedy independent columns, which no row scaling changes."""
    return _bareiss(m, len(m[0]) if m else 0, False)[0]


def rank(m):
    return len(row_echelon(mat_copy(m)))


def basis_minor(m):
    """(rows, cols) of a maximal nonsingular minor of m: the greedy
    independent rows and columns of m, both ascending, from one
    elimination."""
    cols, _, rows = _bareiss(mat_copy(m), len(m[0]) if m else 0, False)
    return sorted(rows), cols


def _lcd(values):
    return lcm(1, *(x.denominator for x in values))


def _all_int(row):
    return all(type(x) is int for x in row)


def scaled_inverse(m):
    """The inverse of a square rational matrix in the scaled form (A, den)
    that scaled_integer gives.  Fraction-free Gauss-Jordan on [m | I]
    leaves d m^-1 in the right half, for d the last pivot; A and den are
    it and d, divided by their gcd.  Raises ValueError if m is singular."""
    n = len(m)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    pivots, d, _ = _bareiss(aug, n, True)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    g = gcd(d, *(a for row in aug for a in row[n:]))
    if d < 0:
        g = -g
    return [[a // g for a in row[n:]] for row in aug], d // g


def scaled_integer(m):
    """(A, den) with A an integer matrix and den the least common
    denominator of the rational matrix m, so that m = A / den.  Rows of
    ints take no part in den."""
    ints = [_all_int(row) for row in m]
    den = _lcd(x for row, i in zip(m, ints) if not i for x in row)
    return [[x * den for x in row] if i
            else [x.numerator * (den // x.denominator) for x in row]
            for row, i in zip(m, ints)], den


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


def scaled_mat_mul(sa, sb):
    """The scaled form (C, den_a den_b) of the product of the matrices
    with scaled forms sa = (A, den_a) and sb = (B, den_b): C = A B over
    ints, one row of B added per nonzero entry of A."""
    a, den_a = sa
    b, den_b = sb
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                acc = [u + x * v for u, v in zip(acc, b[k])]
        out.append(acc)
    return out, den_a * den_b


def inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    exactly, by fraction-free symmetric elimination (Bareiss).  A rational
    m is first scaled by its positive common denominator, which keeps the
    counts.  A step on pivot a, after the previous pivot prev, replaces
    each remaining w_ij by (a w_ij - w_ip w_pj) / prev, an exact division,
    and splits off the pivot a / prev of the rational elimination; it is
    positive when a and prev have the same sign.  Each step is a
    congruence, which keeps the counts (Sylvester's law of inertia).  When
    the remaining diagonal is zero but some w_pq is not, adding row and
    column q to row and column p, a unimodular congruence, makes the pivot
    2 w_pq and keeps the divisions exact.  By symmetry only the upper
    triangle is kept: w[i] holds row i from its diagonal on.

    A row i with w_ip = 0 would only be multiplied by a / prev, so it is
    left as it is and owes that factor.  With hist the pivots so far after
    a leading 1, a row last rewritten by step s owes hist[t] / hist[s]
    after step t, on the whole of row i, the entries kept in the rows
    above it too, so the pivot row's reads from other rows multiply out
    their debts first.  Such a row is next rewritten from its stored
    entries x as (a x - f' y) / hist[s], for y the pivot row and
    f' = f hist[s] / hist[t] the value its true entry f = w_ip had when
    the row was last rewritten.  Both divisions give entries of the
    elimination, integers, so they are exact."""
    w = [row[i:] for i, row in enumerate(scaled_integer(m)[0])]
    done = [0] * len(w)  # the number of steps each row is current through
    hist = [1]
    pos = neg = 0

    def full_row(r):
        g = hist[-1]
        return ([w[k][r - k] * g // hist[done[k]] for k in range(r)]
                + [x * g // hist[done[r]] for x in w[r]])

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
        a, prev, step = wp[p], hist[-1], len(hist)
        rows, steps = [], []
        for i, row in enumerate(w):
            if i != p:
                f = wp[i]
                if f:
                    h = hist[done[i]]
                    f = f * h // prev
                    row = [(a * x - f * y) // h for x, y in zip(row, wp[i:])]
                    steps.append(step)
                else:
                    steps.append(done[i])
                if i < p:
                    del row[p - i]
                rows.append(row)
        w, done = rows, steps
        if (a > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        hist.append(a)
    return pos, neg, len(m) - pos - neg


def lattice_index(rows):
    """Index of the integer lattice spanned by ``rows`` inside its
    saturation: the gcd of the maximal minors of the integer matrix.  Each
    minor is the last pivot of one elimination of the columns it cuts out,
    or 0 when that elimination finds fewer pivots than rows.  The pivot
    columns of the rows come first, and the scan stops once the gcd is 1.
    Rows must be linearly independent integer vectors; a non-integral
    entry, or dependent rows, raise ValueError."""
    if any(x.denominator != 1 for r in rows for x in r):
        raise ValueError("lattice_index needs integer rows")
    k = len(rows)
    if not k:
        return 1
    pivots, index, _ = _bareiss(mat_copy(rows), len(rows[0]), False)
    if len(pivots) < k:
        raise ValueError("rows are linearly dependent")
    index = abs(index)
    for cols in combinations(range(len(rows[0])), k):
        if index == 1:
            break
        found, d, _ = _bareiss([[r[j] for j in cols] for r in rows], k, False)
        if len(found) == k:
            index = gcd(index, d)
    return index
