"""Poincare duality, hard Lefschetz, and Hodge-Riemann checks.

All three properties are tested exactly, over the rationals, against any
graded ring model, from one Lefschetz form per degree up to the middle:
the middle form is the middle Gram matrix for an even top degree and,
for an odd one, the form of ell on the middle degree, and each lower one
is its pullback by multiplication by ell, so no degree above the middle
is multiplied into.  Candidate Lefschetz elements for bundle fans are taken
from a small deterministic family of combinations of the pulled-back
permutohedral support class and the relative hyperplane class.
"""

import weakref
from fractions import Fraction
from itertools import accumulate

from . import linalg
from .chow import divisor
from .fans import DimensionMismatch, bergman_fan, permutohedral_fan
from .rings import BundleRing, FanRingModel
from .tautological import chern_classes


class KahlerError(Exception):
    pass


class MissingConvexClass(KahlerError):
    pass


_MIDDLE = weakref.WeakKeyDictionary()


def _pd_grams(model):
    """(pd, G_m, inertia) for m = n//2, once per model, which does not
    change after it is built: whether Poincare duality holds, that is
    whether each Gram matrix G_0..G_m is square and nonsingular; the middle
    Gram G_m in the scaled form (A, den) that model.gram returns; and for
    even n its inertia, which is that of every candidate's middle form
    (None for odd n).  The memo holds models weakly and sets no attribute
    on them, since a model is any object with the graded ring interface."""
    if model in _MIDDLE:
        return _MIDDLE[model]
    n = model.top
    m = n // 2
    pd = all(model.dim(k) == model.dim(n - k) for k in range(m + 1))
    for k in range(m):
        if not pd:
            break
        pd = linalg.rank(model.gram(k)[0]) == model.dim(k)
    middle = model.gram(m)
    inertia = None
    if n % 2:
        pd = pd and linalg.rank(middle[0]) == model.dim(m)
    elif pd:
        inertia = linalg.inertia(middle[0])
        pd = inertia[2] == 0
    hit = _MIDDLE[model] = pd, middle, inertia
    return hit


def _forms(model, ell):
    """Q_0..Q_m for m = n//2, Q_i the matrix of the form (x, y) ->
    deg(ell^(n-2i) x y) on degree i, each in the scaled form (A, den) with
    den > 0, whether or not Poincare duality holds.  The middle form Q_m is
    G_m for even n.  For odd n a fan model reads it off its pairing rows
    (FanRingModel.divisor_form), and any other model forms G_m L_m from
    the memoized G_m, L_k being multiplication by ell from degree k.
    Below it Q_i = L_i^T Q_(i+1) L_i, since
    deg(ell^(n-2i) x y) = deg(ell^(n-2i-2) (ell x) (ell y)).  So Q_i is Q_m
    pulled back along N_i = L_(m-1)...L_i, and only the degrees up to the
    middle are read.  Each product is one scaled_mat_mul, with the sparse
    transpose on the left.  An ell of another length than dim A^1 raises
    DimensionMismatch."""
    _check_degree_one(model, ell, "ell")
    _, middle, _ = _pd_grams(model)
    n = model.top
    m = n // 2
    if n % 2 == 0:
        q = middle
    elif isinstance(model, FanRingModel):
        q = model.divisor_form(ell, m)
    else:
        q = linalg.scaled_mat_mul(middle, model.mult_matrix(1, ell, m))
    forms = [q]
    for i in reversed(range(m)):
        step = model.mult_matrix(1, ell, i)
        q = linalg.scaled_mat_mul(
            linalg.scaled_mat_mul(_transpose(step), q), step)
        forms.append(q)
    return forms[::-1]


def _check_degree_one(model, vec, name):
    if len(vec) != model.dim(1):
        raise DimensionMismatch("%s has %d coordinates, but A^1 has "
                                "dimension %d"
                                % (name, len(vec), model.dim(1)))


def _transpose(scaled):
    a, den = scaled
    return [list(col) for col in zip(*a)], den


def _report(model, forms):
    """PD, HL and HR verdicts from the exact inertia (pos, neg, zero) of
    each form of _forms; all false, the forms unread, without Poincare
    duality.  A positive den does not change the inertia of A / den, so
    the integer A is eliminated; the middle form of an even-degree model
    is its Gram, whose inertia is memoized.  Given PD, HL holds in degree i
    exactly when Q_i is nonsingular, and by the Lefschetz decomposition HR
    holds in degrees j <= i exactly when each Q_j has signature
    sum_{k<=j} (-1)^k (d_k - d_{k-1}), d_k - d_{k-1} being the dimension
    of the primitive part in degree k (Adiprasito-Huh-Katz, Ann. Math.
    2018, section 7)."""
    pd, _, middle = _pd_grams(model)
    if not pd:
        return {"pd": False, "hl": False, "hr": False}
    n = model.top
    inertias = [middle if 2 * i == n else linalg.inertia(a)
                for i, (a, _) in enumerate(forms)]
    hl = all(zero == 0 for _, _, zero in inertias)
    steps = [(-1) ** i * (model.dim(i) - (model.dim(i - 1) if i else 0))
             for i in range(n // 2 + 1)]
    hr = hl and all(pos - neg == sig for (pos, neg, _), sig
                    in zip(inertias, accumulate(steps)))
    return {"pd": True, "hl": hl, "hr": hr}


def check_pd(model):
    """Every graded pairing matrix must be square and invertible."""
    return _pd_grams(model)[0]


def kahler_report(model, ell):
    """PD, HL and HR verdicts for ell (see _report).  The forms of a model
    without Poincare duality are not built."""
    return _report(model, _forms(model, ell) if check_pd(model) else None)


def permutohedral_support_values(N, S):
    """Value of the standard permutohedron support function on e_S: the sum
    of the |S| largest of 1..N."""
    k = S.bit_count()
    return Fraction(sum(range(N - k + 1, N + 1)))


def base_convex_divisor(fan, N):
    """The permutohedral support class on a flag fan of subsets of [N],
    the fan of a base ring: a_S = permutohedral_support_values(N, S)."""
    return divisor(fan, [permutohedral_support_values(N, S)
                         for S in fan.ray_labels])


# The (s, t) weights of s*h + t*zeta candidates, in schedule order.
SCHEDULE = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1, 7)),
            (Fraction(1), Fraction(13)), (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(1, 3)), (Fraction(3), Fraction(2)),
            (Fraction(1), Fraction(5)), (Fraction(5), Fraction(1, 2)))


def candidate_schedule(samples, seed=0):
    """The first samples weights of SCHEDULE from position seed on, cycling
    past its end."""
    return [SCHEDULE[i % len(SCHEDULE)] for i in range(seed, seed + samples)]


def divisor_vector(model, D):
    """Coordinates of a divisor class in the degree-1 basis of a fan model."""
    return model.to_vector(D)


def chern_vectors(base, M, via="identity"):
    """c_0..c_r of M as coordinate vectors of base, a model of the Chow
    ring of a flag fan of subsets; above its top degree they are empty."""
    cs = chern_classes(base.fan, M, via=via)
    return [base.unit()] + [base.to_vector(e) for e in cs[1:]]


def _bundle_tower(base, specs):
    """The iterated bundle ring over base with one storey per coefficient
    list c in specs (c[i] a base vector of degree i; c[0] is not read),
    the convex base class h and the relative hyperplane classes zeta of
    the storeys, bottom first, all as degree-1 vectors of the top storey.
    Each storey lifts through itself the coefficient lists still pending,
    h and the zetas below it."""
    model = base
    h = base.to_vector(base_convex_divisor(base.fan, base.fan.ambient_dim))
    zetas = []
    pending = [list(spec) for spec in specs]
    for idx, spec in enumerate(pending):
        model = BundleRing(model, len(spec) - 1, spec[1:])
        for later in pending[idx + 1:]:
            later[1:] = [model.lift(i, v) for i, v in enumerate(later[1:], 1)]
        h = model.lift(1, h)
        zetas = [model.lift(1, z) for z in zetas] + [model.zeta()]
    return model, h, zetas


def matroid_bundle_model(N, M, phi="identity"):
    """The bundle ring over the permutohedral Chow ring whose coefficients
    are the tautological Chern classes of M, together with the convex base
    class h and the relative hyperplane class, both as degree-1 vectors."""
    base = FanRingModel(permutohedral_fan(N))
    return _bundle_tower(base, [chern_vectors(base, M, via=phi)])


def restricted_multi_bundle_model(base_matroid, bundle_matroids):
    """Iterated bundle ring over the Chow ring of a Bergman fan, with each
    bundle's Chern classes and the convex class h built on the Bergman fan
    itself, which is their restriction from the ambient permutohedral fan
    since restriction to a subfan is a ring map; plus the relative
    hyperplane classes."""
    base = FanRingModel(bergman_fan(base_matroid))
    return _bundle_tower(base, [chern_vectors(base, M)
                                for M in bundle_matroids])


def sample_lefschetz_candidates(model, h, zetas, samples=3, seed=0):
    """Run the full Kahler package on s*h + t*(sum of zetas) candidates.

    h and the zetas are degree-1 coefficient vectors of the model.  Returns
    one report per sample, each tagged with the weights used and whether a
    sign flip was needed.  The forms of each candidate are computed once,
    for the orientation and the report alike.
    """
    _check_degree_one(model, h, "h")
    for z in zetas:
        _check_degree_one(model, z, "zeta")
    reports = []
    for s, t in candidate_schedule(samples, seed):
        vec = [s * a for a in h]
        for z in zetas:
            vec = [a + t * b for a, b in zip(vec, z)]
        _, forms, flipped = _oriented(model, vec)
        rep = _report(model, forms)
        rep["s"] = s
        rep["t"] = t
        rep["flipped"] = flipped
        reports.append(rep)
    return reports


def _oriented(model, vec):
    """(ell, its forms, flipped) for ell = vec or -vec, whichever has a top
    power of positive degree.  deg(ell^n) is the one entry of Q_0, over a
    positive den.  A flip is allowed only for odd n, where each Q_i, of
    degree n-2i in ell, changes sign with ell."""
    forms = _forms(model, vec)
    (d,), = forms[0][0]
    if d == 0:
        raise MissingConvexClass("candidate has degenerate top power")
    if d > 0:
        return list(vec), forms, False
    if model.top % 2 == 0:
        raise MissingConvexClass("top power negative in even degree")
    return [-x for x in vec], [([[-x for x in row] for row in a], den)
                               for a, den in forms], True


def oriented_degree_one(model, vec):
    """Flip the sign of a degree-1 element so its top power has positive
    degree; report whether a flip happened.  Raises if the power is zero."""
    ell, _, flipped = _oriented(model, vec)
    return ell, flipped
