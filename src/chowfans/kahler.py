"""Poincare duality, hard Lefschetz, and Hodge-Riemann checks.

All three properties are tested exactly, over the rationals, against any
graded ring model.  Candidate Lefschetz elements for bundle fans are taken
from a small deterministic family of combinations of the pulled-back
permutohedral support class and the relative hyperplane class.
"""

import weakref
from fractions import Fraction
from itertools import accumulate

from . import linalg
from .chow import DivisorClass
from .rings import model_gram, power_matrix


class KahlerError(Exception):
    pass


class MissingConvexClass(KahlerError):
    pass


_GRAMS = weakref.WeakKeyDictionary()


def _pd_grams(model):
    """The Gram matrices G_0..G_{n//2} of a model, or None when Poincare
    duality fails; once per model, which does not change after it is built.
    The memo holds models weakly and sets no attribute on them, since a
    model is any object with the graded ring interface."""
    if model in _GRAMS:
        return _GRAMS[model]
    n = model.top
    grams = []
    for k in range(n // 2 + 1):
        d = model.dim(k)
        g = model_gram(model, k)
        if d != model.dim(n - k) or (d and linalg.rank(g) != d):
            grams = None
            break
        grams.append(g)
    _GRAMS[model] = grams
    return grams


def lefschetz_inertia(model, ell):
    """Inertia (pos, neg, zero) of Q_i = G_i L_i, the matrix of the form
    (x, y) -> deg(ell^(n-2i) x y) on degree i, for i = 0..n//2; None when
    Poincare duality fails.  Given PD, HL holds in degree i exactly when
    Q_i is nonsingular, and by the Lefschetz decomposition HR holds in
    degrees j <= i exactly when each Q_j has signature
    sum_{k<=j} (-1)^k (d_k - d_{k-1}) (Adiprasito-Huh-Katz, Ann. Math.
    2018, section 7)."""
    grams = _pd_grams(model)
    if grams is None:
        return None
    out = []
    for i, g in enumerate(grams):
        e = model.top - 2 * i
        # power_matrix is [] when the power passes through a zero degree
        power = power_matrix(model, ell, i, e) or [[0] * len(g)] * len(g)
        out.append(linalg.inertia(linalg.mat_mul(g, power) if e else g))
    return out


def check_pd(model):
    """Every graded pairing matrix must be square and invertible."""
    return _pd_grams(model) is not None


def check_hl(model, ell):
    """Given PD, ell^(n-2i) must be a bijection from degree i to n-i."""
    return kahler_report(model, ell)["hl"]


def check_hr(model, ell):
    """Given Hard Lefschetz, (-1)^i deg(ell^(n-2i) x y) must be positive
    definite on the primitive part in each degree i up to the middle."""
    return kahler_report(model, ell)["hr"]


def kahler_report(model, ell):
    """PD, HL and HR verdicts for ell, all read off lefschetz_inertia:
    d_i - d_{i-1} is the dimension of the primitive part in degree i."""
    inertias = lefschetz_inertia(model, ell)
    pd = inertias is not None
    hl = pd and all(zero == 0 for _, _, zero in inertias)
    steps = [(-1) ** i * (model.dim(i) - (model.dim(i - 1) if i else 0))
             for i in range(model.top // 2 + 1)]
    hr = hl and all(pos - neg == sig for (pos, neg, _), sig
                    in zip(inertias, accumulate(steps)))
    return {"pd": pd, "hl": hl, "hr": hr}


def permutohedral_support_values(N, S):
    """Value of the standard permutohedron support function on e_S: the sum
    of the |S| largest of 1..N."""
    k = bin(S).count("1")
    return Fraction(sum(range(N - k + 1, N + 1)))


def base_convex_divisor(fan, N):
    """The pulled-back permutohedral support class on a bundle fan."""
    vals = []
    for label in fan.ray_labels:
        S = label[0] if isinstance(label, tuple) else label
        vals.append(permutohedral_support_values(N, S))
    return DivisorClass(fan, vals)


def candidate_schedule(samples, seed=0):
    """Deterministic (s, t) weights for s*h + t*zeta candidates."""
    base = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(1, 7)),
            (Fraction(1), Fraction(13)), (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(1, 3)), (Fraction(3), Fraction(2)),
            (Fraction(1), Fraction(5)), (Fraction(5), Fraction(1, 2))]
    out = []
    i = seed
    while len(out) < samples:
        out.append(base[i % len(base)])
        i += 1
    return out


def divisor_vector(model, D):
    """Coordinates of a divisor class in the degree-1 basis of a fan model."""
    from .chow import ChowElement
    elem = ChowElement(model.fan, 1,
                       {(rho,): a for rho, a in enumerate(D.coeffs) if a != 0})
    return model.to_vector(elem)


def matroid_bundle_model(N, M, phi="identity", base=None):
    """The bundle ring over the permutohedral Chow ring whose coefficients
    are the tautological Chern classes of M, together with the convex base
    class h and the relative hyperplane class, both as degree-1 vectors."""
    from .fans import permutohedral_fan
    from .rings import BundleRing, FanRingModel
    from .tautological import chern_classes
    if base is None:
        base = FanRingModel(permutohedral_fan(N))
    cs = chern_classes(base.fan, M, via=phi)
    c = [base.to_vector(e) for e in cs[1:]]
    B = BundleRing(base, M.r, c)
    h = B.lift(1, divisor_vector(base, base_convex_divisor(base.fan, N)))
    return B, h, [B.zeta()]


def restricted_multi_bundle_model(base_matroid, bundle_matroids):
    """Iterated bundle ring over the Chow ring of a Bergman fan, with each
    bundle's Chern classes restricted from the ambient permutohedral fan,
    plus the restricted convex class h and the relative hyperplane classes."""
    from .chow import restrict_to_subfan
    from .fans import bergman_fan, permutohedral_fan
    from .rings import BundleRing, FanRingModel
    from .tautological import chern_classes
    N = base_matroid.n
    ambient = permutohedral_fan(N)
    base = FanRingModel(bergman_fan(base_matroid))
    model = base
    chain = []
    zetas = []
    for M in bundle_matroids:
        cs = chern_classes(ambient, M)
        c = []
        for i, e in enumerate(cs[1:], start=1):
            if i > base.top:
                v = []
            else:
                v = base.to_vector(restrict_to_subfan(e, base.fan))
            for ring in chain:
                v = ring.lift(i, v)
            c.append(v)
        ring = BundleRing(model, M.r, c)
        zetas = [ring.lift(1, z) for z in zetas]
        zetas.append(ring.zeta())
        chain.append(ring)
        model = ring
    h = divisor_vector(base, base_convex_divisor(base.fan, N))
    for ring in chain:
        h = ring.lift(1, h)
    return model, h, zetas


def sample_lefschetz_candidates(model, h, zetas, samples=3, seed=0):
    """Run the full Kahler package on s*h + t*(sum of zetas) candidates.

    h and the zetas are degree-1 coefficient vectors of the model.  Returns
    one report per sample, each tagged with the weights used and whether a
    sign flip was needed.
    """
    reports = []
    for s, t in candidate_schedule(samples, seed):
        vec = [s * a for a in h]
        for z in zetas:
            vec = [a + t * b for a, b in zip(vec, z)]
        vec, flipped = oriented_degree_one(model, vec)
        rep = kahler_report(model, vec)
        rep["s"] = s
        rep["t"] = t
        rep["flipped"] = flipped
        reports.append(rep)
    return reports


def oriented_degree_one(model, vec):
    """Flip the sign of a degree-1 element so its top power has positive
    degree; report whether a flip happened.  Raises if the power is zero."""
    n = model.top
    z = list(vec)
    acc = list(vec)
    for k in range(1, n):
        acc = model.multiply(1, z, k, acc)
    d = model.deg(acc) if n >= 1 else model.deg(model.unit())
    if d == 0:
        raise MissingConvexClass("candidate has degenerate top power")
    if d > 0:
        return z, False
    if n % 2 == 0:
        raise MissingConvexClass("top power negative in even degree")
    return [-x for x in z], True
