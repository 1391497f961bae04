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
from .chow import divisor
from .fans import bergman_fan, permutohedral_fan
from .rings import BundleRing, FanRingModel
from .tautological import chern_classes


class KahlerError(Exception):
    pass


class MissingConvexClass(KahlerError):
    pass


_GRAMS = weakref.WeakKeyDictionary()


def _pd_grams(model):
    """The Gram matrices G_0..G_{n//2} of a model, each in the scaled form
    (A, den) that model.gram returns, or None when Poincare duality fails;
    once per model, which does not change after it is built.  The memo
    holds models weakly and sets no attribute on them, since a model is any
    object with the graded ring interface."""
    if model in _GRAMS:
        return _GRAMS[model]
    n = model.top
    grams = []
    for k in range(n // 2 + 1):
        d = model.dim(k)
        g = model.gram(k)
        if d != model.dim(n - k) or (d and linalg.rank(g[0]) != d):
            grams = None
            break
        grams.append(g)
    _GRAMS[model] = grams
    return grams


def _powers(model, ell):
    """ell^0, ..., ell^n as coordinate vectors."""
    out = [model.unit()]
    for k in range(model.top):
        out.append(model.multiply(1, ell, k, out[k]) if k else list(ell))
    return out


def _forms(model, powers):
    """lefschetz_forms from the powers of ell, each Q_i in the scaled form
    (A, den) with den > 0: one integer product of the scaled G_i and the
    scaled P_i that mult_matrix returns."""
    grams = _pd_grams(model)
    if grams is None:
        return None
    n = model.top
    return [g if 2 * i == n else linalg.scaled_mat_mul(
                g, model.mult_matrix(n - 2 * i, powers[n - 2 * i], i))
            for i, g in enumerate(grams)]


def _inertias(model, powers):
    """lefschetz_inertia from the powers of ell; a positive den does not
    change the inertia of A / den, so the integer A is eliminated."""
    forms = _forms(model, powers)
    return None if forms is None else [linalg.inertia(a) for a, _ in forms]


def _report(model, powers):
    """kahler_report from the powers of ell."""
    inertias = _inertias(model, powers)
    pd = inertias is not None
    hl = pd and all(zero == 0 for _, _, zero in inertias)
    steps = [(-1) ** i * (model.dim(i) - (model.dim(i - 1) if i else 0))
             for i in range(model.top // 2 + 1)]
    hr = hl and all(pos - neg == sig for (pos, neg, _), sig
                    in zip(inertias, accumulate(steps)))
    return {"pd": pd, "hl": hl, "hr": hr}


def lefschetz_forms(model, ell):
    """The matrices Q_i = G_i P_i of the forms (x, y) -> deg(ell^(n-2i) x y)
    on degree i, for i = 0..n//2, where P_i is multiplication by
    ell^(n-2i) from degree i; None when Poincare duality fails."""
    forms = _forms(model, _powers(model, ell))
    return None if forms is None else [
        [[Fraction(x, den) for x in row] for row in a] for a, den in forms]


def lefschetz_inertia(model, ell):
    """Inertia (pos, neg, zero) of each Q_i of lefschetz_forms; None when
    Poincare duality fails.  Given PD, HL holds in degree i exactly when
    Q_i is nonsingular, and by the Lefschetz decomposition HR holds in
    degrees j <= i exactly when each Q_j has signature
    sum_{k<=j} (-1)^k (d_k - d_{k-1}) (Adiprasito-Huh-Katz, Ann. Math.
    2018, section 7)."""
    return _inertias(model, _powers(model, ell))


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
    return _report(model, _powers(model, ell))


def permutohedral_support_values(N, S):
    """Value of the standard permutohedron support function on e_S: the sum
    of the |S| largest of 1..N."""
    k = S.bit_count()
    return Fraction(sum(range(N - k + 1, N + 1)))


def base_convex_divisor(fan, N):
    """The pulled-back permutohedral support class on a bundle fan."""
    vals = []
    for label in fan.ray_labels:
        S = label[0] if isinstance(label, tuple) else label
        vals.append(permutohedral_support_values(N, S))
    return divisor(fan, vals)


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
    sign flip was needed.  The powers of each candidate are computed once,
    for the orientation and the report alike.
    """
    reports = []
    for s, t in candidate_schedule(samples, seed):
        vec = [s * a for a in h]
        for z in zetas:
            vec = [a + t * b for a, b in zip(vec, z)]
        _, powers, flipped = _oriented(model, vec)
        rep = _report(model, powers)
        rep["s"] = s
        rep["t"] = t
        rep["flipped"] = flipped
        reports.append(rep)
    return reports


def _oriented(model, vec):
    """(ell, its powers, flipped) for ell = vec or -vec, whichever has a
    top power of positive degree; the powers of -vec are (-1)^k vec^k."""
    powers = _powers(model, vec)
    d = model.deg(powers[-1])
    if d == 0:
        raise MissingConvexClass("candidate has degenerate top power")
    if d > 0:
        return list(vec), powers, False
    if model.top % 2 == 0:
        raise MissingConvexClass("top power negative in even degree")
    return [-x for x in vec], [[-x for x in p] if k % 2 else p
                               for k, p in enumerate(powers)], True


def oriented_degree_one(model, vec):
    """Flip the sign of a degree-1 element so its top power has positive
    degree; report whether a flip happened.  Raises if the power is zero."""
    ell, _, flipped = _oriented(model, vec)
    return ell, flipped
