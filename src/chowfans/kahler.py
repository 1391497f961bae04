"""Poincare duality, hard Lefschetz, and Hodge-Riemann checks.

All three properties are tested exactly, over the rationals, against any
graded ring model.  Candidate Lefschetz elements for bundle fans are taken
from a small deterministic family of combinations of the pulled-back
permutohedral support class and the relative hyperplane class.
"""

from fractions import Fraction

from . import linalg
from .chow import DivisorClass
from .rings import model_gram, power_matrix, _unit_vec


class KahlerError(Exception):
    pass


class MissingConvexClass(KahlerError):
    pass


def check_pd(model):
    """Every graded pairing matrix must be square and invertible."""
    n = model.top
    for k in range(n // 2 + 1):
        g = model_gram(model, k)
        if len(g) != model.dim(n - k):
            return False
        if model.dim(k) != model.dim(n - k):
            return False
        if g and linalg.rank([row[:] for row in g]) != len(g):
            return False
        if not g and model.dim(k) != 0:
            return False
    return True


def check_hl(model, ell):
    """ell^(n-2i) must be a bijection from degree i to degree n-i."""
    n = model.top
    for i in range(n // 2 + 1):
        d1, d2 = model.dim(i), model.dim(n - i)
        if d1 != d2:
            return False
        mat = power_matrix(model, ell, i, n - 2 * i)
        if d1 == 0:
            continue
        if not mat or linalg.rank([row[:] for row in mat]) != d1:
            return False
    return True


def primitive_kernel(model, ell, i):
    """Basis of the kernel of ell^(n-2i+1) in degree i."""
    n = model.top
    d = model.dim(i)
    if d == 0:
        return []
    if n - 2 * i + 1 + i > n:
        # the target degree exceeds the top, so the map is zero
        return [_unit_vec(d, j) for j in range(d)]
    mat = power_matrix(model, ell, i, n - 2 * i + 1)
    if not mat:
        return [_unit_vec(d, j) for j in range(d)]
    return linalg.nullspace(mat)


def check_hr(model, ell):
    """(-1)^i deg(ell^(n-2i) x y) must be positive definite on the
    primitive part in each degree i up to the middle."""
    n = model.top
    for i in range(n // 2 + 1):
        ker = primitive_kernel(model, ell, i)
        if not ker:
            continue
        form = []
        for p, kp in enumerate(ker):
            row = []
            for kq in ker:
                z = model.multiply(i, kp, i, kq)
                for step in range(n - 2 * i):
                    z = model.multiply(1, ell, 2 * i + step, z)
                val = model.deg(z)
                row.append(val if i % 2 == 0 else -val)
            form.append(row)
        if not linalg.is_positive_definite(form):
            return False
    return True


def kahler_report(model, ell):
    pd = check_pd(model)
    hl = check_hl(model, ell) if pd else False
    hr = check_hr(model, ell) if hl else False
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
