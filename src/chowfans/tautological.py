"""The named degree-one classes on the flag and biflag fans, and the Chern
classes built on them as elementary symmetric products.  Segre and twisted
Chern classes are computed on coordinate vectors, in rings.
"""

from .chow import (ChowElement, divisor, multiply_by_divisor,
                   negation_relabel, unit_class)
from .fans import BiflagFan, DimensionMismatch, FlagFan
from .matroid import LoopyMatroid


def structural_divisors(fan, M, j=1):
    """The classes gamma, gammabar, delta, u_1..u_r, v_1^+..v_r^+, and
    v_1^-..v_r^- on a biflag fan whose ray labels are biflats of M.

    gamma_j sums the rays with j in S and S proper; gammabar_j those with
    j in F and F proper; delta = gamma + gammabar minus the rays with both
    parts proper.  u_i adds the rays with rk(S^c) < i, S proper, minus
    gamma; v_i^+/v_i^- split delta + u_i - gammabar into its F = [N] and
    F proper parts.
    """
    if not isinstance(fan, BiflagFan):
        raise DimensionMismatch("structural divisors need a biflag fan, "
                                "not a %s" % type(fan).__name__)
    if 2 * M.n != fan.ambient_dim:
        raise DimensionMismatch("matroid on [%d], biflag fan in dimension %d"
                                % (M.n, fan.ambient_dim))
    if M.loops():
        raise LoopyMatroid("structural divisors need a loopless matroid")
    full = M.full
    nrays = len(fan.rays)
    jbit = 1 << (j - 1)
    gamma = [0] * nrays
    gammabar = [0] * nrays
    both_proper = [0] * nrays
    low_rank = [[0] * nrays for _ in range(M.r + 1)]
    vplus = [[0] * nrays for _ in range(M.r + 1)]
    vminus = [[0] * nrays for _ in range(M.r + 1)]
    for idx, (S, F) in enumerate(fan.ray_labels):
        s_proper = S != full
        f_proper = F != full
        if s_proper and (S & jbit):
            gamma[idx] = 1
        if f_proper and (F & jbit):
            gammabar[idx] = 1
        if s_proper and f_proper:
            both_proper[idx] = 1
        rk = M.rank(full & ~S)
        for i in range(1, M.r + 1):
            if s_proper and rk < i:
                low_rank[i][idx] = 1
                if not f_proper:
                    vplus[i][idx] = 1
            if s_proper and f_proper and rk >= i:
                vminus[i][idx] = 1
    g = divisor(fan, gamma)
    gb = divisor(fan, gammabar)
    delta = divisor(fan, [gamma[i] + gammabar[i] - both_proper[i]
                          for i in range(nrays)])
    out = {
        "gamma": g,
        "gammabar": gb,
        "delta": delta,
        "u": [None] + [divisor(fan, low_rank[i]) - g for i in range(1, M.r + 1)],
        "vplus": [None] + [divisor(fan, vplus[i]) for i in range(1, M.r + 1)],
        "vminus": [None] + [divisor(fan, vminus[i]) for i in range(1, M.r + 1)],
    }
    return out


def w_divisors(fan, M):
    """The classes w_1..w_r and alpha on the flag fan of subsets of [N].

    alpha is taken in the same ray-sum normalization as gamma: the sum of
    the rays whose subset contains 1, which pulls back to gamma under the
    first projection at the level of coefficient vectors.
    """
    if not isinstance(fan, FlagFan):
        raise DimensionMismatch("w classes need a flag fan, not a %s"
                                % type(fan).__name__)
    if M.n != fan.ambient_dim:
        raise DimensionMismatch("matroid on [%d], flag fan in dimension %d"
                                % (M.n, fan.ambient_dim))
    if M.loops():
        raise LoopyMatroid("w classes need a loopless matroid")
    full = M.full
    alpha = divisor(fan, [1 if (S & 1) and S != full else 0
                          for S in fan.ray_labels])
    ws = [None]
    for i in range(1, M.r + 1):
        coeffs = [1 if S != full and M.rank(full & ~S) < i else 0
                  for S in fan.ray_labels]
        ws.append(divisor(fan, coeffs) - alpha)
    return {"alpha": alpha, "w": ws}


def elementary_symmetric_products(divisors):
    """ChowElements e_0, e_1, ..., e_r of a list of divisors, the sums over
    i-subsets of left-to-right products, built one divisor D at a time by
    e_i <- e_i + e_(i-1) D: r (r + 1) / 2 divisor products."""
    fan = divisors[0].fan
    out = [unit_class(fan)] + [ChowElement(fan, i)
                               for i in range(1, len(divisors) + 1)]
    for j, D in enumerate(divisors, 1):
        for i in range(j, 0, -1):
            out[i] = out[i] + multiply_by_divisor(out[i - 1], D)
    return out


def chern_classes(fan, M, via="identity"):
    """c_0..c_r on a flag fan of subsets, as elementary symmetric
    polynomials of the w classes; via='negation' relabels each w through
    the ambient negation first."""
    wd = w_divisors(fan, M)
    ws = wd["w"][1:]
    if via == "negation":
        ws = [negation_relabel(w) for w in ws]
    elif via != "identity":
        raise ValueError("via must be 'identity' or 'negation'")
    return elementary_symmetric_products(ws)
