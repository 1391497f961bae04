"""Build the projectivized bundle ring over a small permutohedral base.

Starting from the rank-2 uniform matroid on three elements, this script
prints the graded dimensions of the base and bundle rings, checks the
degree-2 relation on zeta, pushes powers of zeta forward to Segre classes,
and runs the twist parameter sweep behind the Bloch-Gieseker style checks.

Run: python3 demos/bundle_rings.py
"""

from chowfans.fans import permutohedral_fan
from chowfans.kahler import base_convex_divisor, chern_vectors
from chowfans.matroid import matroid_uniform
from chowfans.rings import (BundleRing, FanRingModel, bloch_gieseker,
                            segre_vectors)


def main():
    N = 3
    M = matroid_uniform(2, 3)
    base = FanRingModel(permutohedral_fan(N))
    print("base dims:", [base.dim(k) for k in range(base.top + 1)])

    c = chern_vectors(base, M)
    B = BundleRing(base, M.r, c[1:])
    print("bundle dims:", [B.dim(k) for k in range(B.top + 1)])

    zeta = B.zeta()
    acc = B.multiply(1, zeta, 1, zeta)
    for i in (1, 2):
        term = B.multiply(i, B.lift(i, c[i]), 2 - i, B.zeta_power(2 - i))
        acc = [a + b for a, b in zip(acc, term)]
    print("zeta^2 + c_1 zeta + c_2 == 0:", all(v == 0 for v in acc))

    s = segre_vectors(base, c, base.top)
    for k in range(M.r - 1, B.top + 1):
        push = B.pushforward(k, B.zeta_power(k))
        print("pushforward of zeta^%d equals s_%d:" % (k, k - M.r + 1),
              push == s[k - M.r + 1])

    h = base.to_vector(base_convex_divisor(base.fan, N))
    print()
    for entry in bloch_gieseker(base, c, h, lams=(0, 1, 10)):
        print("twist lam = %s: zeta full rank %s, sign value %s"
              % (entry["lam"], entry["zeta_full_rank"],
                 entry.get("sign_value")))


if __name__ == "__main__":
    main()
