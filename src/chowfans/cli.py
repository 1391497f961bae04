"""Command-line interface.

Every command streams one JSON object per check to stdout and a short
summary to stderr.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 bad usage or malformed input, 3 an internal error.  Each cmd_*
is a generator of (report, verdicts) pairs, and main alone prints the
reports, counts the verdicts and maps them to the summary and exit code.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb

from . import linalg
from .biflags import lemma_suite, verify_bundle_identity
from .chow import cap_product, fundamental_weight
from .fans import bergman_fan, bipermutohedral_fan, check_balanced, \
    count_maximal_cones, permutohedral_fan, projective_bundle_fan
from .kahler import SCHEDULE, base_convex_divisor, check_pd, \
    chern_vectors, sample_lefschetz_candidates
from .matroid import LoopyMatroid, MatroidError, matroid_from_json, \
    matroid_uniform
from .rings import FanRingModel, bloch_gieseker, quotient_by_ann_segre
from .tautological import structural_divisors


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    return x


def emit(report):
    print(json.dumps(_jsonable(report), sort_keys=True))


def load_matroid(arg):
    """Accept a path to a JSON file or an inline JSON string."""
    text = arg
    try:
        if os.path.exists(arg):
            with open(arg) as fh:
                text = fh.read()
        data = json.loads(text)
    except (ValueError, OSError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; deep nesting raises RecursionError
        raise SystemExit2(str(exc))
    return matroid_from_json(data)


# The most characters, and the largest decimal exponent, of a --lams entry:
# Fraction("1e10000000") takes seconds, and 1e5000 is too long to print.
MAX_LAM = 100


def ground_set_size(args, M):
    """The N a command runs on: --N, which must match the ground set of the
    matroid when there is one."""
    if M is None:
        if not args.N or args.N < 1:
            raise SystemExit2("need --matroid or a positive --N")
        return args.N
    if args.N is not None and args.N != M.n:
        raise SystemExit2("--N %d does not match the %d-element ground set "
                          "of the matroid" % (args.N, M.n))
    return M.n


# The largest fan, by maximal cones, that a command builds: on a 2-core
# machine perm(7) (5,040) and bipermutohedral(4) (2,520) build in about
# 2 s, perm(8) (40,320) in 27 s, bipermutohedral(5) (113,400) over a minute.
MAX_CONES = 10000


def check_size(kind, N):
    """Exit 2 before building perm(N) or bipermutohedral(N) when its count
    of maximal cones, N! or (2N)!/2^N, is above MAX_CONES.  The product
    stops at the first factor past the limit, so a huge N fails at once."""
    cones = 1
    for i in range(1, N + 1):
        cones *= i if kind == "permutohedral" else i * (2 * i - 1)
        if cones > MAX_CONES:
            raise SystemExit2("the %s fan on N = %d has more than %d maximal "
                              "cones" % (kind, N, MAX_CONES))


def check_fan_size(kind, M, limit):
    """Exit 2 before building the bergman or bundle fan of M when its count
    of maximal cones is above limit.  A bundle fan is first bounded below,
    before its biflats are listed, by the Bergman count, which walks only
    the flats.  The diagonal biflats F^c|F of a maximal flag of proper
    flats form a biflag with a gap at every link: F^c | G misses F - G
    for the next, smaller flat G, and the sentinel links miss F^c of the
    largest flat and F of the smallest.  Two distinct maximal flags lie
    in no one biflag: they differ in a rank, and F^c|F and G^c|G are
    comparable only for nested F and G, never for two flats of one rank.
    So each maximal flag lies in a maximal bundle cone of its own, the
    fan being pure, as the exact count assumes.  A matroid with loops is
    left to the exact count, which refuses it as the bundle fan's."""
    if kind == "bundle" and not M.loops():
        flags = count_maximal_cones(M)
        if flags > limit:
            raise SystemExit2("the bundle fan has at least %d maximal cones, "
                              "more than %d" % (flags, limit))
    cones = count_maximal_cones(M, biflags=kind == "bundle")
    if cones > limit:
        raise SystemExit2("the %s fan has %d maximal cones, more than %d"
                          % (kind, cones, limit))


# The largest pairing matrix, by entries, of the ring model of perm(N)
# that a command builds.  Its degree-k pairing matrix pairs the k-cones
# with the (N-1-k)-cones: at N = 6 the largest is 540 x 1,560, and the
# model builds in about 2.5 s on a 2-core machine; at N = 7 it is
# 8,400 x 8,400.
MAX_PAIRING_ENTRIES = 10 ** 6


def check_model_size(N):
    """Exit 2 before building perm(N) and its ring model when the fan is
    above MAX_CONES or its largest pairing matrix above
    MAX_PAIRING_ENTRIES.  perm(N) has (k+1)! S(N, k+1) cones of dimension
    k, the surjections of the N elements onto k+1 ordered blocks."""
    check_size("permutohedral", N)
    n = N - 1
    cones = [sum((-1) ** i * comb(j, i) * (j - i) ** N for i in range(j + 1))
             for j in range(1, N + 1)]
    rows, cols = max(((cones[k], cones[n - k]) for k in range(n // 2 + 1)),
                     key=lambda size: size[0] * size[1])
    if rows * cols > MAX_PAIRING_ENTRIES:
        raise SystemExit2("the ring model of the permutohedral fan on N = %d "
                          "pairs %d x %d cones, more than %d entries"
                          % (N, rows, cols, MAX_PAIRING_ENTRIES))


# The largest bundle fan, by maximal cones, that verify builds: every
# --which walks it.  Whole processes on a 2-core machine: U(3,6) (34,560)
# in 13.9 s, U(2,7) (40,320) in 10.5 s, U(5,5) (113,400) in 147 s, U(4,6)
# (226,800) in 220 s.  The pyramid's has 14,370,048, and K5's 1,695,133,440.
MAX_BUNDLE_CONES = 50000


def cmd_verify(args):
    if args.max_first_len < 0:
        raise SystemExit2("--max-first-len must be non-negative")
    M = load_matroid(args.matroid)
    N = M.n
    check_fan_size("bundle", M, MAX_BUNDLE_CONES)
    fan = projective_bundle_fan(N, M)
    if args.which in ("identity", "all"):
        rep = verify_bundle_identity(N, M, fan=fan)
        for name, witness in rep["checks"].items():
            ok = witness is None
            yield ({"check": name, "status": "pass" if ok else "fail",
                    "witness": witness}, [ok])
    if args.which in ("lemmas", "all"):
        for rep in lemma_suite(M, fan=fan, max_first_len=args.max_first_len):
            yield rep, [rep["status"] == "pass"]
    if args.which in ("truncation", "all"):
        sd = structural_divisors(fan, M)
        w = cap_product(fundamental_weight(fan), sd["gammabar"])
        got = {fan.cone_chain(c): v for c, v in w.values.items()}
        if M.r > 1:
            target = projective_bundle_fan(N, M.truncate())
            want = {target.cone_chain(c): v
                    for c, v in fundamental_weight(target).values.items()}
        else:
            want = {}
        ok = got == want
        yield ({"check": "truncation-recursion",
                "status": "pass" if ok else "fail"}, [ok])


def cmd_kahler(args):
    # past the cycle of the schedule every report repeats an earlier one
    if not 0 <= args.samples <= len(SCHEDULE):
        raise SystemExit2("--samples must be between 0 and %d"
                          % len(SCHEDULE))
    M = load_matroid(args.matroid) if args.matroid else None
    N = ground_set_size(args, M)
    check_model_size(N)
    if M is None:
        M = matroid_uniform(N, N)
    from .kahler import matroid_bundle_model
    B, h, zetas = matroid_bundle_model(N, M, phi=args.phi)
    if args.samples == 0:
        ok = check_pd(B)
        yield {"check": "pd", "status": "pass" if ok else "fail"}, [ok]
        return
    for rep in sample_lefschetz_candidates(B, h, zetas,
                                           samples=args.samples,
                                           seed=args.seed):
        yield rep, [rep["pd"], rep["hl"], rep["hr"]]


def cmd_bloch_gieseker(args):
    M = load_matroid(args.matroid) if args.matroid else None
    N = ground_set_size(args, M)
    if M is None and N < 2:
        raise SystemExit2("the default matroid U(2, N) needs --N >= 2")
    check_model_size(N)
    if M is None:
        M = matroid_uniform(2, N)
    entries = args.lams.split(",") if args.lams else []
    for x in entries:
        e = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if len(x) > MAX_LAM or e.isdecimal() and int(e) > MAX_LAM:
            raise SystemExit2("--lams entry %.20s has more than %d characters "
                              "or an exponent above %d" % (x, MAX_LAM, MAX_LAM))
    try:
        lams = [Fraction(x) for x in entries] or [0, 1]
    except ZeroDivisionError:
        raise SystemExit2("zero denominator in --lams %s" % args.lams)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    base = FanRingModel(permutohedral_fan(N))
    h = base.to_vector(base_convex_divisor(base.fan, N))
    for entry in bloch_gieseker(base, chern_vectors(base, M), h, lams=lams):
        ok = entry["zeta_full_rank"] and entry.get("cd_rank_conditions", True)
        if "sign_value" in entry and entry["sign_value"] < 0:
            ok = False
        entry["status"] = "pass" if ok else "fail"
        yield entry, [ok]


def cmd_quotient_ahk(args):
    M = load_matroid(args.matroid)
    N = ground_set_size(args, M)
    check_model_size(N)
    base = FanRingModel(permutohedral_fan(N))
    quo = quotient_by_ann_segre(base, chern_vectors(base, M, via="negation"))
    target = FanRingModel(bergman_fan(M))
    dims_q = [quo.dim(k) for k in range(quo.top + 1)]
    dims_b = [target.dim(k) for k in range(target.top + 1)]
    ok = dims_q == dims_b
    yield ({"check": "hilbert-function", "status": "pass" if ok else "fail",
            "quotient": dims_q, "bergman": dims_b, "t": quo.t}, [ok])


def cmd_fan(args):
    if args.kind in ("permutohedral", "bipermutohedral"):
        if not args.N or args.N < 1:
            raise SystemExit2("--kind %s needs a positive --N" % args.kind)
        check_size(args.kind, args.N)
        fan = (permutohedral_fan if args.kind == "permutohedral"
               else bipermutohedral_fan)(args.N)
    else:
        if not args.matroid:
            raise SystemExit2("--kind %s needs --matroid" % args.kind)
        M = load_matroid(args.matroid)
        if M.loops():
            if not args.simplify:
                raise LoopyMatroid("matroid has loops; pass --simplify")
            M, _ = M.delete_loops()
        N = ground_set_size(args, M)
        check_fan_size(args.kind, M, MAX_CONES)
        fan = (projective_bundle_fan(N, M) if args.kind == "bundle"
               else bergman_fan(M))
    report = fan.to_json()
    report["unimodular"] = all(
        linalg.lattice_index(fan.lineality + [fan.rays[i] for i in c]) == 1
        for c in fan.maximal_cones)
    report["balanced"] = not check_balanced(fan, fan.top_dim, fan.weight)
    yield report, [report["unimodular"] and report["balanced"]]


class SystemExit2(Exception):
    pass


def build_parser():
    ap = argparse.ArgumentParser(prog="chowfans")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="bundle identity and lemma suites")
    p.add_argument("--matroid", required=True)
    p.add_argument("--which", choices=["identity", "lemmas", "truncation", "all"],
                   default="all")
    p.add_argument("--max-first-len", type=int, default=1, dest="max_first_len")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kahler", help="Poincare duality / Lefschetz checks")
    p.add_argument("--matroid")
    p.add_argument("--N", type=int)
    p.add_argument("--phi", choices=["identity", "negation"], default="identity")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kahler)

    p = sub.add_parser("bloch-gieseker", help="full-rank and sign checks")
    p.add_argument("--matroid")
    p.add_argument("--N", type=int)
    p.add_argument("--lams", help="comma-separated twist parameters, default "
                   "0,1: lam > 0 twists E by lam h, h ample, where the checks "
                   "are expected to pass; lam = 0 leaves E untwisted, for "
                   "comparison, and its failures are no counterexamples")
    p.set_defaults(func=cmd_bloch_gieseker)

    p = sub.add_parser("quotient-ahk", help="annihilator quotient Hilbert function")
    p.add_argument("--matroid", required=True)
    p.add_argument("--N", type=int)
    p.set_defaults(func=cmd_quotient_ahk)

    p = sub.add_parser("fan", help="dump a fan with sanity checks")
    p.add_argument("--kind", choices=["permutohedral", "bergman",
                                      "bipermutohedral", "bundle"],
                   required=True)
    p.add_argument("--matroid")
    p.add_argument("--N", type=int)
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=cmd_fan)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    passed = total = 0
    try:
        for report, verdicts in args.func(args):
            emit(report)
            total += len(verdicts)
            passed += sum(map(bool, verdicts))
    except (MatroidError, SystemExit2) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print("internal error: %s: %s" % (type(exc).__name__, message),
              file=sys.stderr)
        return 3
    print("%d/%d checks passed" % (passed, total), file=sys.stderr)
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main())
