"""Command-line interface.

Every command streams one JSON object per check to stdout and a short
summary to stderr.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 bad usage or malformed input.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .biflags import lemma_suite, verify_bundle_identity
from .chow import cap_product, fundamental_weight
from .fans import bergman_fan, bipermutohedral_fan, check_balanced, \
    permutohedral_fan, projective_bundle_fan
from .kahler import sample_lefschetz_candidates
from .matroid import LoopyMatroid, MatroidError, matroid_from_json, \
    matroid_uniform
from .rings import FanRingModel, bloch_gieseker, quotient_by_ann_segre, \
    segre_vectors
from .tautological import chern_classes, structural_divisors


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
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    data = json.loads(text)
    return matroid_from_json(data)


def finish(failures, total):
    print("%d/%d checks passed" % (total - failures, total), file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args):
    M = load_matroid(args.matroid)
    N = M.n
    failures = total = 0
    fan = None
    if args.which in ("identity", "truncation", "all"):
        fan = projective_bundle_fan(N, M)
    if args.which in ("identity", "all"):
        rep = verify_bundle_identity(N, M, fan=fan)
        for name, witness in rep["checks"].items():
            total += 1
            ok = witness is None
            failures += not ok
            emit({"check": name, "status": "pass" if ok else "fail",
                  "witness": witness})
    if args.which in ("lemmas", "all"):
        for rep in lemma_suite(M, fan=fan, max_first_len=args.max_first_len):
            total += 1
            failures += rep["status"] != "pass"
            emit(rep)
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
        total += 1
        failures += not ok
        emit({"check": "truncation-recursion", "status": "pass" if ok else "fail"})
    return finish(failures, total)


def cmd_kahler(args):
    if args.matroid:
        M = load_matroid(args.matroid)
        N = args.N if args.N else M.n
    else:
        if not args.N:
            raise SystemExit2("need --matroid or --N")
        N = args.N
        M = matroid_uniform(N, N)
    from .kahler import matroid_bundle_model
    B, h, zetas = matroid_bundle_model(N, M, phi=args.phi)
    failures = total = 0
    if args.samples == 0:
        from .kahler import check_pd
        ok = check_pd(B)
        total += 1
        failures += not ok
        emit({"check": "pd", "status": "pass" if ok else "fail"})
        return finish(failures, total)
    for rep in sample_lefschetz_candidates(B, h, zetas,
                                           samples=args.samples,
                                           seed=args.seed):
        for name in ("pd", "hl", "hr"):
            total += 1
            failures += not rep[name]
        emit(rep)
    return finish(failures, total)


def cmd_bloch_gieseker(args):
    M = load_matroid(args.matroid) if args.matroid else matroid_uniform(2, args.N)
    N = args.N if args.N else M.n
    base = FanRingModel(permutohedral_fan(N))
    from .kahler import base_convex_divisor, divisor_vector
    cs_elems = chern_classes(base.fan, M)
    c = [base.unit()] + [base.to_vector(e) for e in cs_elems[1:]]
    h = divisor_vector(base, base_convex_divisor(base.fan, N))
    lams = [Fraction(x) for x in args.lams.split(",")] if args.lams else [0, 1]
    failures = total = 0
    for entry in bloch_gieseker(base, c, h, lams=lams):
        total += 1
        ok = entry["zeta_full_rank"] and entry.get("cd_rank_conditions", True)
        if "sign_value" in entry and entry["sign_value"] < 0:
            ok = False
        failures += not ok
        entry["status"] = "pass" if ok else "fail"
        emit(entry)
    return finish(failures, total)


def cmd_quotient_ahk(args):
    M = load_matroid(args.matroid)
    N = args.N if args.N else M.n
    base = FanRingModel(permutohedral_fan(N))
    cs_elems = chern_classes(base.fan, M, via="negation")
    c = [base.unit()] + [base.to_vector(e) for e in cs_elems[1:]]
    quo = quotient_by_ann_segre(base, c)
    target = FanRingModel(bergman_fan(M))
    dims_q = [quo.dim(k) for k in range(quo.top + 1)]
    dims_b = [target.dim(k) for k in range(target.top + 1)]
    ok = dims_q == dims_b
    emit({"check": "hilbert-function", "status": "pass" if ok else "fail",
          "quotient": dims_q, "bergman": dims_b, "t": quo.t})
    return finish(0 if ok else 1, 1)


def cmd_fan(args):
    try:
        if args.kind == "permutohedral":
            fan = permutohedral_fan(args.N)
        elif args.kind == "bipermutohedral":
            fan = bipermutohedral_fan(args.N)
        else:
            M = load_matroid(args.matroid)
            if M.loops():
                if not args.simplify:
                    raise LoopyMatroid("matroid has loops; pass --simplify")
                M, _ = M.delete_loops()
            N = args.N if args.N else M.n
            if args.kind == "bergman":
                fan = bergman_fan(M)
            else:
                fan = projective_bundle_fan(N, M)
    except LoopyMatroid as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = fan.to_json()
    report["unimodular"] = all(
        fan.cone_multiplicity(c) == 1 for c in fan.maximal_cones)
    report["balanced"] = not check_balanced(
        fan, fan.top_dim,
        {c: Fraction(1) for c in fan.maximal_cones})
    emit(report)
    ok = report["unimodular"] and report["balanced"]
    return finish(0 if ok else 1, 1)


class SystemExit2(Exception):
    pass


def build_parser():
    ap = argparse.ArgumentParser(prog="chowfans")
    ap.add_argument("--jobs", type=int,
                    default=int(os.environ.get("CHOWFANS_JOBS", "1")),
                    help="worker count hint (checks are cheap enough to run serially)")
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
    p.add_argument("--lams", help="comma-separated twist parameters")
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
    try:
        return args.func(args)
    except (MatroidError, SystemExit2, ValueError, KeyError,
            json.JSONDecodeError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
