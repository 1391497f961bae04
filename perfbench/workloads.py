"""The benchmark workloads as ordered lists of timed operations.

An operation is one verdict-producing call into chowfans.  Its function
returns a label-invariant observation (verdicts, fan sizes, graded
dimensions, report counts, output digests) that `run_pass` compares with
the golden recorded at the commit that introduced the benchmark.  A
mismatch or an exception is a failed operation; it never aborts the pass.

chowfans is called through its module attributes (``fans.bergman_fan``,
not a name imported from it), so the traced run sees every call.
Everything is built inside the operations: fans, ring models and their
caches are cold in every pass, as they are for a CLI user.
"""

import contextlib
import hashlib
import io
import time
from fractions import Fraction

from chowfans import biflags, chow, cli, fans, kahler, matroid, rings, \
    tautological

import calibrate
import inputs

# lemma_suite depth per instance: the pyramid at depth 1 takes minutes
LEMMA_DEPTHS = (("pyramid", 0), ("U(3,5)", 3), ("U(2,4)", 10), ("U(3,4)", 10))
BUNDLE_LADDER = ("U(1,2)", "U(2,3)", "U(2,4)", "U(3,4)", "parallel_pair")
# (instance, Chern convention, scheduled candidates per pass)
KAHLER_MODELS = (("U(2,4)", "identity", 3), ("U(2,4)", "negation", 3),
                 ("U(1,4)", "negation", 1))


class Op:
    """kind: "golden" compares the observation with its golden; "stream"
    yields one observation per report, each its own operation; "contract"
    judges the observation with `check` instead of a golden."""

    def __init__(self, key, fn, kind="golden", check=None):
        self.key, self.fn, self.kind, self.check = key, fn, kind, check


def parse(workload, seed):
    return {name: matroid.matroid_from_json(d)
            for name, d in inputs.descriptors(workload, seed).items()}


def operations(workload, ms, seed):
    if workload == "bundle_fan":
        ops = []
        for name in BUNDLE_LADDER:
            ops += _bundle_rung(name, ms[name], control=name == "U(3,4)")
        return ops
    if workload == "kahler_sweep":
        return _kahler_sweep(ms, seed)
    if workload == "combinatorics":
        return _combinatorics(ms)
    if workload == "cli":
        return _cli(seed)
    raise ValueError("unknown workload %r" % (workload,))


def largest_rung(ms):
    """U(3,5), run only by the traced bundle_fan run to keep timed runs short."""
    return _bundle_rung("U(3,5)", ms["U(3,5)"], control=True)


def _bundle_rung(name, M, control):
    N = M.n
    st = {}
    prefix = "bundle_fan/%s/" % name

    def build():
        fan = st["fan"] = fans.projective_bundle_fan(N, M)
        return {"rays": len(fan.rays), "cones": len(fan.cones),
                "maximal_cones": len(fan.maximal_cones)}

    def balancing():
        try:
            st["weight"] = chow.fundamental_weight(st["fan"])
        except chow.UnbalancedInput:
            return {"balanced": False}
        return {"balanced": True}

    def cap():
        fan = st["fan"]
        sd = tautological.structural_divisors(fan, M)
        w = chow.cap_product(st["weight"], sd["gammabar"])
        got = {fan.cone_chain(c): v for c, v in w.values.items()}
        want = {}
        if M.r > 1:
            target = fans.projective_bundle_fan(N, M.truncate())
            want = {target.cone_chain(c): v for c, v
                    in chow.fundamental_weight(target).values.items()}
        return {"truncation_equal": got == want, "cones": len(got)}

    def identity():
        rep = biflags.verify_bundle_identity(N, M, fan=st["fan"])
        return {check: w is None for check, w in rep["checks"].items()}

    def perturbed():
        # negative control: weight 2 on one maximal cone must unbalance it
        fan = st["fan"]
        weight = dict(fan.weight)
        weight[fan.maximal_cones[0]] = Fraction(2)
        return {"violations": len(fans.check_balanced(fan, fan.top_dim, weight))}

    ops = [Op(prefix + "fan", build), Op(prefix + "balancing", balancing),
           Op(prefix + "cap", cap), Op(prefix + "identity", identity)]
    if control:
        ops.append(Op(prefix + "perturbed", perturbed))
    return ops


def _kahler_sweep(ms, seed):
    ops = []
    states = {}
    for name, phi, samples in KAHLER_MODELS:
        M = ms[name]
        st = states[name, phi] = {}
        prefix = "kahler_sweep/%s-%s/" % (name, phi)

        def model(M=M, phi=phi, st=st):
            B, st["h"], st["zetas"] = kahler.matroid_bundle_model(M.n, M, phi=phi)
            st["model"] = B
            return {"dims": [B.dim(k) for k in range(B.top + 1)]}

        ops.append(Op(prefix + "model", model))
        for i in range(samples):
            ops.append(Op(prefix + "cand%d" % ((seed + i) % inputs.SCHEDULE_LEN),
                          _candidate(st, seed + i)))
    ops.append(Op("kahler_sweep/U(1,4)-negation/control",
                  _control(states["U(1,4)", "negation"], Fraction(1),
                           Fraction(-3))))

    P = ms["pyramid"]
    st = {}

    def pyramid_model():
        model = st["model"] = rings.FanRingModel(fans.bergman_fan(P))
        st["h"] = kahler.divisor_vector(
            model, kahler.base_convex_divisor(model.fan, P.n))
        st["zetas"] = []
        return {"dims": [model.dim(k) for k in range(model.top + 1)]}

    ops.append(Op("kahler_sweep/pyramid/model", pyramid_model))
    ops.append(Op("kahler_sweep/pyramid/cand%d" % (seed % inputs.SCHEDULE_LEN),
                  _candidate(st, seed)))
    return ops


def _candidate(st, seed):
    def run():
        (rep,) = kahler.sample_lefschetz_candidates(
            st["model"], st["h"], st["zetas"], samples=1, seed=seed)
        return {"pd": rep["pd"], "hl": rep["hl"], "hr": rep["hr"],
                "flipped": rep["flipped"], "s": str(rep["s"]), "t": str(rep["t"])}
    return run


def _control(st, s, t):
    """Negative control: s*h + t*zeta, which must fail HR."""
    def run():
        vec = [s * a + t * b for a, b in zip(st["h"], st["zetas"][0])]
        vec, flipped = kahler.oriented_degree_one(st["model"], vec)
        return dict(kahler.kahler_report(st["model"], vec), flipped=flipped)
    return run


def _combinatorics(ms):
    K6 = ms["K6"]
    ops = [Op("combinatorics/K6/flats", lambda: {"flats": len(K6.flats())})]
    for name, depth in LEMMA_DEPTHS:
        ops.append(Op("combinatorics/%s/lemmas-%d" % (name, depth),
                      _lemmas(ms[name], depth), kind="stream"))
    return ops


def _lemmas(M, depth):
    def run():
        return (rep["status"] for rep in biflags.lemma_suite(
            M, with_min_dec=False, max_first_len=depth))
    return run


def _run_cli(argv):
    """cli.main in-process with captured output.  An exception escaping
    main is what a user sees as a traceback and exit status 1."""
    out, err = io.StringIO(), io.StringIO()
    escaped = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            code, escaped = 1, True
    return code, out.getvalue(), err.getvalue(), escaped


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(seed):
    commands = [("readme%d" % i, argv)
                for i, argv in enumerate(inputs.README_COMMANDS, 1)]
    commands += inputs.heavy_commands(seed)
    ops = []
    for key, argv in commands:
        def golden(argv=argv):
            code, out, err, escaped = _run_cli(argv)
            return {"exit": code, "stdout": _digest(out), "stderr": _digest(err),
                    "lines": out.count("\n"), "traceback": escaped}
        ops.append(Op("cli/" + key, golden))
    for i, (kind, argv) in enumerate(inputs.CONTRACT_COMMANDS, 1):
        def contract(argv=argv):
            code, _, err, escaped = _run_cli(argv)
            return {"exit": code, "message": bool(err.strip()),
                    "traceback": escaped or "Traceback" in err}
        ops.append(Op("cli/contract%d" % i, contract, kind="contract",
                      check=_valid_contract if kind == "valid"
                      else _malformed_contract))
    return ops


def _valid_contract(obs):
    return obs["exit"] in (0, 1) and not obs["traceback"]


def _malformed_contract(obs):
    return obs["exit"] == 2 and obs["message"] and not obs["traceback"]


class PassResult:
    """Outcomes and timings of one pass.  An outcome is "ok", "failed"
    (golden mismatch or exception) or "breach" (a command that does not
    keep the README exit-code contract).  Times are read through the
    pass's calibration sampler: raw seconds, or reference seconds."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.keys, self.spans, self.outcomes = [], [], []
        self.failures = []
        self.observed = {}
        self.start = self.end = 0.0

    def add(self, key, start, end, outcome, detail=None):
        self.keys.append(key)
        self.spans.append((start, end))
        self.outcomes.append(outcome)
        if outcome == "failed":
            self.failures.append((key, detail))

    def durations(self):
        """Per-operation reference seconds."""
        return [self.sampler.seconds(a, b) for a, b in self.spans]

    def wall(self, scaled=True):
        return self.sampler.seconds(self.start, self.end, scaled)

    def scale(self):
        """Typical factor from this pass's raw to reference seconds."""
        return calibrate.REFERENCE_S / self.sampler.kernel_median()


def run_pass(ops, goldens, tracer=None):
    """Run the operations in order.  With goldens=None every observation
    is recorded instead of checked."""
    perf = time.perf_counter
    with calibrate.Sampler() as sampler:
        res = PassResult(sampler)
        res.start = perf()
        for op in ops:
            if tracer is not None:
                tracer.begin(op.key)
            if op.kind == "stream":
                _run_stream(op, goldens, res)
            else:
                t = perf()
                try:
                    obs = op.fn()
                except Exception as exc:
                    obs = {"error": "%s: %s" % (type(exc).__name__, exc)}
                end = perf()
                if op.kind == "contract":
                    res.add(op.key, t, end, "ok" if op.check(obs) else "breach")
                elif goldens is None:
                    res.observed[op.key] = obs
                    res.add(op.key, t, end, "ok")
                else:
                    want = goldens.get(op.key)
                    res.add(op.key, t, end, "ok" if obs == want else "failed",
                            {"got": obs, "want": want})
            if tracer is not None:
                tracer.end()
        res.end = perf()
    return res


def _run_stream(op, goldens, res):
    perf = time.perf_counter
    want = None if goldens is None else goldens.get(op.key, {})
    count = 0
    statuses = set()
    t = perf()
    try:
        for item in op.fn():
            now = perf()
            count += 1
            statuses.add(item)
            ok = want is None or item == want.get("item")
            res.add(op.key, t, now, "ok" if ok else "failed",
                    {"report": count, "got": item})
            t = perf()
    except Exception as exc:
        res.add(op.key, t, perf(), "failed",
                {"error": "%s: %s" % (type(exc).__name__, exc)})
        return
    if goldens is None:
        (item,) = statuses
        res.observed[op.key] = {"count": count, "item": item}
    elif count != want.get("count"):
        # a missing or extra report counts as one more failed operation
        res.add(op.key, t, perf(), "failed",
                {"count": count, "want": want.get("count")})
