"""Tracing of the chowfans layers, installed from outside the package.

`Tracer.install` replaces every public function of the nine modules, every
copy another module took with ``from .x import f``, and the public methods
(plus ``__init__``) of the main classes with timing wrappers.  It keeps, in
memory:

- per function: calls, inclusive seconds of its outermost activations,
  and the same two numbers per calling layer ("bench" for the benchmark);
- per layer: self time, the time inside the layer's functions minus the
  time its calls into other layers cover (recursion into the same layer
  counts once);
- spans (name, start, end, parent span) for the first SPAN_CAP calls of
  each function and for every benchmark operation.  Past the cap a
  function is only aggregated, so a function called millions of times
  does not mostly measure its own wrapper.

The bit helpers are left alone: they are pure bitmask predicates, and one
pyramid lemma pass calls `bisubset_leq` 35 million times and
`is_bisubset` and `is_proper_bisubset` about 900,000 times each.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("matroid", "fans", "linalg", "chow", "tautological", "biflags",
          "rings", "kahler", "cli")
CLASSES = ("Fan", "Matroid", "FanRingModel", "BundleRing", "QuotientRingModel")
UNWRAPPED = ("popcount", "bisubset_leq", "mask_to_set", "set_to_mask",
             "is_bisubset", "is_proper_bisubset", "is_chain")
SPAN_CAP = 10000


class _Function:
    __slots__ = ("name", "layer", "span_name", "calls", "seconds", "depth",
                 "by_parent", "items")

    def __init__(self, name, layer, span_name):
        self.name, self.layer, self.span_name = name, layer, span_name
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.by_parent = {}
        self.items = 0          # values yielded, for generator functions


class Tracer:
    def __init__(self):
        self.clock0 = time.perf_counter()
        self.functions = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.entries = []       # open layer entries: [layer, seconds covered by other layers]
        self.span_names = []
        self.spans = []
        self.open_spans = []
        self.fans = []
        self.ring_models = []
        self.pd_models = {}
        self.hooks = {
            "fans.Fan.__init__": lambda args: self.fans.append(args[0]),
            "rings.FanRingModel.__init__":
                lambda args: self.ring_models.append(args[0]),
            "kahler.check_pd":
                lambda args: self.pd_models.setdefault(id(args[0]), args[0]),
        }

    # -- installation -------------------------------------------------

    def install(self):
        package = importlib.import_module("chowfans")
        modules = [importlib.import_module("chowfans." + l) for l in LAYERS]
        replacement = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNWRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    replacement[obj] = self._wrap(obj, layer, "%s.%s" % (layer, name))
                elif inspect.isclass(obj) and name in CLASSES:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                mname == "__init__" or not mname.startswith("_")):
                            setattr(obj, mname, self._wrap(
                                meth, layer, "%s.%s.%s" % (layer, name, mname)))
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, name, replacement[obj])

    def _wrap(self, fn, layer, name):
        fs = self.functions[name] = _Function(name, layer, len(self.span_names))
        self.span_names.append(name)
        invoke = self._invoker(fs, self.hooks.get(name))
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so work done while the caller iterates
            # is charged to the generator's layer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = invoke(next, it)
                    except StopIteration:
                        return
                    fs.items += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return invoke(fn, *args, **kwargs)
        return wrapper

    def _invoker(self, fs, hook):
        perf = time.perf_counter
        clock0 = self.clock0
        entries, layer_self = self.entries, self.layer_self
        spans, open_spans = self.spans, self.open_spans
        layer = fs.layer

        def invoke(fn, *args, **kwargs):
            parent = entries[-1][0] if entries else "bench"
            fs.calls += 1
            sid = -1
            if fs.calls <= SPAN_CAP:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            outer = fs.depth == 0
            fs.depth += 1
            frame = None
            if parent != layer:
                frame = [layer, 0.0]
                entries.append(frame)
            t = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf()
                d = t2 - t
                fs.depth -= 1
                agg = fs.by_parent.get(parent)
                if agg is None:
                    agg = fs.by_parent[parent] = [0, 0.0]
                agg[0] += 1
                if outer:
                    fs.seconds += d
                    agg[1] += d
                if frame is not None:
                    entries.pop()
                    layer_self[layer] += d - frame[1]
                    if entries:
                        entries[-1][1] += d
                if sid >= 0:
                    open_spans.pop()
                    spans[sid] = (fs.span_name, t - clock0, t2 - clock0,
                                  open_spans[-1] if open_spans else -1)
            if hook is not None:
                hook(args)
            return result
        return invoke

    # -- benchmark operations -----------------------------------------

    def begin(self, name):
        """Open a span for one benchmark operation."""
        sid = len(self.spans)
        self.span_names.append("op:" + name)
        self.spans.append([len(self.span_names) - 1, time.perf_counter() - self.clock0,
                           None, self.open_spans[-1] if self.open_spans else -1])
        self.open_spans.append(sid)

    def end(self):
        sid = self.open_spans.pop()
        self.spans[sid][2] = time.perf_counter() - self.clock0

    # -- reading -------------------------------------------------------

    # A function a later version removes reads as never called.
    def calls(self, name):
        f = self.functions.get(name)
        return f.calls if f else 0

    def seconds(self, name):
        f = self.functions.get(name)
        return f.seconds if f else 0.0

    def items(self, name):
        f = self.functions.get(name)
        return f.items if f else 0

    def fan_sizes(self):
        return [{"family": f.family, "rays": len(f.rays), "cones": len(f.cones),
                 "maximal_cones": len(f.maximal_cones)} for f in self.fans]

    def write(self, path, extra):
        doc = dict(extra)
        doc["layer_self_s"] = self.layer_self
        doc["functions"] = {
            n: {"calls": f.calls, "s": f.seconds, "by_parent": f.by_parent}
            for n, f in sorted(self.functions.items()) if f.calls}
        doc["fans"] = self.fan_sizes()
        doc["span_cap"] = SPAN_CAP
        doc["span_names"] = self.span_names
        # rows: [name index, start s, end s, parent row or -1]
        doc["spans"] = [[s[0], round(s[1], 7), round(s[2], 7), s[3]]
                        for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _calls(name):
    return lambda tr: tr.calls(name)


def _seconds(*names):
    return lambda tr: sum(tr.seconds(n) for n in names)


def _self(layer):
    return lambda tr: tr.layer_self[layer]


def _cache_size(objects, attr):
    # caches are private attributes; one a later version drops reads as empty
    return lambda tr: sum(len(getattr(o, attr, ())) for o in objects(tr))


def _largest_fan(attr):
    return lambda tr: max((len(getattr(f, attr)) for f in tr.fans), default=0)


def _hit_ratio(tr):
    calls = tr.calls("fans.Fan.solve_representative")
    if not calls:
        return 0.0
    return (calls - _cache_size(lambda t: t.fans, "_rep_cache")(tr)) / calls


def _pd_per_model(tr):
    return tr.calls("kahler.check_pd") / len(tr.pd_models) if tr.pd_models else 0.0


_FANS = lambda tr: tr.fans  # noqa: E731
_MODELS = lambda tr: tr.ring_models  # noqa: E731

# (metric, unit, better, value from a Tracer).  Must match the per_layer
# list of BENCHMARK.json.
PER_LAYER = [
    ("matroid.rank.calls", "count", "lower", _calls("matroid.Matroid.rank")),
    ("matroid.closure.calls", "count", "lower", _calls("matroid.Matroid.closure")),
    ("matroid.flats.s", "s", "lower", _seconds("matroid.Matroid.flats")),
    ("matroid.self_s", "s", "lower", _self("matroid")),
    ("fans.build.s", "s", "lower",
     _seconds("fans.projective_bundle_fan", "fans.bergman_fan")),
    ("fans.rays", "count", "lower", _largest_fan("rays")),
    ("fans.cones", "count", "lower", _largest_fan("cones")),
    ("fans.maximal_cones", "count", "lower", _largest_fan("maximal_cones")),
    ("fans.check_balanced.calls", "count", "lower", _calls("fans.check_balanced")),
    ("fans.check_balanced.s", "s", "lower", _seconds("fans.check_balanced")),
    ("fans.solve_representative.calls", "count", "lower",
     _calls("fans.Fan.solve_representative")),
    ("fans.rep_cache.size", "count", "lower", _cache_size(_FANS, "_rep_cache")),
    ("fans.rep_cache.hit_ratio", "ratio", "higher", _hit_ratio),
    ("fans.cone_multiplicity.calls", "count", "lower",
     _calls("fans.Fan.cone_multiplicity")),
    ("fans.proper_biflats.calls", "count", "lower", _calls("fans.proper_biflats")),
    ("fans.proper_biflats.s", "s", "lower", _seconds("fans.proper_biflats")),
    ("fans.self_s", "s", "lower", _self("fans")),
    ("linalg.row_echelon.calls", "count", "lower", _calls("linalg.row_echelon")),
    ("linalg.row_echelon.s", "s", "lower", _seconds("linalg.row_echelon")),
    ("linalg.rank.calls", "count", "lower", _calls("linalg.rank")),
    ("linalg.solve.calls", "count", "lower", _calls("linalg.solve")),
    ("linalg.nullspace.calls", "count", "lower", _calls("linalg.nullspace")),
    ("linalg.invert.calls", "count", "lower", _calls("linalg.invert")),
    ("linalg.lattice_index.calls", "count", "lower", _calls("linalg.lattice_index")),
    ("linalg.self_s", "s", "lower", _self("linalg")),
    ("chow.multiply_by_divisor.calls", "count", "lower",
     _calls("chow.multiply_by_divisor")),
    ("chow.multiply_by_divisor.s", "s", "lower", _seconds("chow.multiply_by_divisor")),
    ("chow.multiply_by_ray.calls", "count", "lower", _calls("chow.multiply_by_ray")),
    ("chow.nonzero_pairing_witness.s", "s", "lower",
     _seconds("chow.nonzero_pairing_witness")),
    ("chow.cap_product.s", "s", "lower", _seconds("chow.cap_product")),
    ("chow.pair.calls", "count", "lower", _calls("chow.pair")),
    ("chow.degree.calls", "count", "lower", _calls("chow.degree")),
    ("chow.pair_all.calls", "count", "lower", _calls("chow.pair_all")),
    ("chow.graded_basis.s", "s", "lower", _seconds("chow.graded_basis")),
    ("chow.fanout_cache.size", "count", "lower", _cache_size(_FANS, "_fanout_cache")),
    ("chow.self_s", "s", "lower", _self("chow")),
    ("tautological.structural_divisors.s", "s", "lower",
     _seconds("tautological.structural_divisors")),
    ("tautological.chern_classes.s", "s", "lower",
     _seconds("tautological.chern_classes")),
    ("tautological.self_s", "s", "lower", _self("tautological")),
    ("biflags.family_sets.calls", "count", "lower", _calls("biflags.family_sets")),
    ("biflags.family_sets.s", "s", "lower", _seconds("biflags.family_sets")),
    ("biflags.canonical_expansion.calls", "count", "lower",
     _calls("biflags.canonical_expansion")),
    ("biflags.verify_cancellation.calls", "count", "lower",
     _calls("biflags.verify_cancellation")),
    ("biflags.verify_bundle_identity.s", "s", "lower",
     _seconds("biflags.verify_bundle_identity")),
    ("biflags.reports", "count", "higher", lambda tr: tr.items("biflags.lemma_suite")),
    ("biflags.self_s", "s", "lower", _self("biflags")),
    ("rings.FanRingModel.init.s", "s", "lower", _seconds("rings.FanRingModel.__init__")),
    ("rings.FanRingModel.multiply.calls", "count", "lower",
     _calls("rings.FanRingModel.multiply")),
    ("rings.FanRingModel.multiply.s", "s", "lower",
     _seconds("rings.FanRingModel.multiply")),
    ("rings.basis_products", "count", "lower", _cache_size(_MODELS, "_mul_cache")),
    ("rings.BundleRing.multiply.calls", "count", "lower",
     _calls("rings.BundleRing.multiply")),
    ("rings.BundleRing.multiply.s", "s", "lower", _seconds("rings.BundleRing.multiply")),
    ("rings.BundleRing.reduce_poly.calls", "count", "lower",
     _calls("rings.BundleRing.reduce_poly")),
    ("rings.model_gram.calls", "count", "lower", _calls("rings.model_gram")),
    ("rings.mult_matrix.calls", "count", "lower", _calls("rings.mult_matrix")),
    ("rings.power_matrix.calls", "count", "lower", _calls("rings.power_matrix")),
    ("rings.QuotientRingModel.init.s", "s", "lower",
     _seconds("rings.QuotientRingModel.__init__")),
    ("rings.bloch_gieseker.s", "s", "lower", _seconds("rings.bloch_gieseker")),
    ("rings.self_s", "s", "lower", _self("rings")),
    ("kahler.check_pd.calls", "count", "lower", _calls("kahler.check_pd")),
    ("kahler.check_pd.s", "s", "lower", _seconds("kahler.check_pd")),
    ("kahler.pd_per_model", "ratio", "lower", _pd_per_model),
    ("kahler.check_hl.s", "s", "lower", _seconds("kahler.check_hl")),
    ("kahler.check_hr.s", "s", "lower", _seconds("kahler.check_hr")),
    ("kahler.primitive_kernel.s", "s", "lower", _seconds("kahler.primitive_kernel")),
    ("kahler.candidates", "count", "higher", _calls("kahler.kahler_report")),
    ("kahler.self_s", "s", "lower", _self("kahler")),
    ("cli.verify.s", "s", "lower", _seconds("cli.cmd_verify")),
    ("cli.kahler.s", "s", "lower", _seconds("cli.cmd_kahler")),
    ("cli.bloch-gieseker.s", "s", "lower", _seconds("cli.cmd_bloch_gieseker")),
    ("cli.quotient-ahk.s", "s", "lower", _seconds("cli.cmd_quotient_ahk")),
    ("cli.fan.s", "s", "lower", _seconds("cli.cmd_fan")),
    ("cli.emit.calls", "count", "lower", _calls("cli.emit")),
    ("cli.emit.s", "s", "lower", _seconds("cli.emit")),
    ("cli.load_matroid.s", "s", "lower", _seconds("cli.load_matroid")),
    ("cli.self_s", "s", "lower", _self("cli")),
]
