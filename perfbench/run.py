"""Run one workload of the chowfans benchmark and print its metrics.

    python3 perfbench/run.py --workload bundle_fan --seed 1 --seconds 16 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/``.  Workloads are closed loops with one caller: each pass runs the
workload's operations in order, cold, and passes repeat until --seconds
have gone by (at least one pass).

Times are reported in reference seconds: every stretch of a pass is
scaled by the calibration kernel sampled around it (see calibrate.py), so
a shared machine's changing speed cancels out.  The run record keeps the
raw seconds too.

--trace 0 prints the end-to-end metrics (median over passes).
--trace 1 runs one untraced and one traced pass, prints the per-layer
metrics of the traced pass plus the tracing overhead, and on bundle_fan
then traces the U(3,5) rung, which the timed runs leave out.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  A run record (and, traced, the spans) is written under
perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_PROBES = 9  # after one warm-up probe whose time is dropped

U35_STEPS = (("u35.fan.s", "fan"), ("u35.balancing.s", "balancing"),
             ("u35.cap.s", "cap"), ("u35.identity.s", "identity"))

# workloads and tracer import chowfans, so they are imported only once
# src/ is on the path


def measure_setup(workload, seed):
    """Median over fresh interpreters of import plus descriptor parsing,
    in reference seconds, and the raw median."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, kernel = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.REFERENCE_S / kernel)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def timed_passes(workload, seed, seconds, goldens):
    import workloads
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = workloads.operations(workload, workloads.parse(workload, seed), seed)
        gc.collect()
        passes.append(workloads.run_pass(ops, goldens))
    return passes


def end_to_end(passes, setup_s):
    """Metric name -> (value, unit)."""
    attempted = sum(len(p.outcomes) for p in passes)
    ok = sum(p.outcomes.count("ok") for p in passes)
    durations = [p.durations() for p in passes]
    # every pass runs the same operations in the same order; taking each
    # operation's median over passes first keeps a slow stretch of one
    # pass from moving which operation sits at the median
    per_op = [statistics.median(ds) for ds in zip(*durations)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall() for p in passes), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_max_s": (statistics.median(max(ds) for ds in durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ok_frac": (ok / attempted, "ratio"),
    }


def traced_passes(workload, seed, goldens, trace_path):
    import tracer
    import workloads
    plain_ops = workloads.operations(workload, workloads.parse(workload, seed), seed)
    traced_ops = workloads.operations(workload, workloads.parse(workload, seed), seed)
    big_ops = []
    if workload == "bundle_fan":
        big_ops = workloads.largest_rung(workloads.parse(workload, seed))
    gc.collect()
    plain = workloads.run_pass(plain_ops, goldens)
    tr = tracer.Tracer()
    tr.install()
    gc.collect()
    traced = workloads.run_pass(traced_ops, goldens, tr)
    # the tracer counts raw seconds; scale them like the pass's own
    scale = traced.scale()
    metrics = {name: (value(tr) * (scale if unit == "s" else 1), unit)
               for name, unit, _, value in tracer.PER_LAYER}
    metrics["trace_overhead_frac"] = (traced.wall() / plain.wall() - 1, "ratio")
    passes = [plain, traced]
    u35 = dict.fromkeys([name for name, _ in U35_STEPS] + ["u35.row_echelon.s"], 0.0)
    if big_ops:
        before = tr.seconds("linalg.row_echelon")
        big = workloads.run_pass(big_ops, goldens, tr)
        took = dict(zip(big.keys, big.durations()))
        for name, step in U35_STEPS:
            u35[name] = took["bundle_fan/U(3,5)/" + step]
        u35["u35.row_echelon.s"] = (tr.seconds("linalg.row_echelon")
                                    - before) * big.scale()
        passes.append(big)
    metrics.update((name, (value, "s")) for name, value in u35.items())
    tr.write(trace_path, {"workload": workload, "seed": seed})
    return passes, metrics


def src_loc():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chowfans", "__init__.py")):
        print("perfbench: no chowfans package under %s" % SRC, file=sys.stderr)
        return 2
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))

    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    if args.trace:
        passes, metrics = traced_passes(args.workload, args.seed, goldens,
                                        stem + ".spans.json")
    else:
        passes = timed_passes(args.workload, args.seed, args.seconds, goldens)
        metrics = end_to_end(passes, setup_s)

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.outcomes.count("failed") for p in passes)
    breaches = sum(p.outcomes.count("breach") for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_loc": src_loc(),
        "reference_s": calibrate.REFERENCE_S, "setup_raw_s": setup_raw,
        "passes": [{"raw_wall_s": p.wall(scaled=False), "wall_s": p.wall(),
                    "ops": len(p.outcomes)} for p in passes],
        "attempted": attempted, "failed": failed, "contract_breaches": breaches,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "failures": failures[:20],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for key, detail in failures[:10]:
        print("FAILED %s: %s" % (key, json.dumps(detail, default=str)[:300]),
              file=sys.stderr)
    print("# %s seed=%d passes=%d ops/pass=%d attempted=%d failed=%d "
          "contract_breaches=%d src_loc=%d python=%s nproc=%s"
          % (args.workload, args.seed, len(passes), len(passes[0].outcomes),
             attempted, failed, breaches, record["src_loc"], record["python"],
             record["nproc"]))
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
