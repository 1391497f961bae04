"""Record perfbench/goldens.json from the chowfans under ../src.

    python3 perfbench/record_goldens.py

Runs one pass of every workload for each seed 0..SCHEDULE_LEN-1, which
covers every Kahler candidate position and several relabellings, plus the
U(3,5) rung, and stops if an observation changes with the seed or an
operation raises.  Goldens are label-invariant: verdicts, fan sizes,
graded dimensions, report counts and CLI output digests.
"""

import json
import os
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    goldens = {}
    for workload in inputs.WORKLOADS:
        for seed in range(inputs.SCHEDULE_LEN):
            ms = workloads.parse(workload, seed)
            ops = workloads.operations(workload, ms, seed)
            if workload == "bundle_fan" and seed == 0:
                ops += workloads.largest_rung(ms)
            res = workloads.run_pass(ops, None)
            for key, obs in res.observed.items():
                if "error" in obs:
                    sys.exit("%s raised: %s" % (key, obs["error"]))
                if goldens.setdefault(key, obs) != obs:
                    sys.exit("%s differs under seed %d: %r, then %r"
                             % (key, seed, goldens[key], obs))
            print("%s seed %d: %.2f s" % (workload, seed, res.wall(scaled=False)),
                  file=sys.stderr)
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
