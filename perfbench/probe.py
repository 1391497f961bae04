"""Set-up probe: in a fresh interpreter, time `import chowfans` plus
parsing one workload's matroid descriptors.  Prints those seconds and the
calibration kernel's seconds, taken around them.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

import calibrate
import inputs


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    descriptors = inputs.descriptors(workload, seed)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    calibrate.sample()  # warm-up
    before = calibrate.sample()
    t = time.perf_counter()
    import chowfans
    if workload == "cli":
        import chowfans.cli  # noqa: F401
    for d in descriptors.values():
        chowfans.matroid_from_json(d)
    seconds = time.perf_counter() - t
    print(repr(seconds), repr((before + calibrate.sample()) / 2))


if __name__ == "__main__":
    main()
