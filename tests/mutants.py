"""A standing mutation suite: each mutant breaks one step of a kernel on
purpose, and the tests named beside it must fail.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants
    python tests/mutants.py --list

A mutant replaces one exact snippet of a file under src/chowfans in a
fresh copy of src/ in a temporary directory, and its tests (files or node
ids under tests/) run against that copy with -x.  A mutant whose tests
all pass survives.  A snippet that does not occur exactly once in its
file is stale: the table follows the code, so a refactor that moves a
snippet must move its mutant too.  The exit status is 1 if any mutant
survives, is stale or cannot run its tests, else 0.  It needs only the
standard library and pytest, with hypothesis for the tests.

A kernel change adds its mutants here.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 900

CHAIN = "test_chain_kernel.py"
CHOW = "test_chow_kernel.py"
RELATION = CHAIN + "::test_relation_matches_the_fraction_solve"
SHARED_CUT = CHAIN + "::test_relation_on_a_shared_cut_slot_matches_the_fraction_solve"
EVERY_CONE = CHAIN + "::test_relation_at_every_cone_matches_the_fraction_solve"
PIN = CHAIN + "::test_products_and_balancing_build_no_dual_basis"
BY_COLUMN = CHOW + "::test_pairing_matrix_walked_by_column_equals_the_row_walks"
RAY_SUMS = "test_kernel.py::test_divisor_product_is_sum_of_ray_products"
FAN_OUT = CHAIN + "::test_fan_out_matches_fraction_reference"
EVERY_RAY = CHAIN + "::test_fan_out_of_every_ray_at_every_cone_matches_the_reference"
IDENTITY_WITNESSES = ("test_biflags.py::"
                      "test_identity_witnesses_when_a_product_is_nonzero")
PRODUCTS = CHOW + "::test_products_match_fraction_reference"

# name -> (file under src/chowfans, snippet, replacement, tests); a
# deterministic test comes first where one kills the mutant, so that the
# kill does not wait on hypothesis finding an example
MUTANTS = {
    # the block-local relations, support-only balancing and the pairing
    # matrix walked by column
    "relation-drops-kappa-comparison": (
        "fans.py",
        "                elif x + y - W != kappa:\n",
        "                elif False:\n",
        [EVERY_CONE]),
    "relation-reads-a-cut-block-as-covered": (
        "fans.py",
        "                elif S & A:\n                    cut_a.append((S, w))\n",
        "                elif S & A:\n                    x += w\n",
        [EVERY_CONE, SHARED_CUT]),
    "relation-flips-the-kappa-step": (
        "fans.py",
        "                        lam[j] += kappa\n",
        "                        lam[j] -= kappa\n",
        [EVERY_CONE, RELATION, SHARED_CUT]),
    "balancing-skips-the-last-facet": (
        "fans.py",
        "for j in range(dim)}",
        "for j in range(dim - 1)}",
        [CHAIN + "::test_check_balanced_equals_the_full_sweep"]),
    "pairing-matrix-walks-one-level-short": (
        "chow.py",
        "_pairings(ChowElement(fan, len(tau), {tau: 1}))",
        "_pairings(ChowElement(fan, len(tau) + 1, {tau: 1}))",
        [BY_COLUMN]),
    # the one divisor-product kernel, chow._times, and the fans' fan-out
    # hook it calls, read slot by slot off the chain
    "times-drops-the-m-term": (
        "fans.py",
        "x = a.get(rho, 0) - (above if labels[rho] & bit else below)",
        "x = a.get(rho, 0)",
        [EVERY_RAY, RAY_SUMS, FAN_OUT, PRODUCTS]),
    "times-reads-a-as-0-in-the-fan-out": (
        "fans.py",
        "                x = a.get(rho, 0) - m\n",
        "                x = 0 - m\n",
        [RAY_SUMS, FAN_OUT, PRODUCTS]),
    "times-never-fans-out": (
        "chow.py",
        "        if not a.keys().isdisjoint(cone):\n",
        "        if False:\n",
        [RAY_SUMS, FAN_OUT, PRODUCTS]),
    "fan-out-swaps-below-and-above": (
        "fans.py",
        "slots[j] = (v[j], v[j + 1], B & -B)",
        "slots[j] = (v[j + 1], v[j], B & -B)",
        [EVERY_RAY, RAY_SUMS, FAN_OUT]),
    "fan-out-drops-the-q-correction": (
        "fans.py",
        "        if empty:\n            q, S0, F0 = 0, 0, full\n",
        "        if False:\n            q, S0, F0 = 0, 0, full\n",
        [EVERY_RAY, FAN_OUT]),
    "fan-out-misses-the-top-slot": (
        "fans.py",
        "    slots = range(k + 1)\n",
        "    slots = range(k)\n",
        [EVERY_RAY, RAY_SUMS, FAN_OUT]),
    "identity-walks-e3-after-e1-fails": (
        "biflags.py",
        "e2_is_zero = (checks[\"chern-delta-polynomial\"] is None\n"
        "                  and ",
        "e2_is_zero = (",
        [IDENTITY_WITNESSES]),
    # mutants recorded by earlier kernel changes, on today's code
    "flag-relation-adds-w-plus-x": (
        "fans.py",
        "lam[j - 1] += sum(w for _, w in parts) - x",
        "lam[j - 1] += sum(w for _, w in parts) + x",
        [EVERY_CONE, RELATION]),
    "biflag-relation-adds-w-plus-d": (
        "fans.py",
        "lam[j - 1] += W - d",
        "lam[j - 1] += W + d",
        [EVERY_CONE, RELATION]),
    "biflag-relation-drops-the-kappa-steps": (
        "fans.py",
        "        if kappa:\n",
        "        if False:\n",
        [EVERY_CONE, RELATION, SHARED_CUT]),
    "biflag-functional-flips-c0": (
        "fans.py",
        "                    if c and F & q:\n                        m += empty\n",
        "                    if c and F & q:\n                        m -= empty\n",
        [EVERY_RAY, PIN,
         CHAIN + "::test_functional_and_span_match_the_dual_basis_path"]),
    "fan-weight-is-a-plain-dict": (
        "fans.py",
        "self.weight = MappingProxyType(dict.fromkeys(self.maximal_cones, 1))",
        "self.weight = dict.fromkeys(self.maximal_cones, 1)",
        [CHAIN + "::test_the_fan_weight_is_read_only"]),
    "fundamental-weight-skips-its-sweep": (
        "chow.py",
        "    for tau in fan.cones_of_dim(fan.top_dim - 1):\n"
        "        if fan._top_relation(tau) is None:\n",
        "    for tau in ():\n"
        "        if fan._top_relation(tau) is None:\n",
        [CHAIN + "::test_fundamental_weight_fills_the_relation_table"]),
    "walk-leaf-flips-its-sign": (
        "chow.py",
        "v -= c * lam[sigma.index(rho)]",
        "v += c * lam[sigma.index(rho)]",
        [BY_COLUMN, CHOW + "::test_pairings_match_fraction_walk"]),
    "walk-leaf-adds-2c": (
        "chow.py",
        "                else:\n                    v += c\n",
        "                else:\n                    v += 2 * c\n",
        [BY_COLUMN, CHOW + "::test_pairings_match_fraction_walk"]),
    "cap-reverses-lambda": (
        "chow.py",
        "sum(map(mul, lam, [a[i] for i in tau]))",
        "sum(map(mul, lam[::-1], [a[i] for i in tau]))",
        [PIN, CHOW + "::test_cap_products_match_fraction_reference"]),
    "divisor-form-drops-the-den-of-w": (
        "rings.py",
        "        return out, den * scale\n",
        "        return out, den\n",
        ["test_mult_matrix.py::test_divisor_form_pairs_the_products_with_the_basis"]),
    "degree-zero-column-over-den-1": (
        "rings.py",
        "return [[a] for a in nums], scale",
        "return [[a] for a in nums], 1",
        ["test_mult_matrix.py::test_multiplication_out_of_degree_zero_is_the_class"]),
    "inertia-drops-the-prev-division": (
        "linalg.py",
        "f = f * h // prev",
        "f = f * h",
        ["test_kernel.py::test_inertia",
         "test_kernel.py::test_inertia_matches_fraction_elimination"]),
    "load-matroid-lets-recursion-through": (
        "cli.py",
        "except (ValueError, OSError, RecursionError) as exc:",
        "except (ValueError, OSError) as exc:",
        ["test_cli.py::test_deeply_nested_descriptor_is_usage_error"]),
    "lams-drops-the-length-bound": (
        "cli.py",
        "if len(x) > MAX_LAM or e.isdecimal() and int(e) > MAX_LAM:",
        "if e.isdecimal() and int(e) > MAX_LAM:",
        ["test_cli.py::test_huge_twist_parameter_is_usage_error"]),
    "lams-drops-the-exponent-bound": (
        "cli.py",
        "if len(x) > MAX_LAM or e.isdecimal() and int(e) > MAX_LAM:",
        "if len(x) > MAX_LAM:",
        ["test_cli.py::test_huge_twist_parameter_is_usage_error"]),
}


def run(name):
    """'killed', 'survived', 'stale' or 'error: ...' for one mutant."""
    path, snippet, replacement, tests = MUTANTS[name]
    tmp = tempfile.mkdtemp(prefix="chowfans-mutant-")
    try:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, "chowfans", path)
        with open(target) as f:
            text = f.read()
        if text.count(snippet) != 1:
            return "stale"
        with open(target, "w") as f:
            f.write(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
               "no:cacheprovider", *(os.path.join("tests", t) for t in tests)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error: timed out after %d s" % TIMEOUT_S
        # pytest exits 1 when a test fails and 2 when a file fails to
        # import; anything else means the tests did not run
        if proc.returncode == 0:
            return "survived"
        if proc.returncode in (1, 2):
            return "killed"
        return "error: pytest exited %d\n%s" % (proc.returncode,
                                               proc.stdout[-2000:])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    if args.list:
        for name, (path, _, _, tests) in MUTANTS.items():
            print("%s  %s  %s" % (name, path, " ".join(tests)))
        return 0
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error("no mutant named %s" % ", ".join(unknown))
    bad = 0
    for name in args.names or MUTANTS:
        start = time.perf_counter()
        verdict = run(name)
        bad += verdict != "killed"
        print("%-40s %s (%.0f s)" % (name, verdict, time.perf_counter() - start),
              flush=True)
    print("%d of %d mutants not killed" % (bad, len(args.names or MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
