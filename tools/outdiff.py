"""Byte-compare the --out directories of a fixed list of CLI calls between
a git revision and the working tree, and the diagnostics of a fixed list of
bad-config calls.

Usage (from the repository root):

    python3 tools/outdiff.py REV [--seed N]

REV is extracted with ``git archive`` into a temporary directory.  Every
call runs in a fresh process (``python -m delaycontrol.cli``) once against
REV's ``src/`` and once against the working tree's, on identical configs:
the three perfbench workload configs at one seed, every subcommand on the
LQ and CMP configs of ``tests/test_cli.py``, ``check-scaling`` and
``check-mp`` on a linear and a bilinear instance, ``check-mp`` and
``check-duality`` on a linear instance where some paths diverge,
``check-comparison`` on a bilinear pair, and ``girsanov`` on the config of its ``test_girsanov_report``.  One line is
printed per output file; a call that exits 3 on either side also has its
stderr text compared.  The bad-config calls carry one fault each, at least
one per subcommand and one per error of the ``solve_hjb`` prologue, and two
carry two faults; their exit code and exact stderr text are compared, and one
line is printed per call.  The exit status is 1 if any exit code, stderr
text, file list or file differs, else 0.
"""

from __future__ import annotations

import argparse
import ast
import filecmp
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the linear instance with a z-dependent linear driver of test_girsanov_report
GIRSANOV_INI = """
[instance]
family = linear
lambda = 0.3
s = 0.0
T = 0.5
dt = 0.01
delay_steps = 5
history = constant:1.0

[instance.params]
bx = 0.2
s0 = 0.3
fy = -0.1
fz = 0.3

[driver]
fbar = -0.1
gbar = 0.3

[numerics]
n_paths = 2000

[run]
seed = 4
"""

# the girsanov instance with a terminal cost and controls in b and sigma (else
# V is zero), on a value grid small enough to write every slice
GIRSANOV_HJB = [arg for item in ("instance.params.phix=0.5", "instance.params.bu=0.5",
                                 "instance.params.su=0.2", "numerics.nx=61",
                                 "numerics.nx1=31", "numerics.n_t_pde=60",
                                 "numerics.dump_slices=all") for arg in ("--set", item)]

# the LQ config's [instance.params] replaced: a linear instance, whose b,
# sigma and f slopes are all nonzero constants, and a bilinear one, whose b
# and sigma slopes depend on the state, so check-scaling and check-mp run
# both the recorded-constant path and the evaluated one
FAMILY_PARAMS = {
    "linear": {"b0": 0.1, "bx": -0.3, "bx1": 0.2, "bx2": 0.1, "bu": 0.5, "s0": 0.2,
               "sx": 0.1, "sx1": 0.05, "sx2": -0.05, "fx": -0.2, "fx1": 0.1, "fx2": 0.05,
               "fy": -0.1, "fz": 0.05, "fu": 0.1, "phix": 0.3, "phix1": -0.1},
    "bilinear": {"bx": 0.2, "bxx1": 0.5, "bxx2": -0.3, "bu": 0.5, "s0": 0.2, "sx": 0.1,
                 "sxx1": 0.2, "sxx2": 0.1, "fx": -0.2, "fy": -0.1, "phix": 0.3},
}

# the linear instance free of x1 and x2, with bx=5 and sx=20: 113 of its 400
# paths diverge, so the adjoint readers and max|x| meet NaN rows, 3 of them
# among the 20 dumped; the value grid is coarse in x for the HJB step bound
DIVERGING = [arg for item in ("instance.params.bx=5", "instance.params.sx=20",
                              *(f"instance.params.{k}=0" for k in
                                ("bx1", "sx1", "fx1", "phix1", "bx2", "sx2", "fx2")),
                              "numerics.dump_paths=20", "numerics.nx=9",
                              "numerics.n_t_pde=7000") for arg in ("--set", item)]

# (name, config, argv without --config/--out)
TEST_CALLS: List[Tuple[str, str, List[str]]] = [
    ("simulate", "lq", ["simulate"]),
    ("simulate-threads2", "lq", ["simulate", "--threads", "2",
                                 "--set", "numerics.n_paths=5000"]),
    # every path of a second chunk and of partial noise blocks, 20 steps each
    ("simulate-long-dump", "lq", ["simulate", "--set", "numerics.n_paths=4163",
                                  "--set", "numerics.dump_paths=4163",
                                  "--set", "instance.T=0.2"]),
    ("solve-bsde", "lq", ["solve-bsde"]),
    ("solve-bsde-ridge", "lq", ["solve-bsde", "--set", "numerics.eps_reg=0"]),
    ("solve-hjb", "lq", ["solve-hjb", "--set", "numerics.dump_slices=all",
                         "--set", "numerics.svg=yes"]),
    ("solve-hjb-gbar", "lq", ["solve-hjb", "--set", "numerics.hjb_variant=Gbar",
                              "--set", "driver.gbar=0.3"]),
    ("solve-hjb-gtilde", "lq", ["solve-hjb", "--set", "numerics.hjb_variant=Gtilde",
                                "--set", "driver.fbar=0.1"]),
    ("solve-hjb-g", "lq", ["solve-hjb", "--set", "numerics.hjb_variant=G",
                           "--set", "numerics.dump_slices=all"]),
    # a linear instance whose f reads z: G forms f at p * sigma, Gbar shifts
    # the drift by sigma * g
    ("solve-hjb-girsanov-g", "girsanov", ["solve-hjb", *GIRSANOV_HJB,
                                          "--set", "numerics.hjb_variant=G"]),
    ("solve-hjb-girsanov-gbar", "girsanov", ["solve-hjb", *GIRSANOV_HJB,
                                             "--set", "numerics.hjb_variant=Gbar"]),
    ("check-mp", "lq", ["check-mp"]),
    # no ridge: collinear designs escalate it, and check-mp rebuilds the
    # adjoint sweeps from the escalated factors
    ("check-mp-ridge", "lq", ["check-mp", "--set", "numerics.eps_reg=0"]),
    ("check-mp-threads2", "lq", ["check-mp", "--threads", "2",
                                 "--set", "numerics.n_paths=5000"]),
    ("check-mp-hjb", "lq", ["check-mp", "--set", "control.type=hjb"]),
    # a feedback-control record across a chunk boundary, read by every sweep
    ("check-mp-hjb-long", "lq", ["check-mp", "--set", "control.type=hjb",
                                 "--set", "numerics.n_paths=4163"]),
    ("check-mp-perturb", "lq", ["check-mp", "--set", "control.perturb=0.2",
                                "--set", "numerics.n_paths=333"]),
    ("check-duality", "lq", ["check-duality"]),
    # the pipeline the duality checker reads, under a feedback-control record
    # and under a perturbed rule
    ("check-duality-hjb", "lq", ["check-duality", "--set", "control.type=hjb"]),
    ("check-duality-perturb", "lq", ["check-duality", "--set", "control.perturb=0.2",
                                     "--set", "numerics.n_paths=333"]),
    ("check-scaling", "lq", ["check-scaling"]),
    ("check-scaling-hjb", "lq", ["check-scaling", "--set", "control.type=hjb"]),
    ("check-scaling-perturb", "lq", ["check-scaling", "--set", "control.perturb=0.2",
                                     "--set", "numerics.n_paths=333"]),
    ("check-scaling-linear", "linear", ["check-scaling"]),
    ("check-scaling-bilinear", "bilinear", ["check-scaling"]),
    ("check-mp-linear", "linear", ["check-mp"]),
    ("check-mp-bilinear", "bilinear", ["check-mp"]),
    ("check-mp-diverged", "linear", ["check-mp", *DIVERGING]),
    ("check-duality-diverged", "linear", ["check-duality", *DIVERGING]),
    ("verify", "lq", ["verify"]),
    ("girsanov", "girsanov", ["girsanov"]),
    ("check-comparison", "cmp", ["check-comparison"]),
    ("check-moments", "cmp", ["check-moments"]),
    # the per-chunk reductions across a chunk boundary, with and without
    # diverged paths (bx=400, sx=20: 450 of 4163 moment paths diverge)
    ("check-comparison-long", "cmp", ["check-comparison", "--set", "numerics.n_paths=4163"]),
    ("check-comparison-diverged", "cmp", ["check-comparison", "--set", "numerics.n_paths=4163",
                                          "--set", "instance.params.bx=400",
                                          "--set", "instance2.params.bx=400",
                                          "--set", "instance.params.sx=20",
                                          "--set", "instance2.params.sx=20"]),
    ("check-moments-long", "cmp", ["check-moments", "--set", "numerics.n_paths=4163"]),
    # bilinear b_x and sigma_x read x2: the order-flip count evaluates both
    # slopes on every step of a chunk (25,794 flips, exit 3)
    ("check-comparison-bilinear", "cmp", ["check-comparison", "--set", "numerics.n_paths=4163",
                                          *(arg for inst in ("instance", "instance2")
                                            for item in ("family=bilinear", "params.sx=20",
                                                         "params.bxx2=0.5", "params.sxx2=3")
                                            for arg in ("--set", f"{inst}.{item}"))]),
    ("check-moments-diverged", "cmp", ["check-moments", "--set", "numerics.n_paths=4163",
                                       "--set", "instance.params.bx=400",
                                       "--set", "instance.params.sx=20"]),
]

# one fault each unless stated; "lq-nodriver" and "lq-nodt" are the LQ config without its
# [driver] section and without instance.dt
BAD_CALLS: List[Tuple[str, str, List[str]]] = [
    ("bad-simulate-family", "lq", ["simulate", "--set", "instance.family=woble"]),
    ("bad-simulate-n_paths", "lq", ["simulate", "--set", "numerics.n_paths=-1"]),
    ("bad-simulate-threads", "lq", ["simulate", "--threads", "0"]),
    ("bad-solve-bsde-basis", "lq", ["solve-bsde", "--set", "numerics.basis_degree=abc"]),
    ("bad-solve-hjb-slices", "lq", ["solve-hjb", "--set", "numerics.dump_slices=500"]),
    ("bad-solve-hjb-svg", "lq", ["solve-hjb", "--set", "numerics.svg=abc"]),
    ("bad-check-comparison-tol", "cmp", ["check-comparison", "--set", "comparison.tol=abc"]),
    ("bad-check-moments-p", "cmp", ["check-moments", "--set", "moments.p=abc"]),
    ("bad-check-mp-control", "lq", ["check-mp", "--set", "control.type=bogus"]),
    ("bad-check-mp-dump_paths", "lq", ["check-mp", "--set", "numerics.dump_paths=-1"]),
    ("bad-check-duality-nx", "lq", ["check-duality", "--set", "numerics.nx=abc"]),
    ("bad-check-scaling-offsets", "lq", ["check-scaling", "--set", "scaling.offsets=0.1,x"]),
    ("bad-check-scaling-t_indices", "lq", ["check-scaling", "--set", "scaling.t_indices=100"]),
    ("bad-verify-budget", "lq", ["verify", "--set", "numerics.grid_budget=abc"]),
    ("bad-verify-nodriver", "lq-nodriver", ["verify"]),
    ("bad-girsanov-nodriver", "lq-nodriver", ["girsanov"]),
    # one per column of cli.FIELD_KEYS: a required key, a bound, the shared
    # [instance2] declaration, the known keys; then a non-finite float and
    # too few offsets
    ("bad-simulate-nodt", "lq-nodt", ["simulate"]),
    ("bad-check-comparison-tol-negative", "cmp", ["check-comparison",
                                                  "--set", "comparison.tol=-1"]),
    ("bad-check-comparison-instance2", "cmp", ["check-comparison", "--set", "instance2.dt=q"]),
    ("bad-check-scaling-p", "lq", ["check-scaling", "--set", "scaling.p=0"]),
    ("bad-simulate-unknown-key", "lq", ["simulate", "--set", "numerics.npaths=5"]),
    ("bad-simulate-dt-nan", "lq", ["simulate", "--set", "instance.dt=nan"]),
    ("bad-check-scaling-offsets-few", "lq", ["check-scaling",
                                             "--set", "scaling.offsets=0.2,0.1"]),
    # numerics.n_u, read once for both instances, and moments.p checked with
    # the other fields
    ("bad-check-comparison-n_u", "cmp", ["check-comparison", "--set", "numerics.n_u=abc"]),
    ("bad-check-comparison-n_u-zero", "cmp", ["check-comparison", "--set", "numerics.n_u=0"]),
    ("bad-check-moments-p-odd", "cmp", ["check-moments", "--set", "moments.p=3"]),
    # each error of the solve_hjb prologue: the CFL bound (on the linear config
    # b reads x, x1, x2 and u), the x2 gate (exit 3) and a variant without
    # its driver
    ("bad-solve-hjb-cfl", "lq", ["solve-hjb", "--set", "numerics.n_t_pde=5"]),
    ("bad-solve-hjb-cfl-linear", "linear", ["solve-hjb"]),
    ("bad-solve-hjb-x2-gate", "linear", ["solve-hjb", "--set", "numerics.n_t_pde=400"]),
    ("bad-solve-hjb-gbar-nodriver", "lq-nodriver", ["solve-hjb",
                                                     "--set", "numerics.hjb_variant=Gbar"]),
    # two faults, one config error line each: both from load_config, then
    # both from the parse pass
    ("bad-simulate-load-two", "lq", ["simulate", "--set", "numerics.bogus=1", "--threads", "0"]),
    ("bad-simulate-parse-two", "lq", ["simulate", "--set", "numerics.n_paths=-1",
                                      "--set", "numerics.dump_paths=-1"]),
]


def test_configs() -> Dict[str, str]:
    """LQ_INI and CMP_INI as written in tests/test_cli.py."""
    with open(os.path.join(ROOT, "tests", "test_cli.py")) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LQ_INI", "CMP_INI"):
                found[name[:-4].lower()] = ast.literal_eval(node.value)
    return found


def calls(seed: int) -> List[Tuple[str, str, List[str], bool]]:
    """(name, config text, argv without --config/--out, is a bad-config call)
    for every call."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    out = [(name, wl.ini_text(seed), [wl.subcommand, "--threads", str(wl.threads)], False)
           for name, wl in WORKLOADS.items()]
    configs = dict(test_configs(), girsanov=GIRSANOV_INI)
    configs["lq-nodriver"] = configs["lq"].replace("[driver]\nfbar = 0.0\ngbar = 0.0\n", "")
    configs["lq-nodt"] = configs["lq"].replace("dt = 0.01\n", "")
    lq_params = configs["lq"][configs["lq"].index("[instance.params]"):
                              configs["lq"].index("[driver]")]
    for family, params in FAMILY_PARAMS.items():
        block = "".join(f"{k} = {v}\n" for k, v in params.items())
        configs[family] = configs["lq"].replace(lq_params, f"[instance.params]\n{block}\n") \
            .replace("family = linear_quadratic", f"family = {family}")
    out += [(name, configs[config], argv, False) for name, config, argv in TEST_CALLS]
    out += [(name, configs[config], argv, True) for name, config, argv in BAD_CALLS]
    return out


def run(tree: str, argv: List[str], config: str, out: str) -> Tuple[int, str]:
    """Exit code and stderr text of one call."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "delaycontrol.cli", *argv,
                           "--config", config, "--out", out],
                          env=env, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


def compare(name: str, old: str, new: str) -> int:
    names = sorted(set(os.listdir(old) if os.path.isdir(old) else [])
                   | set(os.listdir(new) if os.path.isdir(new) else []))
    differences = 0
    for fname in names:
        a, b = os.path.join(old, fname), os.path.join(new, fname)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            status = "MISSING"
        elif filecmp.cmp(a, b, shallow=False):
            status = "same"
        else:
            status = "DIFFERS"
        differences += status != "same"
        print(f"{status:8s} {name}/{fname}")
    return differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, default=601, help="perfbench workload seed")
    args = parser.parse_args()
    differences = 0
    with tempfile.TemporaryDirectory(prefix="outdiff-") as tmp:
        base = os.path.join(tmp, "rev")
        os.makedirs(base)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        for name, text, argv, bad in calls(args.seed):
            config = os.path.join(tmp, f"{name}.ini")
            with open(config, "w") as fh:
                fh.write(text)
            (code_old, err_old), (code_new, err_new) = (
                run(tree, argv, config, os.path.join(tmp, side, name))
                for side, tree in (("rev", base), ("work", ROOT)))
            if not bad and code_new not in (0, 1, 3):
                print(err_new, file=sys.stderr)
            if code_old != code_new:
                print(f"{'DIFFERS':8s} {name}: exit {code_old} at {args.rev}, "
                      f"{code_new} in the working tree")
                differences += 1
            if bad or 3 in (code_old, code_new):
                status = "same" if err_old == err_new else "DIFFERS"
                print(f"{status:8s} {name}: stderr (exit {code_new})")
                differences += status != "same"
            differences += compare(name, os.path.join(tmp, "rev", name),
                                   os.path.join(tmp, "work", name))
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
