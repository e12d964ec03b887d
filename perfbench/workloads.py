"""Workload definitions: the INI config each workload generates from its seed,
the CLI argv it runs, and the correctness gates on its output directory.

Every gate holds for any seed and reads only the program's own reports, so a
change that legitimately alters the random streams still passes them.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

# The linear-quadratic benchmark of tests/conftest.py (dt 0.01, m 10, x0 0.6).
LQ_PARAMS = {"a": "0.1", "bu": "0.5", "sigma0": "0.2", "q": "0.15", "r": "1.0"}

# Riccati value of the quadratic-terminal instance at x0 = 0.6, t = 0
# (the closed-form oracle of acceptance criterion 4).
RICCATI_V_START = 0.129461

SCALING = {"t_indices": "20,50,80", "offsets": "0.2,0.1,0.05,0.025"}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    terminal: Dict[str, str]
    numerics: Dict[str, str]
    control: Dict[str, str]
    threads: int
    gate: Callable[[str], List[str]]
    scaling: Dict[str, str] = field(default_factory=dict)

    def ini_text(self, seed: int) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp["instance"] = {"family": "linear_quadratic", "lambda": "0.5", "s": "0.0",
                          "T": "1.0", "dt": "0.01", "delay_steps": "10",
                          "history": "constant:0.6", "u_min": "-1.0", "u_max": "1.0"}
        cp["instance.params"] = {**LQ_PARAMS, **self.terminal}
        cp["driver"] = {"fbar": "0.0", "gbar": "0.0"}
        cp["numerics"] = {"basis_degree": "2", **self.numerics}
        cp["control"] = self.control
        if self.scaling:
            cp["scaling"] = self.scaling
        cp["run"] = {"seed": str(seed)}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def argv(self, config: str, out: str) -> List[str]:
        return [self.subcommand, "--config", config, "--out", out,
                "--threads", str(self.threads)]


def read_kv(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").partition("=")[::2] for line in fh if "=" in line)


def read_slopes(path: str) -> Dict[str, float]:
    with open(path, newline="") as fh:
        return {row[0]: float(row[2]) for row in csv.reader(fh) if row[1] == "slope"}


def _gate_mp(out: str) -> List[str]:
    rep = read_kv(os.path.join(out, "mp_report.txt"))
    problems = [f"{key} is not {want}" for key, want in (
        ("convexity_ok", "true"), ("phi_linear_ok", "true"), ("p3_zero_ok", "true"),
        # constant 0.1 is suboptimal, so the variational inequality must fail
        ("variational_ok", "false")) if rep.get(key) != want]
    if abs(float(rep["phi_m"]) - 0.3) > 1e-6:
        problems.append(f"phi_m {rep['phi_m']} is not 0.3")
    if not os.path.getsize(os.path.join(out, "adjoints.csv")):
        problems.append("adjoints.csv is empty")
    return problems


def _gate_verify(out: str) -> List[str]:
    rep = read_kv(os.path.join(out, "report.txt"))
    problems = [] if rep.get("verdict") == "true" else ["verdict is not true"]
    gap, j_se = float(rep["gap"]), float(rep["j_se"])
    if not abs(gap) <= 3.0 * j_se + 0.05:
        problems.append(f"|gap| {gap:.3g} exceeds 3*j_se + 0.05")
    v_start = float(rep["v_start"])
    if not abs(v_start - RICCATI_V_START) <= 5e-2:
        problems.append(f"v_start {v_start:.6g} is not within 5e-2 of {RICCATI_V_START}")
    return problems


def _gate_scaling(out: str) -> List[str]:
    problems = []
    for ti in SCALING["t_indices"].split(","):
        rem = read_slopes(os.path.join(out, f"remainders_t{ti}.csv"))
        dual = read_slopes(os.path.join(out, f"duality_t{ti}.csv"))
        checks = [(k, rem[k], abs(rem[k] - 2.0) <= 0.2)
                  for k in ("sup_xhat", "sup_xhat1", "sup_xhat2")]
        checks += [(k, rem[k], rem[k] >= 2.5 or math.isinf(rem[k]))
                   for k in ("eps1_int", "eps2_int")]
        checks.append(("abs_ytilde_t", dual["abs_ytilde_t"], dual["abs_ytilde_t"] >= 1.5))
        problems += [f"t{ti} {k} slope {v:.4g} out of range" for k, v, ok in checks if not ok]
    return problems


# Sizes are scaled down from the ROADMAP baseline so one CLI call takes a
# few seconds and a run holds several back-to-back calls.
WORKLOADS: Dict[str, Workload] = {
    # LSMC, adjoint sweeps, noise and the adjoint writer; no HJB.
    "mp_lsmc": Workload(
        subcommand="check-mp", terminal={"phi_lin": "0.3"},
        numerics={"n_paths": "8000", "dump_paths": "20"},
        control={"type": "constant", "value": "0.1"}, threads=2, gate=_gate_mp),
    # The HJB sweep dominates; no LSMC regression at all.
    "hjb_verify": Workload(
        subcommand="verify", terminal={"phi_quad": "-0.15"},
        numerics={"n_paths": "3000", "n_u": "41", "nx": "101", "nx1": "51",
                  "n_t_pde": "100"},
        control={"type": "hjb"}, threads=1, gate=_gate_verify),
    # 25 short sub-horizon LSMC solves and the variational layer; no HJB.
    "scaling_resolve": Workload(
        subcommand="check-scaling", terminal={"phi_quad": "-0.15"},
        numerics={"n_paths": "500", "dump_paths": "20"},
        control={"type": "constant", "value": "0.1"}, threads=1, gate=_gate_scaling,
        scaling=SCALING),
}
