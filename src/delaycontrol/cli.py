"""Configuration-driven experiment runner.

Every harness in the package is exposed as a subcommand; runs are fully
determined by (config file, overrides, seed) and write a manifest with
the effective-config hash so any output directory can be reproduced.

Exit codes: 0 success (and true verdicts), 1 verification verdict false,
2 invalid configuration, 3 hypothesis-gate failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .core import (ConfigurationError, ControlDomain, HistoryPath, HypothesisViolation,
                   Instance, LinearDriver, TimeGrid)
from .coeffs import FAMILIES, make_coefficients
from .smdde import (NoiseSource, dump_trajectories, estimate_moment_bound,
                    simulate_coupled_pair, simulate_smdde)
from .bsde import (RegressionBasis, cost_functional_J, linear_driver_oracle,
                   solve_bsde_lsmc)
from .adjoint import check_sufficient_mp, dump_adjoints, solve_adjoints, write_mp_report
from .variational import duality_scaling, remainder_scaling, write_scaling_report
from .hjb import (HjbGrid, dump_value_function, feedback_control, heatmap_svg,
                  solve_hjb)
from .connect import (check_duality_inclusion, girsanov_reduce, start_state,
                      verify_optimality, write_duality_detail, write_kv_report,
                      write_verification_detail)

SUBCOMMANDS = ("simulate", "solve-bsde", "solve-hjb", "check-comparison",
               "check-moments", "check-mp", "check-duality", "check-scaling",
               "verify", "girsanov")


class ConfigError(Exception):
    """Invalid configuration; carries field-level diagnostics."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated run configuration assembled from the INI file and overrides."""

    parser: configparser.ConfigParser
    seed: int
    threads: int
    out_dir: str

    def get(self, section: str, key: str, cast, default=None, problems=None):
        try:
            raw = self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is not None or default == 0:
                return default
            if problems is not None:
                problems.append(f"{section}.{key}: required key missing")
            return None
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError:
            if problems is not None:
                problems.append(f"{section}.{key}: cannot parse {raw!r} as {cast.__name__}")
            return None

    def _history(self, section: str, key: str, m: int, delay: float,
                 problems: List[str]) -> Optional[HistoryPath]:
        raw = self.get(section, key, str, default="constant:0.0")
        try:
            kind, _, arg = raw.partition(":")
            if kind == "constant":
                return HistoryPath.constant(float(arg), m)
            if kind == "linear":
                a, b = (float(v) for v in arg.split(","))
                return HistoryPath(np.linspace(a, b, m + 1))
            if kind == "samples":
                vals = np.array([float(v) for v in arg.split(",")])
                if vals.size != m + 1:
                    raise ValueError(f"need {m + 1} samples, got {vals.size}")
                return HistoryPath(vals)
            raise ValueError(f"unknown history kind {kind!r}")
        except ValueError as exc:
            problems.append(f"{section}.{key}: {exc}")
            return None

    def _params(self, section: str, problems: List[str]) -> Dict[str, float]:
        if not self.parser.has_section(section):
            return {}
        out = {}
        for k, v in self.parser.items(section):
            try:
                out[k] = float(v)
            except ValueError:
                problems.append(f"{section}.{k}: cannot parse {v!r} as float")
        return out

    def _driver(self, problems: List[str]) -> Optional[LinearDriver]:
        if not self.parser.has_section("driver"):
            return None
        fbar = self.get("driver", "fbar", float, default=0.0, problems=problems)
        gbar = self.get("driver", "gbar", float, default=0.0, problems=problems)
        return LinearDriver.constants(fbar=fbar or 0.0, gbar=gbar or 0.0)

    def instance(self, section: str = "instance", problems: Optional[List[str]] = None,
                 with_driver: bool = True) -> Optional[Instance]:
        local = [] if problems is None else problems
        family = self.get(section, "family", str, problems=local)
        lam = self.get(section, "lambda", float, default=0.0, problems=local)
        s = self.get(section, "s", float, default=0.0, problems=local)
        T = self.get(section, "T", float, problems=local)
        dt = self.get(section, "dt", float, problems=local)
        delay_steps = self.get(section, "delay_steps", int, problems=local)
        u_min = self.get(section, "u_min", float, default=-1.0, problems=local)
        u_max = self.get(section, "u_max", float, default=1.0, problems=local)
        n_u = self.get("numerics", "n_u", int, default=21, problems=local)
        if family is not None and family not in FAMILIES:
            local.append(f"{section}.family: unknown family {family!r} "
                         f"(known: {sorted(FAMILIES)})")
        if None in (family, T, dt, delay_steps) or family not in FAMILIES:
            return None
        try:
            param_problems: List[str] = []
            params = self._params(section + ".params", param_problems)
            if param_problems:
                local.extend(param_problems)
                return None
            coeffs = make_coefficients(family, lam=lam, **params)
            grid = TimeGrid(s=s, T=T, dt=dt, delay_steps=delay_steps)
            history = self._history(section, "history", grid.m, grid.delay, local)
            domain = ControlDomain(u_min, u_max, n_u=n_u)
            if history is None:
                return None
            driver = self._driver(local) if with_driver else None
            return Instance(coeffs=coeffs, grid=grid, history=history,
                            domain=domain, driver=driver)
        except ConfigurationError as exc:
            local.append(f"{section}: {exc}")
            return None

    def basis(self, problems: List[str]) -> RegressionBasis:
        return RegressionBasis(
            degree=self.get("numerics", "basis_degree", int, default=2, problems=problems),
            eps_reg=self.get("numerics", "eps_reg", float, default=1e-9, problems=problems))

    def hjb_grid(self, problems: List[str]) -> Optional[HjbGrid]:
        vals = dict(
            x_min=self.get("numerics", "x_min", float, default=-3.0, problems=problems),
            x_max=self.get("numerics", "x_max", float, default=3.0, problems=problems),
            nx=self.get("numerics", "nx", int, default=201, problems=problems),
            x1_min=self.get("numerics", "x1_min", float, default=-3.0, problems=problems),
            x1_max=self.get("numerics", "x1_max", float, default=3.0, problems=problems),
            nx1=self.get("numerics", "nx1", int, default=101, problems=problems),
            n_t=self.get("numerics", "n_t_pde", int, default=200, problems=problems),
            x2_ref=self.get("numerics", "x2_ref", float, default=0.0, problems=problems))
        if any(v is None for v in vals.values()):
            return None
        try:
            return HjbGrid(**vals)
        except ConfigurationError as exc:
            problems.append(f"numerics: {exc}")
            return None

    def dump_slices(self, n_t: int, problems: List[str]) -> Optional[List[int]]:
        """Value-grid time slices to dump: None for "all", else indices in [0, n_t]."""
        raw = self.get("numerics", "dump_slices", str, default="0", problems=problems)
        if raw == "all":
            return None
        try:
            slices = [int(v) for v in raw.split(",")]
        except ValueError:
            problems.append(f"numerics.dump_slices: expected 'all' or comma-separated "
                            f"integers, got {raw!r}")
            return None
        outside = [v for v in slices if not 0 <= v <= n_t]
        if outside:
            problems.append(f"numerics.dump_slices: {outside} outside [0, {n_t}] "
                            "(numerics.n_t_pde)")
        return slices

    def n_paths(self, problems: List[str]) -> int:
        return self.get("numerics", "n_paths", int, default=10_000, problems=problems)

    def dump_paths(self, problems: List[str]) -> int:
        return self.get("numerics", "dump_paths", int, default=100, problems=problems)

    def effective_lines(self) -> List[str]:
        # thread count is excluded: results are scheduling-independent
        lines = [f"seed={self.seed}"]
        for section in sorted(self.parser.sections()):
            for key in sorted(self.parser.options(section)):
                lines.append(f"{section}.{key}={self.parser.get(section, key)}")
        return lines

    def config_hash(self) -> str:
        payload = "\n".join(self.effective_lines()).encode()
        return hashlib.sha256(payload).hexdigest()


def load_config(path: Optional[str], overrides: List[str], seed: Optional[int],
                threads: int, out_dir: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    problems: List[str] = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError([f"config: file not found: {path}"])
        parser.read(path, encoding="utf-8")
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq:
            problems.append(f"--set {item!r}: expected key=value")
            continue
        section, dot, option = key.rpartition(".")
        if not dot:
            problems.append(f"--set {item!r}: expected section.key=value")
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value)
    cfg_seed = None
    if parser.has_option("run", "seed"):
        try:
            cfg_seed = int(parser.get("run", "seed"))
        except ValueError:
            problems.append("run.seed: not an integer")
    effective_seed = seed if seed is not None else cfg_seed
    if effective_seed is None:
        problems.append("run.seed: a seed is required (config [run] seed or --seed); "
                        "no entropy default exists")
    if problems:
        raise ConfigError(problems)
    return RunConfig(parser=parser, seed=int(effective_seed), threads=threads,
                     out_dir=out_dir)


def write_manifest(cfg: RunConfig, subcommand: str, extra: Optional[Dict] = None):
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "effective_config": cfg.effective_lines(),
        "versions": {
            "delaycontrol": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# control resolution
# ---------------------------------------------------------------------------

CONTROL_TYPES = ("constant", "hjb")


def _resolve_control(cfg: RunConfig, inst: Instance, problems: List[str],
                     need_hjb: bool = False):
    """Control from the [control] section: constant value, or the value-grid
    argmax feedback (optionally perturbed by a constant on the first half
    of the horizon)."""
    ctype = cfg.get("control", "type", str, default="constant", problems=problems)
    if ctype not in CONTROL_TYPES:
        raise ConfigError([f"control.type: unknown control type {ctype!r} "
                           f"(expected {' | '.join(CONTROL_TYPES)})"])
    perturb = cfg.get("control", "perturb", float, default=0.0, problems=problems)
    vgrid = None
    if ctype == "constant" and not need_hjb:
        base = cfg.get("control", "value", float, default=0.0, problems=problems)
        rule = float(base)
    else:
        grid_cfg = cfg.hjb_grid(problems)
        if grid_cfg is None:
            return None, None
        variant = "Gtilde" if inst.driver is not None else "G"
        vgrid = solve_hjb(inst.coeffs, inst.domain, grid_cfg, inst.grid,
                          variant=variant, linear_driver=inst.driver)
        if ctype == "constant":
            base = cfg.get("control", "value", float, default=0.0, problems=problems)
            rule = float(base)
        else:
            rule = feedback_control(vgrid, inst.domain)
    if perturb:
        half = 0.5 * (inst.grid.s + inst.grid.T)
        inner = rule

        def rule(t, x, x1, _inner=inner, _half=half, _d=perturb, _dom=inst.domain):
            base_u = _inner(t, x, x1) if callable(_inner) else _inner
            bump = _d if t < _half else 0.0
            return np.asarray(base_u) + bump + 0.0 * np.asarray(x)

    return rule, vgrid


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    control, _ = _resolve_control(cfg, inst, problems)
    n_paths = cfg.n_paths(problems)
    bundle = simulate_smdde(inst.coeffs, inst.history, control, inst.grid,
                            NoiseSource(cfg.seed), n_paths, threads=cfg.threads)
    write_manifest(cfg, "simulate", {"n_diverged": int(bundle.diverged.sum())})
    dump_trajectories(bundle, os.path.join(cfg.out_dir, "trajectories.csv"),
                      max_paths=cfg.dump_paths(problems))
    return 0


def _cmd_solve_bsde(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    control, _ = _resolve_control(cfg, inst, problems)
    basis = cfg.basis(problems)
    bundle = simulate_smdde(inst.coeffs, inst.history, control, inst.grid,
                            NoiseSource(cfg.seed), cfg.n_paths(problems),
                            threads=cfg.threads)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
    write_manifest(cfg, "solve-bsde")
    keep = cfg.dump_paths(problems)
    dump_trajectories(bundle, os.path.join(cfg.out_dir, "trajectories.csv"),
                      max_paths=keep, solution=sol)
    times = inst.grid.times()
    with open(os.path.join(cfg.out_dir, "bsde.csv"), "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["path", "step", "t", "Y", "Z"])
        for pth in range(min(keep, bundle.n_paths)):
            for i in range(inst.grid.n_steps + 1):
                out.writerow([pth, i, f"{times[i]:.17g}", f"{sol.Y[pth, i]:.17g}",
                              f"{sol.Z[pth, i]:.17g}"])
    write_kv_report([f"y_s={sol.y_s:.12g}", f"y_s_se={sol.y_s_se:.6g}",
                     f"J={cost_functional_J(sol):.12g}"],
                    os.path.join(cfg.out_dir, "report.txt"))
    return 0


def _cmd_solve_hjb(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    grid_cfg = cfg.hjb_grid(problems)
    if problems or inst is None or grid_cfg is None:
        raise ConfigError(problems or ["instance: invalid"])
    slices = cfg.dump_slices(grid_cfg.n_t, problems)
    if problems:
        raise ConfigError(problems)
    variant = cfg.get("numerics", "hjb_variant", str,
                      default="Gtilde" if inst.driver is not None else "G",
                      problems=problems)
    vgrid = solve_hjb(inst.coeffs, inst.domain, grid_cfg, inst.grid,
                      variant=variant, linear_driver=inst.driver)
    write_manifest(cfg, "solve-hjb")
    dump_value_function(vgrid, os.path.join(cfg.out_dir, "value_function.csv"),
                        slices=slices)
    if cfg.get("numerics", "svg", bool, default=False, problems=problems):
        heatmap_svg(vgrid.V[0], vgrid.xs, vgrid.x1s,
                    os.path.join(cfg.out_dir, "value_t0.svg"),
                    title=f"V at t={vgrid.times[0]:.3g}")
    x0, x10 = start_state(inst)
    write_kv_report([f"v_start={vgrid.value(inst.grid.s, x0, x10):.12g}"],
                    os.path.join(cfg.out_dir, "report.txt"))
    return 0


def _cmd_check_comparison(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst1 = cfg.instance("instance", problems=problems, with_driver=False)
    inst2 = cfg.instance("instance2", problems=problems, with_driver=False)
    if problems or inst1 is None or inst2 is None:
        raise ConfigError(problems or ["instance/instance2: invalid"])
    tol = cfg.get("comparison", "tol", float, default=10.0 * inst1.grid.dt,
                  problems=problems)
    _, _, report = simulate_coupled_pair(
        inst1.coeffs, inst2.coeffs, inst1.history, inst2.history, inst1.grid,
        NoiseSource(cfg.seed), cfg.n_paths(problems), tol=tol, threads=cfg.threads)
    write_manifest(cfg, "check-comparison")
    times = inst1.grid.times()
    with open(os.path.join(cfg.out_dir, "violations.csv"), "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["step", "t", "violation_fraction"])
        for i, frac in enumerate(report.violation_fraction):
            out.writerow([i, f"{times[i]:.17g}", f"{frac:.17g}"])
    lines = [f"tol={report.tol:.6g}",
             f"max_violation_fraction={report.max_violation_fraction:.6g}",
             f"worst_violation={report.worst_violation:.6g}",
             f"hypothesis_ok={str(report.hypothesis_ok).lower()}"]
    lines += [f"hypothesis_failure={msg}" for msg in report.hypothesis_failures]
    write_kv_report(lines, os.path.join(cfg.out_dir, "report.txt"))
    return 0 if report.hypothesis_ok else 3


def _cmd_check_moments(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    p = cfg.get("moments", "p", int, default=2, problems=problems)
    rep = estimate_moment_bound(inst.coeffs, inst.history, inst.grid, p,
                                NoiseSource(cfg.seed), cfg.n_paths(problems),
                                threads=cfg.threads)
    write_manifest(cfg, "check-moments")
    write_kv_report([
        f"p={rep.p}", f"lhs={rep.lhs:.12g}", f"lhs_se={rep.lhs_se:.6g}",
        f"rhs_history={rep.rhs_history:.12g}", f"rhs_drift={rep.rhs_drift:.12g}",
        f"rhs_diffusion={rep.rhs_diffusion:.12g}", f"ratio={rep.ratio:.12g}",
        f"n_diverged={rep.n_diverged}",
    ], os.path.join(cfg.out_dir, "report.txt"))
    return 0


def _pipeline(cfg: RunConfig, problems: List[str], need_hjb: bool):
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    control, vgrid = _resolve_control(cfg, inst, problems, need_hjb=need_hjb)
    basis = cfg.basis(problems)
    bundle = simulate_smdde(inst.coeffs, inst.history, control, inst.grid,
                            NoiseSource(cfg.seed), cfg.n_paths(problems),
                            threads=cfg.threads)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
    return inst, control, vgrid, basis, bundle, sol


def _cmd_check_mp(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst, control, vgrid, basis, bundle, sol = _pipeline(cfg, problems, need_hjb=False)
    adjoints = solve_adjoints(bundle, sol, inst.coeffs, basis)
    report = check_sufficient_mp(bundle, sol, adjoints, inst.coeffs, inst.domain,
                                 seed=cfg.seed)
    write_manifest(cfg, "check-mp")
    write_mp_report(report, os.path.join(cfg.out_dir, "mp_report.txt"))
    dump_adjoints(bundle, adjoints, os.path.join(cfg.out_dir, "adjoints.csv"),
                  max_paths=cfg.dump_paths(problems))
    return 0


def _cmd_check_duality(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    control, vgrid = _resolve_control(cfg, inst, problems, need_hjb=True)
    report = check_duality_inclusion(inst, control, vgrid, NoiseSource(cfg.seed),
                                     cfg.n_paths(problems), basis=cfg.basis(problems),
                                     threads=cfg.threads)
    write_manifest(cfg, "check-duality")
    write_kv_report(report.kv_lines(), os.path.join(cfg.out_dir, "report.txt"))
    write_duality_detail(report, os.path.join(cfg.out_dir, "duality_detail.csv"))
    return 0 if report.applicable else 3


def _cmd_check_scaling(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst, control, vgrid, basis, bundle, sol = _pipeline(cfg, problems, need_hjb=False)
    offsets = [float(v) for v in cfg.get(
        "scaling", "offsets", str, default="0.2,0.1,0.05,0.025",
        problems=problems).split(",")]
    t_indices = [int(v) for v in cfg.get(
        "scaling", "t_indices", str,
        default=str(max(inst.grid.n_steps // 4, 1)), problems=problems).split(",")]
    p = cfg.get("scaling", "p", int, default=2, problems=problems)
    adjoints = solve_adjoints(bundle, sol, inst.coeffs, basis)
    write_manifest(cfg, "check-scaling")
    for ti in t_indices:
        rep = remainder_scaling(bundle, inst.coeffs, ti, offsets, p=p)
        write_scaling_report(rep, os.path.join(cfg.out_dir, f"remainders_t{ti}.csv"))
        repd = duality_scaling(bundle, adjoints, inst.coeffs, basis, ti, offsets)
        write_scaling_report(repd, os.path.join(cfg.out_dir, f"duality_t{ti}.csv"))
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    if inst.driver is None:
        raise ConfigError(["driver: verify requires a [driver] section "
                           "(z-free linear form)"])
    control, vgrid = _resolve_control(cfg, inst, problems, need_hjb=True)
    budget = cfg.get("numerics", "grid_budget", float, default=5e-2, problems=problems)
    report = verify_optimality(inst, control, vgrid, NoiseSource(cfg.seed),
                               cfg.n_paths(problems), budget=budget,
                               threads=cfg.threads)
    write_manifest(cfg, "verify")
    write_kv_report(report.kv_lines(), os.path.join(cfg.out_dir, "report.txt"))
    write_verification_detail(report,
                              os.path.join(cfg.out_dir, "verification_detail.csv"))
    return 0 if report.verdict else 1


def _cmd_girsanov(cfg: RunConfig) -> int:
    problems: List[str] = []
    inst = cfg.instance(problems=problems)
    if problems or inst is None:
        raise ConfigError(problems or ["instance: invalid"])
    if inst.driver is None:
        raise ConfigError(["driver: girsanov requires a [driver] section"])
    reduction = girsanov_reduce(inst)
    n_paths = cfg.n_paths(problems)
    basis = cfg.basis(problems)
    bundle_p = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid,
                              NoiseSource(cfg.seed), n_paths, threads=cfg.threads)
    w = reduction.weights(bundle_p)
    sol_p = solve_bsde_lsmc(bundle_p, inst.coeffs, basis)
    bundle_q = simulate_smdde(reduction.instance.coeffs, inst.history, 0.0, inst.grid,
                              NoiseSource(cfg.seed + 1), n_paths, threads=cfg.threads)
    y_q, se_q = linear_driver_oracle(reduction.instance.coeffs,
                                     reduction.instance.driver, bundle_q)
    write_manifest(cfg, "girsanov")
    write_kv_report([
        f"mean_weight={np.mean(w):.9g}",
        f"weight_se={np.std(w) / np.sqrt(w.size):.6g}",
        f"y_s_original_lsmc={sol_p.y_s:.9g}",
        f"y_s_original_se={sol_p.y_s_se:.6g}",
        f"y_s_shifted_oracle={y_q:.9g}",
        f"y_s_shifted_se={se_q:.6g}",
        f"route_gap={abs(sol_p.y_s - y_q):.6g}",
    ], os.path.join(cfg.out_dir, "report.txt"))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve-bsde": _cmd_solve_bsde,
    "solve-hjb": _cmd_solve_hjb,
    "check-comparison": _cmd_check_comparison,
    "check-moments": _cmd_check_moments,
    "check-mp": _cmd_check_mp,
    "check-duality": _cmd_check_duality,
    "check-scaling": _cmd_check_scaling,
    "verify": _cmd_verify,
    "girsanov": _cmd_girsanov,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="delaycontrol",
        description="Mixed-delay stochastic control toolkit: simulators, "
                    "backward solvers, and theorem checkers.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="INI config file with dotted sections")
    parser.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker pool size")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (section.key=value)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.threads, args.out)
        return _COMMANDS[args.subcommand](cfg)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis gate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
