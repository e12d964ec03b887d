"""Configuration-driven experiment runner.

Every harness in the package is exposed as a subcommand; runs are fully
determined by (config file, overrides, seed) and write a manifest with
the effective-config hash so any output directory can be reproduced.

Exit codes: 0 success (and true verdicts), 1 verification verdict false,
2 invalid configuration (a bad field, or an INI file that cannot be
parsed), 3 hypothesis-gate failure, including the numerical aborts raised
as ``HypothesisViolation`` (gamma crossing zero, a non-finite perturbed
path, no valid path left to check).
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
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (G_VARIANTS, ConfigurationError, ControlDomain, HistoryPath,
                   HypothesisViolation, Instance, LinearDriver, TimeGrid)
from .coeffs import FAMILIES, make_coefficients
from .smdde import NoiseSource, estimate_moment_bound, simulate_coupled_pair, simulate_smdde
from .bsde import (RegressionBasis, cost_functional_J, linear_driver_oracle,
                   solve_bsde_lsmc)
from .adjoint import check_sufficient_mp, solve_adjoints
from .variational import check_offsets, scaling_reports
from .hjb import HjbGrid, feedback_control, heatmap_svg, solve_hjb
from .connect import check_duality_inclusion, girsanov_reduce, start_state, verify_optimality

class ConfigError(Exception):
    """Invalid configuration; carries field-level diagnostics."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


@dataclass
class RunConfig:
    """Validated run configuration assembled from the INI file and overrides."""

    parser: configparser.ConfigParser
    seed: int
    out_dir: str
    seed_field: str  # "--seed" or "run.seed", whichever set the seed

    def get(self, section: str, key: str, cast, problems: List[str], default=None, lower=None):
        """One field; a missing key without a default, a value that does not
        parse, or one below ``lower`` is recorded in ``problems`` as None."""
        try:
            raw = self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is not None:
                return default
            problems.append(f"{section}.{key}: required key missing")
            return None
        try:
            if cast is bool:
                word = raw.strip().lower()
                if word not in _TRUE + _FALSE:
                    raise ValueError(word)
                return word in _TRUE
            value = cast(raw)
        except ValueError:
            problems.append(f"{section}.{key}: cannot parse {raw!r} as {cast.__name__}")
            return None
        if lower is not None and value < lower:
            bound = "a positive integer" if lower == 1 else f">= {lower}"
            problems.append(f"{section}.{key}: must be {bound}, got {value}")
            return None
        return value

    def _history(self, section: str, key: str, m: int, delay: float,
                 problems: List[str]) -> Optional[HistoryPath]:
        raw = self.get(section, key, str, problems, "constant:0.0")
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

    def instance(self, problems: List[str], section: str = "instance",
                 with_driver: bool = True) -> Optional[Instance]:
        family = self.get(section, "family", str, problems=problems)
        lam = self.get(section, "lambda", float, default=0.0, problems=problems)
        s = self.get(section, "s", float, default=0.0, problems=problems)
        T = self.get(section, "T", float, problems=problems)
        dt = self.get(section, "dt", float, problems=problems)
        delay_steps = self.get(section, "delay_steps", int, problems=problems)
        u_min = self.get(section, "u_min", float, default=-1.0, problems=problems)
        u_max = self.get(section, "u_max", float, default=1.0, problems=problems)
        n_u = self.get("numerics", "n_u", int, default=21, problems=problems)
        if family is not None and family not in FAMILIES:
            problems.append(f"{section}.family: unknown family {family!r} "
                            f"(known: {sorted(FAMILIES)})")
        if family not in FAMILIES or None in (lam, s, T, dt, delay_steps, u_min, u_max, n_u):
            return None
        try:
            param_problems: List[str] = []
            params = self._params(section + ".params", param_problems)
            if param_problems:
                problems.extend(param_problems)
                return None
            coeffs = make_coefficients(family, lam=lam, **params)
            grid = TimeGrid(s=s, T=T, dt=dt, delay_steps=delay_steps)
            history = self._history(section, "history", grid.m, grid.delay, problems)
            domain = ControlDomain(u_min, u_max, n_u=n_u)
            if history is None:
                return None
            driver = self._driver(problems) if with_driver else None
            return Instance(coeffs=coeffs, grid=grid, history=history,
                            domain=domain, driver=driver)
        except ConfigurationError as exc:
            problems.append(f"{section}: {exc}")
            return None

    def basis(self, problems: List[str]) -> Optional[RegressionBasis]:
        degree = self.get("numerics", "basis_degree", int, default=2, problems=problems)
        eps_reg = self.get("numerics", "eps_reg", float, default=1e-9, problems=problems)
        if degree is None or eps_reg is None:
            return None
        try:
            return RegressionBasis(degree=degree, eps_reg=eps_reg)
        except ConfigurationError as exc:
            problems.append(f"numerics: {exc}")
            return None

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

    def scaling(self, n_steps: int, problems: List[str]
                ) -> Tuple[Optional[List[float]], Optional[List[int]], Optional[int]]:
        """check-scaling settings: offsets, perturbation indices in
        [0, n_steps - 1] (a variation needs t + dt <= T) and the moment p."""
        raw = self.get("scaling", "offsets", str, default="0.2,0.1,0.05,0.025",
                       problems=problems)
        try:
            offsets = [float(v) for v in raw.split(",")]
            check_offsets(offsets)
        except ValueError:
            problems.append(f"scaling.offsets: expected comma-separated numbers, got {raw!r}")
            offsets = None
        except ConfigurationError as exc:
            problems.append(f"scaling.offsets: {exc}, got {raw!r}")
            offsets = None
        raw = self.get("scaling", "t_indices", str, default=str(max(n_steps // 4, 1)),
                       problems=problems)
        t_indices = _indices("scaling.t_indices", raw, n_steps - 1,
                             "a variation needs t + dt <= T", problems)
        return offsets, t_indices, self.get("scaling", "p", int, problems, 2, lower=1)

    def effective_lines(self) -> List[str]:
        lines = [f"seed={self.seed}"]
        for section in sorted(self.parser.sections()):
            for key in sorted(self.parser.options(section)):
                lines.append(f"{section}.{key}={self.parser.get(section, key)}")
        return lines

    def config_hash(self) -> str:
        payload = "\n".join(self.effective_lines()).encode()
        return hashlib.sha256(payload).hexdigest()


def _indices(field: str, raw: str, top: int, why: str, problems: List[str],
             expected: str = "comma-separated integers") -> Optional[List[int]]:
    """Comma-separated integers in [0, top]; ``why`` says what sets ``top``."""
    try:
        values = [int(v) for v in raw.split(",")]
    except ValueError:
        problems.append(f"{field}: expected {expected}, got {raw!r}")
        return None
    outside = [v for v in values if not 0 <= v <= top]
    if outside:
        problems.append(f"{field}: {outside} outside [0, {top}] ({why})")
    return values


def _read_problem(path: str, exc: Exception) -> str:
    """One diagnostic line for an INI file that cannot be read."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{exc.section}.{exc.option}: duplicate key ({path}, line {exc.lineno})"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"config: no [section] header before line {exc.lineno} of {path}"
    return f"config: cannot read {path}: " + " ".join(str(exc).split())


def load_config(path: Optional[str], overrides: List[str], seed: Optional[int],
                threads: int, out_dir: str) -> RunConfig:
    """Parse the INI file and the overrides.  ``threads`` (--threads) is
    validated and otherwise ignored: paths are simulated serially."""
    parser = configparser.ConfigParser(interpolation=None)
    problems: List[str] = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError([f"config: file not found: {path}"])
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError([_read_problem(path, exc)]) from None
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq:
            problems.append(f"--set {item!r}: expected key=value")
            continue
        section, dot, option = key.rpartition(".")
        if not dot:
            problems.append(f"--set {item!r}: expected section.key=value")
            continue
        if section == parser.default_section:
            problems.append(f"--set {item!r}: [{section}] is not a settable section")
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
    seed_field = "run.seed" if seed is None else "--seed"
    if effective_seed is None:
        problems.append("run.seed: a seed is required (config [run] seed or --seed); "
                        "no entropy default exists")
    else:
        try:
            NoiseSource(effective_seed)
        except ConfigurationError as exc:
            problems.append(f"{seed_field}: {exc}")
    if threads < 1:
        problems.append(f"--threads: must be a positive integer, got {threads}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(parser=parser, seed=int(effective_seed), out_dir=out_dir,
                     seed_field=seed_field)


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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]):
    """Every CSV in ``--out``: ``csv.writer`` quoting and ``\\r\\n`` row ends;
    callers format floats (``%.17g`` unless stated otherwise)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_kv(path: str, lines: Iterable[str]):
    """Flat ``key=value`` text report, one line each."""
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_path_table(path: str, times: np.ndarray, keep: int, names: Sequence[str],
                     arrays: Sequence[np.ndarray]):
    """Per-path table with header path,step,t,<names>: one row per step of the
    first ``keep`` paths, the columns read from the ``(n_paths, n_steps + 1)``
    ``arrays`` and written as ``%.17g``."""
    write_csv(path, ["path", "step", "t", *names],
              ([pth, i, f"{t:.17g}"] + [f"{arr[pth, i]:.17g}" for arr in arrays]
               for pth in range(min(keep, arrays[0].shape[0]))
               for i, t in enumerate(times)))


# ---------------------------------------------------------------------------
# the parse pass
# ---------------------------------------------------------------------------

CONTROL_TYPES = ("constant", "hjb")


def _inputs(cfg: RunConfig, name: str, needs: Sequence[str]) -> SimpleNamespace:
    """Parse the instance and every field group in ``needs`` of subcommand
    ``name`` and raise all problems before anything is solved.  Instance
    problems are raised first: the other groups' defaults depend on it."""
    problems: List[str] = []
    inst = cfg.instance(problems, with_driver="comparison" not in needs)
    inst2 = (cfg.instance(problems, "instance2", with_driver=False)
             if "comparison" in needs else None)
    if problems:
        raise ConfigError(problems)
    got = SimpleNamespace(inst=inst, inst2=inst2, ctype=None, grid=None,
                          variant="Gtilde" if inst.driver is not None else "G")
    if "driver" in needs and inst.driver is None:
        note = " (z-free linear form)" if name == "verify" else ""
        problems.append(f"driver: {name} requires a [driver] section{note}")
    if "n_paths" in needs:
        got.n_paths = cfg.get("numerics", "n_paths", int, problems, 10_000, lower=1)
    if "dump_paths" in needs:
        got.keep = cfg.get("numerics", "dump_paths", int, problems, 100, lower=0)
    if "basis" in needs:
        got.basis = cfg.basis(problems)
    if "control" in needs:
        got.ctype = cfg.get("control", "type", str, problems, "constant")
        if got.ctype not in CONTROL_TYPES:
            problems.append(f"control.type: unknown control type {got.ctype!r} "
                            f"(expected {' | '.join(CONTROL_TYPES)})")
        got.perturb = cfg.get("control", "perturb", float, problems, 0.0)
        if got.ctype == "constant":
            got.value = cfg.get("control", "value", float, problems, 0.0)
    if "hjb_grid" in needs or got.ctype == "hjb":
        got.grid = cfg.hjb_grid(problems)
    if "value_output" in needs:
        raw = cfg.get("numerics", "dump_slices", str, problems, "0")
        got.slices = None  # all of them
        if raw != "all" and got.grid is not None:
            got.slices = _indices("numerics.dump_slices", raw, got.grid.n_t, "numerics.n_t_pde",
                                  problems, expected="'all' or comma-separated integers")
        got.variant = cfg.get("numerics", "hjb_variant", str, problems, got.variant)
        if got.variant not in G_VARIANTS:
            problems.append(f"numerics.hjb_variant: unknown variant {got.variant!r} "
                            f"(expected {' | '.join(G_VARIANTS)})")
        got.svg = cfg.get("numerics", "svg", bool, problems, False)
    if "scaling" in needs:
        got.offsets, got.t_indices, got.p = cfg.scaling(inst.grid.n_steps, problems)
    if "moments" in needs:
        got.p = cfg.get("moments", "p", int, problems, 2)
    if "comparison" in needs:
        got.tol = cfg.get("comparison", "tol", float, problems, 10.0 * inst.grid.dt,
                          lower=0.0)
    if "seed_plus_1" in needs and cfg.seed + 1 > 0xFFFFFFFFFFFFFFFF:
        problems.append(f"{cfg.seed_field}: {name} also draws noise from seed + 1, "
                        f"which must fit in 64 bits; got seed {cfg.seed}")
    if "grid_budget" in needs:
        got.budget = cfg.get("numerics", "grid_budget", float, problems, 5e-2)
    if problems:
        raise ConfigError(problems)
    return got


def _value_grid(inputs: SimpleNamespace):
    """The value function on ``inputs.grid`` for generalized Hamiltonian ``inputs.variant``."""
    inst = inputs.inst
    return solve_hjb(inst.coeffs, inst.domain, inputs.grid, inst.grid,
                     variant=inputs.variant, linear_driver=inst.driver)


def _control(inputs: SimpleNamespace):
    """Control from the [control] section: constant value, or the value-grid
    argmax feedback (optionally perturbed by a constant on the first half
    of the horizon); and the value grid, solved when ``inputs.grid`` is set.
    """
    inst = inputs.inst
    vgrid = None if inputs.grid is None else _value_grid(inputs)
    rule = inputs.value if inputs.ctype == "constant" else feedback_control(vgrid, inst.domain)
    if inputs.perturb:
        half = 0.5 * (inst.grid.s + inst.grid.T)
        inner = rule

        def rule(t, x, x1, _inner=inner, _half=half, _d=inputs.perturb):
            base_u = _inner(t, x, x1) if callable(_inner) else _inner
            bump = _d if t < _half else 0.0
            return np.asarray(base_u) + bump + 0.0 * np.asarray(x)

    return rule, vgrid


def _simulate(cfg: RunConfig, inputs: SimpleNamespace):
    """Forward paths under the [control] rule."""
    inst = inputs.inst
    return simulate_smdde(inst.coeffs, inst.history, _control(inputs)[0], inst.grid,
                          NoiseSource(cfg.seed), inputs.n_paths)


# ---------------------------------------------------------------------------
# subcommand implementations: each only computes and writes
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, keep, bundle = inputs.inst, inputs.keep, _simulate(cfg, inputs)
    write_manifest(cfg, "simulate", {"n_diverged": int(bundle.diverged.sum())})
    write_path_table(os.path.join(cfg.out_dir, "trajectories.csv"), inst.grid.times(), keep,
                     ["X", "X1", "X2"], [bundle.X[:, inst.grid.m:], bundle.X1, bundle.X2])
    return 0


def _cmd_solve_bsde(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, bundle = inputs.inst, _simulate(cfg, inputs)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, inputs.basis)
    write_manifest(cfg, "solve-bsde")
    times, keep = inst.grid.times(), inputs.keep
    write_path_table(os.path.join(cfg.out_dir, "trajectories.csv"), times, keep,
                     ["X", "X1", "X2", "Y", "Z"],
                     [bundle.X[:, inst.grid.m:], bundle.X1, bundle.X2, sol.Y, sol.Z])
    write_path_table(os.path.join(cfg.out_dir, "bsde.csv"), times, keep, ["Y", "Z"],
                     [sol.Y, sol.Z])
    write_kv(os.path.join(cfg.out_dir, "report.txt"),
             [f"y_s={sol.y_s:.12g}", f"y_s_se={sol.y_s_se:.6g}",
              f"J={cost_functional_J(sol):.12g}"])
    return 0


def _cmd_solve_hjb(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, vgrid = inputs.inst, _value_grid(inputs)
    write_manifest(cfg, "solve-hjb")
    its = range(len(vgrid.times)) if inputs.slices is None else inputs.slices
    write_csv(os.path.join(cfg.out_dir, "value_function.csv"), ["t", "x", "x1", "V", "u_star"],
              ([f"{vgrid.times[it]:.17g}", f"{x:.17g}", f"{x1:.17g}",
                f"{vgrid.V[it, j, k]:.17g}", f"{vgrid.u_star[it, j, k]:.17g}"]
               for it in its for j, x in enumerate(vgrid.xs) for k, x1 in enumerate(vgrid.x1s)))
    if inputs.svg:
        heatmap_svg(vgrid.V[0], vgrid.xs, vgrid.x1s,
                    os.path.join(cfg.out_dir, "value_t0.svg"),
                    title=f"V at t={vgrid.times[0]:.3g}")
    x0, x10 = start_state(inst)
    write_kv(os.path.join(cfg.out_dir, "report.txt"),
             [f"v_start={vgrid.value(inst.grid.s, x0, x10):.12g}"])
    return 0


def _cmd_check_comparison(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst1, inst2 = inputs.inst, inputs.inst2
    report = simulate_coupled_pair(
        inst1.coeffs, inst2.coeffs, inst1.history, inst2.history, inst1.grid,
        NoiseSource(cfg.seed), inputs.n_paths, tol=inputs.tol)
    write_manifest(cfg, "check-comparison")
    times = inst1.grid.times()
    write_csv(os.path.join(cfg.out_dir, "violations.csv"), ["step", "t", "violation_fraction"],
              ([i, f"{times[i]:.17g}", f"{frac:.17g}"]
               for i, frac in enumerate(report.violation_fraction)))
    lines = [f"tol={report.tol:.6g}",
             f"max_violation_fraction={report.max_violation_fraction:.6g}",
             f"worst_violation={report.worst_violation:.6g}",
             f"hypothesis_ok={str(report.hypothesis_ok).lower()}"]
    lines += [f"hypothesis_failure={msg}" for msg in report.hypothesis_failures]
    write_kv(os.path.join(cfg.out_dir, "report.txt"), lines)
    return 0 if report.hypothesis_ok else 3


def _cmd_check_moments(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst = inputs.inst
    rep = estimate_moment_bound(inst.coeffs, inst.history, inst.grid, inputs.p,
                                NoiseSource(cfg.seed), inputs.n_paths)
    write_manifest(cfg, "check-moments")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), [
        f"p={rep.p}", f"lhs={rep.lhs:.12g}", f"lhs_se={rep.lhs_se:.6g}",
        f"rhs_history={rep.rhs_history:.12g}", f"rhs_drift={rep.rhs_drift:.12g}",
        f"rhs_diffusion={rep.rhs_diffusion:.12g}", f"ratio={rep.ratio:.12g}",
        f"n_diverged={rep.n_diverged}",
    ])
    return 0


def _cmd_check_mp(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, bundle = inputs.inst, _simulate(cfg, inputs)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, inputs.basis)
    adjoints = solve_adjoints(bundle, sol, inst.coeffs, inputs.basis)
    report = check_sufficient_mp(bundle, sol, adjoints, inst.coeffs, inst.domain,
                                 seed=cfg.seed)
    write_manifest(cfg, "check-mp")
    write_kv(os.path.join(cfg.out_dir, "mp_report.txt"), report.lines())
    names = ("gamma", "p1", "p2", "p3", "q1", "q2", "ptilde", "pcheck")
    write_path_table(os.path.join(cfg.out_dir, "adjoints.csv"), inst.grid.times(),
                     inputs.keep, names, [getattr(adjoints, a) for a in names])
    return 0


def _cmd_check_duality(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    control, vgrid = _control(inputs)
    report = check_duality_inclusion(inputs.inst, control, vgrid, NoiseSource(cfg.seed),
                                     inputs.n_paths, basis=inputs.basis)
    write_manifest(cfg, "check-duality")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), report.kv_lines())
    write_csv(os.path.join(cfg.out_dir, "duality_detail.csv"),
              ["t", "n_points", "n_skipped", "membership_pass_fraction",
               "smooth_fraction", "median_identity_rel_err"],
              ([f"{r.t:.17g}", r.n_points, r.n_skipped, f"{r.membership_pass_fraction:.6f}",
                f"{r.smooth_fraction:.6f}", f"{r.median_identity_rel_err:.6e}"]
               for r in report.records))
    return 0 if report.applicable else 3


def _scaling_rows(report):
    """One row per (quantity, offset), then one slope row per quantity."""
    for row in report.rows:
        yield [row.quantity, f"{row.offset:.17g}", f"{row.estimate:.17g}",
               f"{row.std_error:.17g}"]
    for key, slope in sorted(report.slopes.items()):
        yield [key, "slope", f"{slope:.17g}", ""]


def _cmd_check_scaling(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, basis, bundle = inputs.inst, inputs.basis, _simulate(cfg, inputs)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
    adjoints = solve_adjoints(bundle, sol, inst.coeffs, basis)
    reports = [(ti, *scaling_reports(bundle, inst.coeffs, ti, inputs.offsets, p=inputs.p,
                                     adjoints=adjoints, basis=basis))
               for ti in inputs.t_indices]
    write_manifest(cfg, "check-scaling")
    for ti, *pair in reports:
        for name, rep in zip((f"remainders_t{ti}.csv", f"duality_t{ti}.csv"), pair):
            write_csv(os.path.join(cfg.out_dir, name),
                      ["quantity", "offset", "estimate", "std_error"], _scaling_rows(rep))
    return 0


def _cmd_verify(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    control, vgrid = _control(inputs)
    report = verify_optimality(inputs.inst, control, vgrid, NoiseSource(cfg.seed),
                               inputs.n_paths, budget=inputs.budget)
    write_manifest(cfg, "verify")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), report.kv_lines())
    write_csv(os.path.join(cfg.out_dir, "verification_detail.csv"), ["t", "mean_integrand"],
              ([f"{t:.17g}", f"{v:.17g}"] for t, v in report.per_step))
    return 0 if report.verdict else 1


def _cmd_girsanov(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, n_paths = inputs.inst, inputs.n_paths
    reduction = girsanov_reduce(inst)
    noise_p, noise_q = NoiseSource(cfg.seed), NoiseSource(cfg.seed + 1)
    bundle_p = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid, noise_p, n_paths)
    w = reduction.weights(bundle_p)
    sol_p = solve_bsde_lsmc(bundle_p, inst.coeffs, inputs.basis)
    bundle_q = simulate_smdde(reduction.instance.coeffs, inst.history, 0.0, inst.grid,
                              noise_q, n_paths)
    y_q, se_q = linear_driver_oracle(reduction.instance.coeffs,
                                     reduction.instance.driver, bundle_q)
    write_manifest(cfg, "girsanov")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), [
        f"mean_weight={np.mean(w):.9g}",
        f"weight_se={np.std(w) / np.sqrt(w.size):.6g}",
        f"y_s_original_lsmc={sol_p.y_s:.9g}",
        f"y_s_original_se={sol_p.y_s_se:.6g}",
        f"y_s_shifted_oracle={y_q:.9g}",
        f"y_s_shifted_se={se_q:.6g}",
        f"route_gap={abs(sol_p.y_s - y_q):.6g}",
    ])
    return 0


# subcommand: (run, the field groups _inputs parses for it besides the
# instance); the README's "Configuration" table mirrors it
COMMANDS = {
    "simulate": (_cmd_simulate, ("n_paths", "dump_paths", "control")),
    "solve-bsde": (_cmd_solve_bsde, ("n_paths", "dump_paths", "basis", "control")),
    "solve-hjb": (_cmd_solve_hjb, ("hjb_grid", "value_output")),
    "check-comparison": (_cmd_check_comparison, ("comparison", "n_paths")),
    "check-moments": (_cmd_check_moments, ("moments", "n_paths")),
    "check-mp": (_cmd_check_mp, ("n_paths", "dump_paths", "basis", "control")),
    "check-duality": (_cmd_check_duality, ("n_paths", "basis", "control", "hjb_grid")),
    "check-scaling": (_cmd_check_scaling, ("n_paths", "basis", "control", "scaling")),
    "verify": (_cmd_verify, ("driver", "n_paths", "control", "hjb_grid", "grid_budget")),
    "girsanov": (_cmd_girsanov, ("driver", "n_paths", "basis", "seed_plus_1")),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="delaycontrol",
        description="Mixed-delay stochastic control toolkit: simulators, "
                    "backward solvers, and theorem checkers.")
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", help="INI config file with dotted sections")
    parser.add_argument("--seed", type=int, default=None, help="64-bit run seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored (must be >= 1); "
                             "paths are simulated serially")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (section.key=value)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.threads, args.out)
        run, needs = COMMANDS[args.subcommand]
        return run(cfg, _inputs(cfg, args.subcommand, needs))
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
