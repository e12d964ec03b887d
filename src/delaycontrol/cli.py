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
                   HypothesisViolation, Instance, LinearDriver, TimeGrid, mc_estimate)
from .coeffs import FAMILIES, make_coefficients
from .smdde import NoiseSource, estimate_moment_bound, simulate_coupled_pair, simulate_smdde
from .bsde import (RegressionBasis, assert_linear_driver, cost_functional_J,
                   linear_driver_oracle, solve_bsde_lsmc)
from .adjoint import check_sufficient_mp, solve_adjoints

# hjb, connect and variational are imported by the subcommands that use
# them, so a run loads only what it needs


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")
REQUIRED = object()  # the default of a key that must be set

# Every config field, declared once: field group -> section -> key ->
# (type, default[, lower bound]).  A default of None depends on the
# instance, and the caller of RunConfig.get passes it.  "instance" holds
# what every subcommand reads, [instance2] shares its declaration, and
# COMMANDS names the other groups each subcommand parses.  A key is allowed
# when any group reads it, as one config file serves several subcommands;
# make_coefficients checks the keys of the params sections against the
# family.  load_config reads run.seed, whose default is --seed.
_INSTANCE = {"family": (str, REQUIRED), "lambda": (float, 0.0), "s": (float, 0.0),
             "T": (float, REQUIRED), "dt": (float, REQUIRED), "delay_steps": (int, REQUIRED),
             "u_min": (float, -1.0), "u_max": (float, 1.0), "history": (str, "constant:0.0")}
FIELD_KEYS = {
    "instance": {"run": {"seed": (int, None)}, "instance": _INSTANCE,
                 "numerics": {"n_u": (int, 21, 1)}},
    "driver": {"driver": {"fbar": (float, 0.0), "gbar": (float, 0.0)}},
    "n_paths": {"numerics": {"n_paths": (int, 10_000, 1)}},
    "dump_paths": {"numerics": {"dump_paths": (int, 100, 0)}},
    "basis": {"numerics": {"basis_degree": (int, 2), "eps_reg": (float, 1e-9)}},
    "control": {"control": {"type": (str, "constant"), "perturb": (float, 0.0),
                            "value": (float, 0.0)}},
    "hjb_grid": {"numerics": {"x_min": (float, -3.0), "x_max": (float, 3.0), "nx": (int, 201),
                              "x1_min": (float, -3.0), "x1_max": (float, 3.0),
                              "nx1": (int, 101), "n_t_pde": (int, 200),
                              "x2_ref": (float, 0.0)}},
    "value_output": {"numerics": {"dump_slices": (str, "0"), "hjb_variant": (str, None),
                                  "svg": (bool, False)}},
    "scaling": {"scaling": {"offsets": (str, "0.2,0.1,0.05,0.025"), "t_indices": (str, None),
                            "p": (int, 2, 1)}},
    "moments": {"moments": {"p": (int, 2)}},
    "comparison": {"instance2": _INSTANCE, "comparison": {"tol": (float, None, 0.0)}},
    "seed_plus_1": {},
    "grid_budget": {"numerics": {"grid_budget": (float, 5e-2)}},
}
_FIELDS = {(section, key): spec for group in FIELD_KEYS.values()
           for section, keys in group.items() for key, spec in keys.items()}
_PARAMS_SECTIONS = ("instance.params", "instance2.params")


def _parse(field: str, cast, raw: str, problems: List[str], lower=None):
    """``raw`` as ``cast``; a value that does not parse, a non-finite float or
    one below ``lower`` is recorded in ``problems`` as None."""
    try:
        if cast is bool:
            word = raw.strip().lower()
            if word not in _TRUE + _FALSE:
                raise ValueError(word)
            return word in _TRUE
        value = cast(raw)
    except ValueError:
        problems.append(f"{field}: cannot parse {raw!r} as {cast.__name__}")
        return None
    if cast is float and not np.isfinite(value):
        problems.append(f"{field}: must be finite, got {value}")
        return None
    if lower is not None and value < lower:
        bound = "a positive integer" if lower == 1 else f">= {lower}"
        problems.append(f"{field}: must be {bound}, got {value}")
        return None
    return value


def _history(field: str, raw: str, m: int, problems: List[str]) -> Optional[HistoryPath]:
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
        problems.append(f"{field}: {exc}")
        return None


@dataclass
class RunConfig:
    """Validated run configuration assembled from the INI file and overrides."""

    parser: configparser.ConfigParser
    seed: int
    out_dir: str
    seed_field: str  # "--seed" or "run.seed", whichever set the seed

    def get(self, section: str, key: str, problems: List[str], default=None):
        """One field of ``FIELD_KEYS``, read with its declared type and bound;
        ``default`` is the instance-dependent default of a key declared None.
        A missing required key or a bad value is recorded in ``problems`` as
        None."""
        cast, declared, *lower = _FIELDS[section, key]
        try:
            raw = self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if declared is not REQUIRED:
                return default if declared is None else declared
            problems.append(f"{section}.{key}: required key missing")
            return None
        return _parse(f"{section}.{key}", cast, raw, problems, *lower)

    def build(self, cls, group: str, problems: List[str]):
        """``cls`` called with the keys of the one-section field ``group`` in
        declaration order, or None with the problems recorded."""
        (section, keys), = FIELD_KEYS[group].items()
        args = [self.get(section, key, problems) for key in keys]
        if None in args:
            return None
        try:
            return cls(*args)
        except ConfigurationError as exc:
            problems.append(f"{section}: {exc}")
            return None

    def _params(self, section: str, problems: List[str]) -> Dict[str, float]:
        if not self.parser.has_section(section):
            return {}
        return {k: _parse(f"{section}.{k}", float, v, problems)
                for k, v in self.parser.items(section)}

    def instance(self, problems: List[str], section: str = "instance",
                 with_driver: bool = True) -> Optional[Instance]:
        vals = {key: self.get(section, key, problems) for key in _INSTANCE}
        # [instance2] shares numerics.n_u, which the [instance] read reports
        n_u = self.get("numerics", "n_u", problems if section == "instance" else [])
        family = vals.pop("family")
        if family is not None and family not in FAMILIES:
            problems.append(f"{section}.family: unknown family {family!r} "
                            f"(known: {sorted(FAMILIES)})")
        if family not in FAMILIES or None in vals.values() or n_u is None:
            return None
        try:
            param_problems: List[str] = []
            params = self._params(section + ".params", param_problems)
            if param_problems:
                problems.extend(param_problems)
                return None
            coeffs = make_coefficients(family, lam=vals["lambda"], **params)
            grid = TimeGrid(s=vals["s"], T=vals["T"], dt=vals["dt"],
                            delay_steps=vals["delay_steps"])
            history = _history(f"{section}.history", vals["history"], grid.m, problems)
            domain = ControlDomain(vals["u_min"], vals["u_max"], n_u=n_u)
            if history is None:
                return None
            driver = None
            if with_driver and self.parser.has_section("driver"):
                driver = self.build(LinearDriver, "driver", problems)
            return Instance(coeffs=coeffs, grid=grid, history=history,
                            domain=domain, driver=driver)
        except ConfigurationError as exc:
            problems.append(f"{section}: {exc}")
            return None

    def scaling(self, n_steps: int, problems: List[str]
                ) -> Tuple[Optional[List[float]], Optional[List[int]], Optional[int]]:
        """check-scaling settings: offsets, perturbation indices in
        [0, n_steps - 1] (a variation needs t + dt <= T) and the moment p."""
        from .variational import check_offsets
        raw = self.get("scaling", "offsets", problems)
        try:
            offsets = [float(v) for v in raw.split(",")]
            check_offsets(offsets)
        except ConfigurationError as exc:
            problems.append(f"scaling.offsets: {exc}, got {raw!r}")
            offsets = None
        except ValueError:
            problems.append(f"scaling.offsets: expected comma-separated numbers, got {raw!r}")
            offsets = None
        raw = self.get("scaling", "t_indices", problems, str(max(n_steps // 4, 1)))
        t_indices = _indices("scaling.t_indices", raw, n_steps - 1,
                             "a variation needs t + dt <= T", problems)
        return offsets, t_indices, self.get("scaling", "p", problems)

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


def _unknown_keys(parser: configparser.ConfigParser) -> List[str]:
    """One problem per key that no field group reads; a [DEFAULT] key would
    reach every section, so none is read."""
    known: Dict[str, set] = {}
    for section, key in _FIELDS:
        known.setdefault(section, set()).add(parser.optionxform(key))
    defaults = parser.defaults()
    problems = [f"{parser.default_section}.{key}: unknown section [{parser.default_section}]"
                for key in defaults]
    for section in parser.sections():
        if section in _PARAMS_SECTIONS:
            continue
        keys = [key for key in parser.options(section) if key not in defaults]
        if section not in known:
            problems += [f"{section}.{key}: unknown section [{section}]" for key in keys] or \
                [f"{section}: unknown section [{section}]"]
        else:
            problems += [f"{section}.{key}: unknown key (no subcommand reads it)"
                         for key in keys if key not in known[section]]
    return problems


def load_config(path: Optional[str], overrides: List[str], seed: Optional[int],
                threads: int, out_dir: str) -> RunConfig:
    """Parse the INI file and the overrides and reject keys no subcommand
    reads.  ``threads`` (--threads) is validated and otherwise ignored:
    paths are simulated serially."""
    parser = configparser.ConfigParser(interpolation=None)
    problems: List[str] = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigurationError(f"config: file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(_read_problem(path, exc)) from None
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
    problems += _unknown_keys(parser)
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
        raise ConfigurationError(*problems)
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


def write_kv(path: str, lines: Iterable[str]):
    """Flat ``key=value`` text report, one line each."""
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _unquoted(fields: Sequence[str]) -> Sequence[str]:
    """``fields``; ValueError if one holds a comma, a quote or a line break,
    which ``csv.writer`` would have quoted."""
    bad = [f for f in fields if any(c in f for c in ',"\r\n')]
    if bad:
        raise ValueError(f"fields need csv quoting, which write_table does not do: {bad[:3]}")
    return fields


def write_table(path: str, header: Sequence[str],
                parts: Iterable[Tuple[str, Sequence[Sequence]]]):
    """Every CSV table in ``--out``: the header, then for each
    ``(row_format, columns)`` part one ``row_format % row`` line per row of
    the zipped ``columns`` (lists, ranges or tuples of one length; a shorter
    one raises ``ValueError``).  Rows end in ``\\r\\n`` and nothing is
    quoted, the bytes ``csv.writer`` writes when no field needs quoting; a
    header field or a ``str`` cell holding a comma, a quote or a line break
    raises ``ValueError``.  Floats are ``%.17g`` unless a caller says
    otherwise."""
    header = ",".join(_unquoted(header))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for row_format, columns in parts:
            for col in columns:
                if len(col) and isinstance(col[0], str):
                    _unquoted(col)
            line = row_format + "\r\n"
            fh.writelines(line % row for row in zip(*columns, strict=True))


PATH_BLOCK = 256  # paths per part of write_path_table: bounds the floats .tolist() makes


def write_path_table(path: str, times: np.ndarray, keep: int, names: Sequence[str],
                     arrays: Sequence[np.ndarray]):
    """Per-path table with header path,step,t,<names>: one row per step of the
    first ``keep`` paths (of ``arrays[0]``), the columns read from the
    ``(n_paths, n_steps + 1)`` ``arrays`` and written as ``%.17g``."""
    keep = min(keep, arrays[0].shape[0])
    row = "%d,%d" + ",%.17g" * (1 + len(arrays))
    ts, steps = times.tolist(), range(len(times))
    blocks = (range(lo, min(lo + PATH_BLOCK, keep)) for lo in range(0, keep, PATH_BLOCK))
    write_table(path, ["path", "step", "t", *names],
                ((row, [[p for p in b for _ in steps], [*steps] * len(b), ts * len(b),
                        *(a[b.start:b.stop].ravel().tolist() for a in arrays)]) for b in blocks))


def write_heatmap_svg(path: str, field: np.ndarray, title: str):
    """Minimal self-contained SVG heat map of one (nx, nx1) slice, 560 px
    square under a title line, one ``rect`` per cell (``%d`` truncates each
    colour channel).

    Hand-rolled so the output is byte-stable: no timestamps, no library
    metadata.
    """
    size, (nx, nx1) = 560, field.shape
    lo, hi = float(np.min(field)), float(np.max(field))
    z = (field - lo) / (hi - lo if hi > lo else 1.0)
    cw, ch = size / nx, size / nx1
    j, k = np.indices(field.shape)
    cells = (j * cw, 28 + (nx1 - 1 - k) * ch, 255 * z, 96 * (1.0 - abs(2 * z - 1)), 255 * (1.0 - z))
    rect = (f'<rect x="%.2f" y="%.2f" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
            'fill="rgb(%d,%d,%d)"/>')
    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 28}" '
            f'viewBox="0 0 {size} {size + 28}">',
            f'<title>{title}</title>',
            f'<text x="4" y="16" font-family="monospace" font-size="13">{title} '
            f'[min={lo:.4g}, max={hi:.4g}]</text>',
            *(rect % row for row in zip(*(c.ravel().tolist() for c in cells))),
            "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(rows))


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
    if inst is not None and inst2 is not None and inst2.grid != inst.grid:
        problems.append(f"instance2: {inst2.grid} differs from [instance]'s {inst.grid}; "
                        "both instances share one grid")
    if problems:
        raise ConfigurationError(*problems)
    got = SimpleNamespace(inst=inst, inst2=inst2, ctype=None, grid=None,
                          variant="Gtilde" if inst.driver is not None else "G")
    if "driver" in needs and inst.driver is None:
        note = " (z-free linear form)" if name == "verify" else ""
        problems.append(f"driver: {name} requires a [driver] section{note}")
    if "n_paths" in needs:
        got.n_paths = cfg.get("numerics", "n_paths", problems)
    if "dump_paths" in needs:
        got.keep = cfg.get("numerics", "dump_paths", problems)
    if "basis" in needs:
        got.basis = cfg.build(RegressionBasis, "basis", problems)
    if "control" in needs:
        got.ctype = cfg.get("control", "type", problems)
        if got.ctype not in CONTROL_TYPES:
            problems.append(f"control.type: unknown control type {got.ctype!r} "
                            f"(expected {' | '.join(CONTROL_TYPES)})")
        got.perturb = cfg.get("control", "perturb", problems)
        if got.ctype == "constant":
            got.value = cfg.get("control", "value", problems)
    if "hjb_grid" in needs or got.ctype == "hjb":
        from .hjb import HjbGrid
        got.grid = cfg.build(HjbGrid, "hjb_grid", problems)
    if "value_output" in needs:
        raw = cfg.get("numerics", "dump_slices", problems)
        got.slices = None  # all of them
        if raw != "all" and got.grid is not None:
            got.slices = _indices("numerics.dump_slices", raw, got.grid.n_t, "numerics.n_t_pde",
                                  problems, expected="'all' or comma-separated integers")
        got.variant = cfg.get("numerics", "hjb_variant", problems, got.variant)
        if got.variant not in G_VARIANTS:
            problems.append(f"numerics.hjb_variant: unknown variant {got.variant!r} "
                            f"(expected {' | '.join(G_VARIANTS)})")
        got.svg = cfg.get("numerics", "svg", problems)
    if "scaling" in needs:
        got.offsets, got.t_indices, got.p = cfg.scaling(inst.grid.n_steps, problems)
    if "moments" in needs:
        got.p = cfg.get("moments", "p", problems)
        if got.p is not None and (got.p < 2 or got.p % 2):
            problems.append(f"moments.p: must be an even integer >= 2, got {got.p}")
    if "comparison" in needs:
        got.tol = cfg.get("comparison", "tol", problems, 10.0 * inst.grid.dt)
    if "seed_plus_1" in needs and cfg.seed + 1 > 0xFFFFFFFFFFFFFFFF:
        problems.append(f"{cfg.seed_field}: {name} also draws noise from seed + 1, "
                        f"which must fit in 64 bits; got seed {cfg.seed}")
    if "grid_budget" in needs:
        got.budget = cfg.get("numerics", "grid_budget", problems)
    if problems:
        raise ConfigurationError(*problems)
    return got


def _value_grid(inputs: SimpleNamespace, seed: int):
    """The value function on ``inputs.grid`` for generalized Hamiltonian
    ``inputs.variant``.  A variant that reads the declared driver needs
    ``f`` to have it: that is checked on probes drawn from the run seed
    ``seed``, as ``verify`` checks it."""
    from .hjb import solve_hjb
    inst = inputs.inst
    if inputs.variant != "G" and inst.driver is not None:
        assert_linear_driver(inst.coeffs, inst.driver, seed=seed)
    return solve_hjb(inst.coeffs, inst.domain, inputs.grid, inst.grid,
                     variant=inputs.variant, linear_driver=inst.driver)


def _control(inputs: SimpleNamespace, seed: int):
    """Control from the [control] section: constant value, or the value-grid
    argmax feedback (optionally perturbed by a constant on the first half
    of the horizon); and the value grid, solved when ``inputs.grid`` is set.
    """
    inst = inputs.inst
    vgrid = None if inputs.grid is None else _value_grid(inputs, seed)
    if inputs.ctype == "constant":
        rule = inputs.value
    else:
        from .hjb import feedback_control
        rule = feedback_control(vgrid, inst.domain)
    if inputs.perturb:
        half = 0.5 * (inst.grid.s + inst.grid.T)
        inner = rule

        def rule(t, x, x1, _inner=inner, _half=half, _d=inputs.perturb):
            base_u = _inner(t, x, x1) if callable(_inner) else _inner
            bump = _d if t < _half else 0.0
            return np.asarray(base_u) + bump + 0.0 * np.asarray(x)

    return rule, vgrid


def _simulate(cfg: RunConfig, inputs: SimpleNamespace):
    """Forward paths under the [control] rule, and the value grid (or None)."""
    inst = inputs.inst
    control, vgrid = _control(inputs, cfg.seed)
    return simulate_smdde(inst.coeffs, inst.history, control, inst.grid,
                          NoiseSource(cfg.seed), inputs.n_paths), vgrid


def _solved(cfg: RunConfig, inputs: SimpleNamespace, rows: int = 0):
    """The run's pipeline, solved once for every check that reads it: forward
    paths, their backward solution and adjoints in the configured basis, and
    the value grid (or None).  The adjoints' q2 and p3 are kept on the first
    ``rows`` paths, the ones a writer reads; no checker reads them."""
    coeffs, basis = inputs.inst.coeffs, inputs.basis
    bundle, vgrid = _simulate(cfg, inputs)
    sol = solve_bsde_lsmc(bundle, coeffs, basis)
    return bundle, sol, solve_adjoints(bundle, sol, coeffs, basis, rows), vgrid


# ---------------------------------------------------------------------------
# subcommand implementations: each only computes and writes
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, keep, bundle = inputs.inst, inputs.keep, _simulate(cfg, inputs)[0]
    write_manifest(cfg, "simulate", {"n_diverged": int(bundle.diverged.sum())})
    write_path_table(os.path.join(cfg.out_dir, "trajectories.csv"), inst.grid.times(), keep,
                     ["X", "X1", "X2"], [bundle.X[:, inst.grid.m:], bundle.X1, bundle.X2])
    return 0


def _cmd_solve_bsde(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst, bundle = inputs.inst, _simulate(cfg, inputs)[0]
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
    from .connect import start_state
    inst, vgrid = inputs.inst, _value_grid(inputs, cfg.seed)
    write_manifest(cfg, "solve-hjb")
    its = range(len(vgrid.times)) if inputs.slices is None else inputs.slices
    ts = vgrid.times.tolist()
    x, x1 = (a.ravel().tolist() for a in np.meshgrid(vgrid.xs, vgrid.x1s, indexing="ij"))
    write_table(os.path.join(cfg.out_dir, "value_function.csv"), ["t", "x", "x1", "V", "u_star"],
                (("%.17g,%.17g,%.17g,%.17g,%.17g", [[ts[it]] * len(x), x, x1, *(
                    a[it].ravel().tolist() for a in (vgrid.V, vgrid.u_star))]) for it in its))
    if inputs.svg:
        write_heatmap_svg(os.path.join(cfg.out_dir, "value_t0.svg"), vgrid.V[0],
                          f"V at t={vgrid.times[0]:.3g}")
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
    fractions = report.violation_fraction.tolist()
    write_table(os.path.join(cfg.out_dir, "violations.csv"), ["step", "t", "violation_fraction"],
                [("%d,%.17g,%.17g", [range(len(fractions)), inst1.grid.times().tolist(),
                                     fractions])])
    lines = [f"tol={report.tol:.6g}",
             f"max_violation_fraction={report.max_violation_fraction:.6g}",
             f"worst_violation={report.worst_violation:.6g}",
             f"hypothesis_ok={str(report.hypothesis_ok).lower()}"]
    lines += [f"hypothesis_failure={msg}" for msg in report.hypothesis_failures]
    write_kv(os.path.join(cfg.out_dir, "report.txt"), lines)
    return 0 if report.hypothesis_ok else 3


def _cmd_check_moments(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    inst = inputs.inst
    rep, = estimate_moment_bound(inst.coeffs, inst.history, inst.grid, (inputs.p,),
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
    inst = inputs.inst
    bundle, sol, adjoints, _ = _solved(cfg, inputs, inputs.keep)
    report = check_sufficient_mp(bundle, sol, adjoints, inst.coeffs, inst.domain,
                                 seed=cfg.seed)
    write_manifest(cfg, "check-mp")
    write_kv(os.path.join(cfg.out_dir, "mp_report.txt"), report.kv_lines())
    stored = ("gamma", "p1", "p2", "p3", "q1", "q2")
    write_path_table(os.path.join(cfg.out_dir, "adjoints.csv"), inst.grid.times(),
                     inputs.keep, stored + ("ptilde", "pcheck"),
                     [getattr(adjoints, a) for a in stored]
                     + list(adjoints.normalized(slice(None, inputs.keep))))
    return 0


def _cmd_check_duality(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    from .connect import DualityTimeRecord, check_duality_inclusion
    bundle, _, adjoints, vgrid = _solved(cfg, inputs)
    report = check_duality_inclusion(bundle, adjoints, vgrid, cfg.seed)
    write_manifest(cfg, "check-duality")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), report.kv_lines())
    write_table(os.path.join(cfg.out_dir, "duality_detail.csv"), DualityTimeRecord._fields,
                [("%.17g,%d,%d,%.6f,%.6f,%.6e", list(zip(*report.records)))])
    return 0 if report.applicable else 3


def _cmd_check_scaling(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    from .variational import ScalingRow, scaling_reports
    inst = inputs.inst
    bundle, sol, adjoints, _ = _solved(cfg, inputs)
    reports = [(ti, *scaling_reports(bundle, inst.coeffs, ti, inputs.offsets, p=inputs.p,
                                     solution=sol, adjoints=adjoints))
               for ti in inputs.t_indices]
    write_manifest(cfg, "check-scaling")
    for ti, *pair in reports:
        for name, rep in zip((f"remainders_t{ti}.csv", f"duality_t{ti}.csv"), pair):
            # one row per (quantity, offset), then one slope row per quantity
            write_table(os.path.join(cfg.out_dir, name), ScalingRow._fields,
                        [("%s,%.17g,%.17g,%.17g", list(zip(*rep.rows))),
                         ("%s,slope,%.17g,", list(zip(*sorted(rep.slopes.items()))))])
    return 0


def _cmd_verify(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    from .connect import verify_optimality
    control, vgrid = _control(inputs, cfg.seed)
    report = verify_optimality(inputs.inst, control, vgrid, NoiseSource(cfg.seed),
                               inputs.n_paths, budget=inputs.budget)
    write_manifest(cfg, "verify")
    write_kv(os.path.join(cfg.out_dir, "report.txt"), report.kv_lines())
    write_table(os.path.join(cfg.out_dir, "verification_detail.csv"), ["t", "mean_integrand"],
                [("%.17g,%.17g", list(zip(*report.per_step)))])
    return 0 if report.verdict else 1


def _cmd_girsanov(cfg: RunConfig, inputs: SimpleNamespace) -> int:
    from .connect import girsanov_reduce
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
    mean_weight, weight_se = mc_estimate(w)
    write_kv(os.path.join(cfg.out_dir, "report.txt"), [
        f"mean_weight={mean_weight:.9g}",
        f"weight_se={weight_se:.6g}",
        f"y_s_original_lsmc={sol_p.y_s:.9g}",
        f"y_s_original_se={sol_p.y_s_se:.6g}",
        f"y_s_shifted_oracle={y_q:.9g}",
        f"y_s_shifted_se={se_q:.6g}",
        f"route_gap={abs(sol_p.y_s - y_q):.6g}",
    ])
    return 0


# subcommand: (run, the field groups _inputs parses for it besides the
# instance; FIELD_KEYS declares each group's keys); the README's
# "Configuration" table mirrors it
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
    except ConfigurationError as exc:
        for problem in exc.args:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis gate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
