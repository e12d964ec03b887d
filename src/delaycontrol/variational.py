"""Perturbation machinery: coupled state variations and their scalings.

Starting from a base run under a fixed control, the state is restarted at
one grid time t with a bumped value x' = X(t) + h while keeping the
pre-t segment and the Brownian increments unchanged.  The resulting
difference paths (Xhat, Xhat1, Xhat2), the averaged-derivative remainders
(eps1, eps2) of the linearized dynamics, and the duality combination

    Ytilde(r) = -Y_pert(r) + Y_base(r) - ptilde(r)*Xhat(r) - pcheck(r)*Xhat1(r)

are the measurable quantities behind the first-order expansion of the
value process: |Xhat| scales like h, the eps-remainders like o(h^p) in
p-th mean, and E|Ytilde(t)| like o(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ConfigurationError, HypothesisViolation, TimeGrid
from .bsde import RegressionBasis, solve_bsde_lsmc
from .smdde import TrajectoryBundle, _step_chunk, path_array

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)     # map to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# path-steps per remainder slab: 16 steps at 500 paths keeps a slab's arrays
# (64 KiB each) in cache
_SLAB_PATH_STEPS = 8192


@dataclass
class PerturbationRun:
    """Coupled base/perturbed paths restarted at one grid time.

    All arrays live on the sub-horizon [t, T]; the difference paths are
    zero on [t - delta, t) by construction, and Xhat2 vanishes on
    [t, t + delta) exactly.
    """

    t_index: int
    offset: float
    sub_grid: TimeGrid
    base_sub: TrajectoryBundle
    pert: TrajectoryBundle
    Xhat: np.ndarray
    Xhat1: np.ndarray
    Xhat2: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray


def _remainders(bundle: TrajectoryBundle, coeffs, t_index: int, Xhat: np.ndarray,
                Xhat1: np.ndarray, Xhat2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """eps1/eps2 on the steps t_index..n-1: each derivative's Gauss-Legendre
    average of d(base + theta*hat) - d(base) over theta in [0, 1] (exact for
    polynomial integrands of degree <= 15), times the matching hat component.

    Averaging the gap rather than the derivative keeps the result exactly
    zero for constant derivatives, so linear families produce identically
    vanishing remainders instead of rounding dust.  Steps are taken in slabs
    of (n_paths, slab) arrays; every element sees the same operations in the
    same order as a step-by-step evaluation, so the result is bit-identical.
    """
    grid = bundle.grid
    m, n = grid.m, grid.n_steps
    n_paths, n_sub = bundle.n_paths, n - t_index
    derivs = (coeffs.b_x, coeffs.b_x1, coeffs.b_x2,
              coeffs.sigma_x, coeffs.sigma_x1, coeffs.sigma_x2)
    eps1 = np.empty((n_paths, n_sub))
    eps2 = np.empty((n_paths, n_sub))
    slab = max(1, _SLAB_PATH_STEPS // n_paths)
    for j0 in range(0, n_sub, slab):
        j1 = min(j0 + slab, n_sub)
        i0, i1 = t_index + j0, t_index + j1
        steps = np.arange(i0, i1)
        t = grid.time(steps)
        u = bundle.u_at(steps)
        x, x1, x2 = bundle.X[:, i0 + m : i1 + m], bundle.X1[:, i0:i1], bundle.X[:, i0:i1]
        hx, hx1, hx2 = Xhat[:, j0:j1], Xhat1[:, j0:j1], Xhat2[:, j0:j1]
        stars = [d(t, x, x1, x2, u) for d in derivs]
        gaps = [0.0] * len(derivs)
        for theta, w in zip(_GL_NODES, _GL_WEIGHTS):
            xs, x1s, x2s = x + theta * hx, x1 + theta * hx1, x2 + theta * hx2
            gaps = [g + w * (d(t, xs, x1s, x2s, u) - star)
                    for g, d, star in zip(gaps, derivs, stars)]
        eps1[:, j0:j1] = gaps[0] * hx + gaps[1] * hx1 + gaps[2] * hx2
        eps2[:, j0:j1] = gaps[3] * hx + gaps[4] * hx1 + gaps[5] * hx2
    return eps1, eps2


def simulate_variation(bundle: TrajectoryBundle, coeffs, t_index: int,
                       offset: float) -> PerturbationRun:
    """Re-run the dynamics from grid time t with the state bumped by ``offset``.

    The perturbed path consumes the increments stored in the base bundle
    (exact coupling: offset 0 reproduces the base bit for bit), keeps the
    same per-step control, and restarts the distributed-delay state at its
    base value.  It is stepped by the simulation's own Euler loop, so a path
    that turns non-finite or leaves [-1e12, 1e12] diverges, which aborts the
    run.  The remainders eps1/eps2 measure how far the realized difference
    dynamics are from their linearization around the base path.
    """
    if bundle.dW is None:
        raise ConfigurationError("base bundle must store increments for coupling")
    grid = bundle.grid
    m, n, dt = grid.m, grid.n_steps, grid.dt
    if not (0 <= t_index <= n - 1):
        raise ConfigurationError("perturbation time must satisfy t + dt <= T")
    n_paths, n_sub = bundle.n_paths, n - t_index
    sub_dW = bundle.dW[:, t_index:]
    Xp = path_array(n_paths, n_sub + m + 1)
    Xp[:, : m + 1] = bundle.X[:, t_index : t_index + m + 1]
    Xp[:, m] += offset
    X1p = path_array(n_paths, n_sub + 1)
    # the distributed delay restarts at its base value
    _step_chunk(coeffs, bundle.u, grid, sub_dW, Xp, X1p, None, start=t_index,
                x1_start=bundle.X1[:, t_index])
    finite = np.isfinite(Xp[:, m + 1 :])
    if not finite.all():
        k = int(np.argmin(finite.all(axis=0)))
        raise HypothesisViolation(
            f"perturbed path became non-finite at step {t_index + k} "
            f"(path {int(np.argmin(finite[:, k]))}); offset too large for this instance")

    sub_grid = TimeGrid(s=grid.time(t_index), T=grid.T, dt=dt, delay_steps=m)
    sub_u = bundle.u_at(np.arange(t_index, n))
    base_sub = TrajectoryBundle(grid=sub_grid, X=bundle.X[:, t_index:],
                                X1=bundle.X1[:, t_index:], u=sub_u, dW=sub_dW,
                                diverged=bundle.diverged)
    pert = TrajectoryBundle(grid=sub_grid, X=Xp, X1=X1p, u=sub_u, dW=sub_dW,
                            diverged=bundle.diverged)

    Xhat = Xp[:, m:] - bundle.X[:, t_index + m :]
    Xhat1 = X1p - bundle.X1[:, t_index:]
    Xhat2 = Xp[:, : n_sub + 1] - bundle.X[:, t_index : n + 1]

    eps1, eps2 = _remainders(bundle, coeffs, t_index, Xhat, Xhat1, Xhat2)
    return PerturbationRun(t_index=t_index, offset=offset, sub_grid=sub_grid,
                           base_sub=base_sub, pert=pert, Xhat=Xhat, Xhat1=Xhat1,
                           Xhat2=Xhat2, eps1=eps1, eps2=eps2)


# ---------------------------------------------------------------------------
# scaling regressions
# ---------------------------------------------------------------------------

@dataclass
class ScalingRow:
    quantity: str
    offset: float
    estimate: float
    std_error: float


@dataclass
class ScalingReport:
    rows: List[ScalingRow]
    slopes: Dict[str, float]

    def slope(self, quantity: str) -> float:
        return self.slopes[quantity]


def _loglog_slope(offsets: np.ndarray, estimates: np.ndarray) -> float:
    if not np.all(np.isfinite(estimates)):
        return float("nan")  # no rate can be read off a non-finite estimate
    mask = estimates > 0.0
    if mask.sum() < 2:
        return float("inf")  # identically-zero remainders: faster than any power
    return float(np.polyfit(np.log(offsets[mask]), np.log(estimates[mask]), 1)[0])


def _mc_stats(values: np.ndarray) -> Tuple[float, float]:
    return float(np.mean(values)), float(np.std(values) / np.sqrt(values.size))


def check_offsets(offsets: Sequence[float]) -> np.ndarray:
    """Offsets sorted in decreasing order; at least 3 positive, finite
    offsets spanning a factor of 4 are required for a meaningful fit."""
    offsets = np.asarray(sorted(offsets, reverse=True), dtype=float)
    if (offsets.size < 3 or not np.all(np.isfinite(offsets) & (offsets > 0.0))
            or offsets.max() / offsets.min() < 4.0):
        raise ConfigurationError("need >= 3 positive offsets spanning a factor >= 4")
    return offsets


def _add_stats(rows: List[ScalingRow], series: Dict[str, List[float]], offset: float,
               stats: Dict[str, np.ndarray]):
    for key, vals in stats.items():
        est, se = _mc_stats(vals)
        rows.append(ScalingRow(quantity=key, offset=offset, estimate=est, std_error=se))
        series.setdefault(key, []).append(est)


def _report(offsets: np.ndarray, rows: List[ScalingRow],
            series: Dict[str, List[float]]) -> ScalingReport:
    slopes = {key: _loglog_slope(offsets, np.asarray(vals)) for key, vals in series.items()}
    return ScalingReport(rows=rows, slopes=slopes)


# ---------------------------------------------------------------------------
# duality processes
# ---------------------------------------------------------------------------

@dataclass
class DualityProcesses:
    """The pointwise duality pair and the combined process on [t, T].

    ``delta_y_t`` holds the per-path first-order differences
    -Y_pert(t) + Y_base(t); ``mean_abs_ytilde_t`` is E|Ytilde(t)|.
    """

    run: PerturbationRun
    Yhat: np.ndarray
    Ycheck: np.ndarray
    Ytilde: np.ndarray
    delta_y_t: np.ndarray
    mean_abs_ytilde_t: float


def duality_processes(run: PerturbationRun, adjoints, coeffs, basis: RegressionBasis,
                      base_sol=None) -> DualityProcesses:
    """Form Yhat = ptilde*Xhat, Ycheck = pcheck*Xhat1 and the combination
    Ytilde = -Y_pert + Y_base - Yhat - Ycheck on the sub-horizon.

    Both backward solutions are computed on the sub-horizon with the same
    machinery so their regression biases cancel in the difference.  The
    base solution depends only on the perturbation time; pass ``base_sol``
    (the LSMC solution on ``run.base_sub``) to reuse it across offsets.
    """
    if base_sol is None:
        base_sol = solve_bsde_lsmc(run.base_sub, coeffs, basis)
    pert_sol = solve_bsde_lsmc(run.pert, coeffs, basis)
    ti = run.t_index
    pt = adjoints.ptilde[:, ti:]
    pc = adjoints.pcheck[:, ti:]
    Yhat = pt * run.Xhat
    Ycheck = pc * run.Xhat1
    Ytilde = -pert_sol.Y + base_sol.Y - Yhat - Ycheck
    delta_y = -pert_sol.Y[:, 0] + base_sol.Y[:, 0]
    ok = ~run.base_sub.diverged
    mean_abs = float(np.mean(np.abs(Ytilde[ok, 0])))
    return DualityProcesses(run=run, Yhat=Yhat, Ycheck=Ycheck, Ytilde=Ytilde,
                            delta_y_t=delta_y, mean_abs_ytilde_t=mean_abs)


def scaling_reports(bundle: TrajectoryBundle, coeffs, t_index: int,
                    offsets: Sequence[float], p: int = 2, adjoints=None,
                    basis: Optional[RegressionBasis] = None
                    ) -> Tuple[ScalingReport, Optional[ScalingReport]]:
    """Log-log slopes of the remainder and, given adjoints, the duality
    statistics against the offset, from one variation per offset.

    Remainder report: slope ~ p for E sup|Xhat|^p (and the delayed
    variants), slope > p for the eps integrals.  Duality report (None
    without ``adjoints``): E|Ytilde(t)| and the positive part of the
    first-order expansion defect, both o(h); it needs ``basis``.  Both
    reports average over the non-diverged base paths only; a non-finite
    estimate gives a NaN slope.
    """
    offsets = check_offsets(offsets)
    if adjoints is not None and basis is None:
        raise ConfigurationError("the duality report needs a regression basis")
    dt = bundle.grid.dt
    ok = bundle.valid
    rem_rows: List[ScalingRow] = []
    rem_series: Dict[str, List[float]] = {}
    dual_rows: List[ScalingRow] = []
    dual_series: Dict[str, List[float]] = {}
    base_sol = None
    for h in offsets:
        h = float(h)
        run = simulate_variation(bundle, coeffs, t_index, h)
        _add_stats(rem_rows, rem_series, h, {
            "sup_xhat": np.max(np.abs(run.Xhat[ok]), axis=1) ** p,
            "sup_xhat1": np.max(np.abs(run.Xhat1[ok]), axis=1) ** p,
            "sup_xhat2": np.max(np.abs(run.Xhat2[ok]), axis=1) ** p,
            "eps1_int": (np.sum(run.eps1[ok] ** 2, axis=1) * dt) ** (p / 2),
            "eps2_int": (np.sum(run.eps2[ok] ** 2, axis=1) * dt) ** (p / 2),
        })
        if adjoints is not None:
            if base_sol is None:
                base_sol = solve_bsde_lsmc(run.base_sub, coeffs, basis)
            dual = duality_processes(run, adjoints, coeffs, basis, base_sol=base_sol)
            defect = dual.delta_y_t[ok] - adjoints.ptilde[ok, t_index] * h
            _add_stats(dual_rows, dual_series, h, {
                "abs_ytilde_t": np.abs(dual.Ytilde[ok, 0]),
                "expansion_defect_pos": np.maximum(defect, 0.0),
            })
            del dual
        del run  # one run alive at a time
    remainders = _report(offsets, rem_rows, rem_series)
    duality = _report(offsets, dual_rows, dual_series) if adjoints is not None else None
    return remainders, duality
