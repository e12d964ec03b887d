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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import ConfigurationError, HypothesisViolation, TimeGrid, mc_estimate
from .bsde import BackwardSolution, solve_bsde_lsmc
from .smdde import TrajectoryBundle, _step_chunk, path_array

# 8-point Gauss-Legendre rule on [0, 1]: the float64 values of
# 0.5 * (leggauss(8)[0] + 1) and 0.5 * leggauss(8)[1], written out so that
# importing this module does not import numpy.polynomial
_GL_NODES = np.array([0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
                      0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
                      0.8983332387068134, 0.9801449282487681])
_GL_WEIGHTS = np.array([0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                        0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
                        0.11119051722668721, 0.05061426814518853])
# path-steps per remainder slab: 16 steps at 500 paths keeps a slab's arrays
# (64 KiB each) in cache
_SLAB_PATH_STEPS = 8192
# the slopes of eps1 and of eps2, each in the order of (Xhat, Xhat1, Xhat2)
_EPS_SLOTS = (("b_x", "b_x1", "b_x2"), ("sigma_x", "sigma_x1", "sigma_x2"))


def _remainders(bundle: TrajectoryBundle, coeffs, t_index: int, Xhat: np.ndarray,
                Xhat1: np.ndarray, Xhat2: np.ndarray, slots: Sequence[str]) -> np.ndarray:
    """The remainder eps1 (``slots`` the b slopes) or eps2 (the sigma
    slopes) of one offset's differences on the steps t_index..n-1: how far the
    realized difference dynamics are from their linearization around the
    base path.  It sums, over the three slopes, each derivative's
    Gauss-Legendre average of d(base + theta*hat) - d(base) over theta in
    [0, 1] (exact for polynomial integrands of degree <= 15), times the
    matching hat component.

    Averaging the gap rather than the derivative keeps the result exactly
    zero for constant derivatives, so linear families produce identically
    vanishing remainders instead of rounding dust; a slope stored as its
    number gets that gap, 0.0, without being evaluated.  Steps are taken in slabs of (n_paths, slab)
    arrays; every element sees the same operations in the same order as a
    step-by-step evaluation, so the result is bit-identical.
    """
    grid = bundle.grid
    m, n = grid.m, grid.n_steps
    n_paths, n_sub = bundle.n_paths, n - t_index
    live = [(k, getattr(coeffs, slot)) for k, slot in enumerate(slots)
            if callable(getattr(coeffs, slot))]
    eps = np.empty((n_paths, n_sub))
    slab = max(1, _SLAB_PATH_STEPS // n_paths)
    for j0 in range(0, n_sub, slab):
        j1 = min(j0 + slab, n_sub)
        i0, i1 = t_index + j0, t_index + j1
        hx, hx1, hx2 = Xhat[:, j0:j1], Xhat1[:, j0:j1], Xhat2[:, j0:j1]
        gaps = [0.0] * len(slots)
        if live:
            steps = np.arange(i0, i1)
            t = grid.time(steps)
            u = bundle.u_at(steps)
            x, x1, x2 = bundle.X[:, i0 + m : i1 + m], bundle.X1[:, i0:i1], bundle.X[:, i0:i1]
            stars = [d(t, x, x1, x2, u) for _, d in live]
            for theta, w in zip(_GL_NODES, _GL_WEIGHTS):
                xs, x1s, x2s = x + theta * hx, x1 + theta * hx1, x2 + theta * hx2
                for (k, d), star in zip(live, stars):
                    gaps[k] = gaps[k] + w * (d(t, xs, x1s, x2s, u) - star)
        eps[:, j0:j1] = gaps[0] * hx + gaps[1] * hx1 + gaps[2] * hx2
    return eps


def simulate_variation(bundle: TrajectoryBundle, coeffs, t_index: int,
                       offsets: Sequence[float]) -> TrajectoryBundle:
    """Re-run the dynamics from grid time t with the state bumped by each of
    ``offsets``: the bundle on [t, T] of one row block of paths per offset,
    in the order given, on the increments of ``bundle``, which it holds once.

    The perturbed paths consume the base increments (exact coupling: offset
    0 reproduces the base bit for bit), keep the same per-step control (a
    per-path one and the diverged flags tiled per block), and restart the
    distributed-delay state at its base value.  Each block is stepped by
    the simulation's own Euler loop in a call of its own, so its rows sum
    the delay quadrature as the base rows do.  A path that turns non-finite
    or leaves [-1e12, 1e12] diverges, which aborts the run at the first
    offset with such a path unless its base path diverged too.
    """
    if bundle.dW is None:
        raise ConfigurationError("base bundle must store increments for coupling")
    grid = bundle.grid
    m, n = grid.m, grid.n_steps
    if not (0 <= t_index <= n - 1):
        raise ConfigurationError("perturbation time must satisfy t + dt <= T")
    n_paths, n_sub, K = bundle.n_paths, n - t_index, len(offsets)
    X, X1 = path_array(K * n_paths, n_sub + m + 1), path_array(K * n_paths, n_sub + 1)
    for k, offset in enumerate(offsets):
        rows = slice(k * n_paths, (k + 1) * n_paths)
        Xp = X[rows]
        Xp[:, : m + 1] = bundle.X[:, t_index : t_index + m + 1]
        Xp[:, m] += offset
        # the distributed delay restarts at its base value
        _step_chunk(coeffs, bundle.u, grid, bundle.dW[:, t_index:], Xp, X1[rows], None,
                    start=t_index, x1_start=bundle.X1[:, t_index])
        # a base path that diverged restarts from NaN; only valid rows can abort
        finite = np.isfinite(Xp[:, m + 1 :]) | bundle.diverged[:, None]
        if not finite.all():
            j = int(np.argmin(finite.all(axis=0)))
            raise HypothesisViolation(
                f"perturbed path became non-finite at step {t_index + j} "
                f"(path {int(np.argmin(finite[:, j]))}); offset too large for this instance")
    sub_grid = TimeGrid(s=grid.time(t_index), T=grid.T, dt=grid.dt, delay_steps=m)
    u = bundle.u_at(np.arange(t_index, n))
    return TrajectoryBundle(grid=sub_grid, X=X, X1=X1, dW=bundle.dW[:, t_index:],
                            u=np.tile(u, (K, 1)) if np.ndim(u) == 2 else u,
                            diverged=np.tile(bundle.diverged, K))


def _differences(pert: TrajectoryBundle, base: TrajectoryBundle, k: int,
                 cols: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Xhat, Xhat1, Xhat2)``: row block ``k`` of ``pert``, a
    ``simulate_variation`` bundle of ``base``, minus the base paths, on the
    first ``cols`` columns of [t, T] (all when None).  The differences are
    zero on [t - delta, t) by construction, and Xhat2 vanishes on
    [t, t + delta) exactly; Xhat and Xhat2 are views of one difference.
    """
    m, n_paths = base.grid.m, base.n_paths
    ti = base.grid.n_steps - pert.grid.n_steps
    c = pert.grid.n_steps + 1 if cols is None else cols
    rows = slice(k * n_paths, (k + 1) * n_paths)
    diff = pert.X[rows, : m + c] - base.X[:, ti : ti + m + c]
    return diff[:, m:], pert.X1[rows, :c] - base.X1[:, ti : ti + c], diff[:, :c]


# ---------------------------------------------------------------------------
# scaling regressions
# ---------------------------------------------------------------------------

class ScalingRow(NamedTuple):  # one (quantity, offset) row of a scaling table
    quantity: str
    offset: float
    estimate: float
    std_error: float


@dataclass
class ScalingReport:
    rows: List[ScalingRow]  # per offset, in decreasing offset order

    @property
    def slopes(self) -> Dict[str, float]:
        """Each quantity's log-log slope, read off its rows."""
        by_quantity: Dict[str, List[ScalingRow]] = {}
        for row in self.rows:
            by_quantity.setdefault(row.quantity, []).append(row)
        return {q: _loglog_slope(np.array([r.offset for r in rows]),
                                 np.array([r.estimate for r in rows]))
                for q, rows in by_quantity.items()}


def _loglog_slope(offsets: np.ndarray, estimates: np.ndarray) -> float:
    if not np.all(np.isfinite(estimates)):
        return float("nan")  # no rate can be read off a non-finite estimate
    mask = estimates > 0.0
    if mask.sum() < 2:
        return float("inf")  # identically-zero remainders: faster than any power
    return float(np.polyfit(np.log(offsets[mask]), np.log(estimates[mask]), 1)[0])


def check_offsets(offsets: Sequence[float]) -> np.ndarray:
    """Offsets sorted in decreasing order; at least 3 positive, finite
    offsets spanning a factor of 4 are required for a meaningful fit."""
    offsets = np.asarray(sorted(offsets, reverse=True), dtype=float)
    if (offsets.size < 3 or not np.all(np.isfinite(offsets) & (offsets > 0.0))
            or offsets.max() / offsets.min() < 4.0):
        raise ConfigurationError("need >= 3 positive offsets spanning a factor >= 4")
    return offsets


def _stat_rows(offset: float, stats: Dict[str, np.ndarray]) -> List[ScalingRow]:
    return [ScalingRow(key, offset, *mc_estimate(vals)) for key, vals in stats.items()]


# ---------------------------------------------------------------------------
# duality processes
# ---------------------------------------------------------------------------

@dataclass
class DualityProcesses:
    """The combined duality process of one perturbed run, on the columns of
    [t, T] it was formed on.

    ``delta_y_t`` holds the per-path first-order differences
    -Y_pert(t) + Y_base(t).
    """

    Ytilde: np.ndarray
    delta_y_t: np.ndarray


def duality_processes(pert: TrajectoryBundle, solution: BackwardSolution, adjoints, coeffs
                      ) -> List[DualityProcesses]:
    """Form Ytilde = -Y_pert + Y_base - Yhat - Ycheck, with the pointwise
    duality pair Yhat = ptilde*Xhat and Ycheck = pcheck*Xhat1, of each
    perturbed run in ``pert``, on the sub-horizon [t, T], or at t alone
    when ``pert`` holds more than one.

    ``pert`` holds ``pert.blocks`` runs restarted at one grid time t of the
    base run, one row block each (``simulate_variation``); the differences
    Xhat and Xhat1 are read off it.  ``solution`` is the base run's own
    backward solution: on [t, T] it is the solve of the sub-horizon bundle,
    since the sweep's step-i regression sees the same rows and responses.
    The perturbed paths are solved in ``solution.basis``, so the regression
    biases of the two cancel in the difference.  Several runs are solved in
    one sweep, each as by its own solve, which stores Y_pert at t only.
    """
    base = solution.bundle
    n_paths, ti = base.n_paths, base.grid.n_steps - pert.grid.n_steps
    pert_Y = solve_bsde_lsmc(pert, coeffs, solution.basis).Y
    c = pert_Y.shape[1]  # the columns formed
    base_Y = solution.Y[:, ti : ti + c]
    ptilde, pcheck = adjoints.normalized(cols=slice(ti, ti + c))
    duals = []
    for k in range(pert.blocks):
        Xhat, Xhat1, _ = _differences(pert, base, k, c)
        Y_k = pert_Y[k * n_paths : (k + 1) * n_paths]
        duals.append(DualityProcesses(Ytilde=-Y_k + base_Y - ptilde * Xhat - pcheck * Xhat1,
                                      delta_y_t=-Y_k[:, 0] + base_Y[:, 0]))
    return duals


def scaling_reports(bundle: TrajectoryBundle, coeffs, t_index: int,
                    offsets: Sequence[float], p: int = 2,
                    solution: Optional[BackwardSolution] = None, adjoints=None
                    ) -> Tuple[ScalingReport, Optional[ScalingReport]]:
    """Log-log slopes of the remainder and, given the run's backward
    solution and adjoints, the duality statistics against the offset, from
    one ``simulate_variation`` call over all offsets.

    Remainder report: slope ~ p for E sup|Xhat|^p (and the delayed
    variants), slope > p for the eps integrals.  Duality report (None
    without ``adjoints``): E|Ytilde(t)| and the positive part of the
    first-order expansion defect, both o(h); it needs ``solution``.  Both
    reports average over the non-diverged base paths only; a non-finite
    estimate gives a NaN slope.

    The offsets are stepped into the row blocks of one bundle, which the
    duality report solves in one sweep; each offset's remainder statistics
    are taken, and its differences freed, before the next is formed.
    """
    offsets = check_offsets(offsets)
    if adjoints is not None and solution is None:
        raise ConfigurationError("the duality report needs the run's backward solution")
    ok, dt = bundle.valid, bundle.grid.dt
    pert = simulate_variation(bundle, coeffs, t_index, offsets)
    remainders = ScalingReport([])
    for k, h in enumerate(offsets):
        Xhat, Xhat1, Xhat2 = _differences(pert, bundle, k)
        stats = {"sup_xhat": np.max(np.abs(Xhat[ok]), axis=1) ** p,
                 "sup_xhat1": np.max(np.abs(Xhat1[ok]), axis=1) ** p,
                 "sup_xhat2": np.max(np.abs(Xhat2[ok]), axis=1) ** p}
        for key, slots in zip(("eps1_int", "eps2_int"), _EPS_SLOTS):
            eps = _remainders(bundle, coeffs, t_index, Xhat, Xhat1, Xhat2, slots)[ok]
            # squared where it lies, and freed before the next is formed
            stats[key] = (np.sum(np.square(eps, out=eps), axis=1) * dt) ** (p / 2)
            del eps
        remainders.rows += _stat_rows(float(h), stats)
        del Xhat, Xhat1, Xhat2  # one offset's differences alive at a time
    if adjoints is None:
        return remainders, None
    duality = ScalingReport([])
    ptilde_t = adjoints.normalized(ok, t_index)[0]
    for h, dual in zip(offsets, duality_processes(pert, solution, adjoints, coeffs)):
        defect = dual.delta_y_t[ok] - ptilde_t * float(h)
        duality.rows += _stat_rows(float(h), {
            "abs_ytilde_t": np.abs(dual.Ytilde[ok, 0]),
            "expansion_defect_pos": np.maximum(defect, 0.0),
        })
    return remainders, duality
