"""Adjoint system of the maximum principle along a candidate control.

With H = p1*b + p2*(x - lam*x1 - e^{-lam*delta}*x2) + q1*sigma - gamma*f
evaluated along the candidate quadruple, the adjoints solve

    d gamma = gamma f_y dt + gamma f_z dW,          gamma(s) = 1,
    -d p1   = H_x  dt - q1 dW,    p1(T) = -phi_x  * gamma(T),
    -d p2   = H_x1 dt - q2 dW,    p2(T) = -phi_x1 * gamma(T),
    -d p3   = H_x2 dt,            p3(T) = 0.

p3 is computed as a plain pathwise backward integral: the theory only
uses it through the reduction hypothesis "p3 identically zero", so
max|p3| is treated as a hypothesis-violation metric rather than a solved
adjoint.  The normalized pair ptilde = p1/gamma, pcheck = p2/gamma is
stored alongside, and can also be solved directly from its own backward
system (with its martingale loadings qtilde, qcheck) as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import ControlDomain, HypothesisViolation, derived_rng, eval_H
from .bsde import BackwardSolution, RegressionBasis, backward_sweep
from .smdde import TrajectoryBundle, path_array


def _along(bundle: TrajectoryBundle, solution: BackwardSolution, i: int, rows):
    """(t, x, x1, x2, y, z, u) along the candidate trajectory at step i."""
    t, x, x1, x2, u = bundle.state(i, rows)
    return t, x, x1, x2, solution.Y[rows, i], solution.Z[rows, i], u


@dataclass
class AdjointBundle:
    """Adjoint paths on grid indices 0..n for the non-diverged paths.

    gamma[:, 0] = 1 and p3[:, n] = 0 hold by construction; ptilde/pcheck
    are the gamma-normalized first-order adjoints p1/gamma and p2/gamma.
    """

    gamma: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    ptilde: np.ndarray
    pcheck: np.ndarray

    @property
    def max_abs_p3(self) -> float:
        return float(np.nanmax(np.abs(self.p3)))


def solve_gamma(bundle: TrajectoryBundle, solution: BackwardSolution, coeffs) -> np.ndarray:
    """Forward Euler for the scalar adjoint gamma (gamma(s) = 1).

    The drift/diffusion loadings are the (y, z) sensitivities of the cost
    driver along the candidate quadruple.  Aborts if any path's gamma
    crosses zero within a step, since downstream quantities need 1/gamma.
    """
    grid = bundle.grid
    n, dt = grid.n_steps, grid.dt
    ok = bundle.valid
    gamma = path_array(bundle.n_paths, n + 1, np.nan)
    gamma[ok, 0] = 1.0
    for i in range(n):
        t, x, x1, x2, y, z, u = _along(bundle, solution, i, ok)
        fy = coeffs.f_y(t, x, x1, x2, y, z, u)
        fz = coeffs.f_z(t, x, x1, x2, y, z, u)
        mult = 1.0 + fy * dt + fz * bundle.dW[ok, i]
        if np.any(mult <= 0.0):
            bad = int(np.argmax(mult <= 0.0))
            raise HypothesisViolation(
                f"gamma crossed zero at step {i} (t={t:.6g}); "
                f"offending multiplier {float(np.min(mult)):.3e} (path #{bad} among valid); "
                "reduce dt or check the driver's z-sensitivity")
        gamma[ok, i + 1] = gamma[ok, i] * mult
    return gamma


def solve_adjoint_p(bundle: TrajectoryBundle, solution: BackwardSolution,
                    gamma: np.ndarray, coeffs, basis: RegressionBasis,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward LSMC sweep for the coupled linear pair (p1, q1), (p2, q2)."""
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    lam = coeffs.lam
    ok = bundle.valid

    def update(i, hats, qs):
        t, x, x1, x2, y, z, u = _along(bundle, solution, i, ok)
        (p1_hat, p2_hat), q1_hat = hats, qs[0]
        g = gamma[ok, i]
        H_x = (p1_hat * coeffs.b_x(t, x, x1, x2, u) + p2_hat
               + q1_hat * coeffs.sigma_x(t, x, x1, x2, u)
               - g * coeffs.f_x(t, x, x1, x2, y, z, u))
        H_x1 = (p1_hat * coeffs.b_x1(t, x, x1, x2, u) - lam * p2_hat
                + q1_hat * coeffs.sigma_x1(t, x, x1, x2, u)
                - g * coeffs.f_x1(t, x, x1, x2, y, z, u))
        return p1_hat + H_x * dt, p2_hat + H_x1 * dt

    _, xT, x1T, _, _ = bundle.state(n, ok)
    terminal = (-coeffs.phi_x(xT, x1T) * gamma[ok, n], -coeffs.phi_x1(xT, x1T) * gamma[ok, n])
    (p1, p2), (q1, q2), _ = backward_sweep(bundle, basis, terminal, update,
                                           solution.shared_factors(bundle, basis))
    return p1, p2, q1, q2


def compute_p3_pathwise(bundle: TrajectoryBundle, solution: BackwardSolution,
                        gamma: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                        q1: np.ndarray, coeffs) -> np.ndarray:
    """Backward Riemann sum of the discrete-delay Hamiltonian derivative:
    p3(t) = integral over [t, T] of H_x2 along the candidate trajectory."""
    grid = bundle.grid
    n, dt = grid.n_steps, grid.dt
    decay = math.exp(-coeffs.lam * grid.delay)
    ok = bundle.valid
    p3 = path_array(bundle.n_paths, n + 1, np.nan)
    p3[ok, n] = 0.0
    for i in range(n - 1, -1, -1):
        t, x, x1, x2, y, z, u = _along(bundle, solution, i, ok)
        H_x2 = (p1[ok, i] * coeffs.b_x2(t, x, x1, x2, u) - decay * p2[ok, i]
                + q1[ok, i] * coeffs.sigma_x2(t, x, x1, x2, u)
                - gamma[ok, i] * coeffs.f_x2(t, x, x1, x2, y, z, u))
        p3[ok, i] = p3[ok, i + 1] + H_x2 * dt
    return p3


def solve_adjoints(bundle: TrajectoryBundle, solution: BackwardSolution, coeffs,
                   basis: RegressionBasis) -> AdjointBundle:
    """Full adjoint pass: gamma, (p1, p2, q1, q2), pathwise p3, and the
    gamma-normalized quantities."""
    gamma = solve_gamma(bundle, solution, coeffs)
    p1, p2, q1, q2 = solve_adjoint_p(bundle, solution, gamma, coeffs, basis)
    p3 = compute_p3_pathwise(bundle, solution, gamma, p1, p2, q1, coeffs)
    return AdjointBundle(gamma=gamma, p1=p1, p2=p2, p3=p3, q1=q1, q2=q2,
                         ptilde=p1 / gamma, pcheck=p2 / gamma)


def solve_transformed_direct(bundle: TrajectoryBundle, solution: BackwardSolution,
                             coeffs, basis: RegressionBasis,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the gamma-normalized adjoint pair from its own backward system.

    d ptilde = { f_x - ptilde*(b_x + f_y + sigma_x f_z) - qtilde*(sigma_x + f_z)
                 - pcheck } dt + qtilde dW,          ptilde(T) = -phi_x,
    d pcheck = { pcheck*(lam - f_y) - qcheck*f_z + f_x1
                 - ptilde*(b_x1 + f_z sigma_x1) - qtilde*sigma_x1 } dt
                 + qcheck dW,                        pcheck(T) = -phi_x1.

    Cross-validates the identity ptilde = p1/gamma without ever forming
    gamma.
    """
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    lam = coeffs.lam
    ok = bundle.valid

    def update(i, hats, qs):
        t, x, x1, x2, y, z, u = _along(bundle, solution, i, ok)
        (pt_hat, pc_hat), (qt_hat, qc_hat) = hats, qs
        bx = coeffs.b_x(t, x, x1, x2, u)
        bx1 = coeffs.b_x1(t, x, x1, x2, u)
        sx = coeffs.sigma_x(t, x, x1, x2, u)
        sx1 = coeffs.sigma_x1(t, x, x1, x2, u)
        fx = coeffs.f_x(t, x, x1, x2, y, z, u)
        fx1 = coeffs.f_x1(t, x, x1, x2, y, z, u)
        fy = coeffs.f_y(t, x, x1, x2, y, z, u)
        fz = coeffs.f_z(t, x, x1, x2, y, z, u)
        drift_t = fx - pt_hat * (bx + fy + sx * fz) - qt_hat * (sx + fz) - pc_hat
        drift_c = (pc_hat * (lam - fy) - qc_hat * fz + fx1
                   - pt_hat * (bx1 + fz * sx1) - qt_hat * sx1)
        return pt_hat - drift_t * dt, pc_hat - drift_c * dt

    _, xT, x1T, _, _ = bundle.state(n, ok)
    (pt, pc), (qt, qc), _ = backward_sweep(bundle, basis,
                                           (-coeffs.phi_x(xT, x1T), -coeffs.phi_x1(xT, x1T)),
                                           update, solution.shared_factors(bundle, basis))
    return pt, pc, qt, qc


# ---------------------------------------------------------------------------
# sufficient maximum principle
# ---------------------------------------------------------------------------

@dataclass
class MPReport:
    """Checkable conditions of the sufficient maximum principle.

    The overall verdict is the conjunction of the four flags; each flag
    comes with its witness statistic.
    """

    convexity_ok: bool
    convexity_worst: float
    phi_linear_ok: bool
    phi_m: float
    phi_n: float
    phi_residual: float
    p3_zero_ok: bool
    max_abs_p3: float
    p3_tol: float
    variational_ok: bool
    variational_worst: float
    variational_tol: float

    @property
    def verdict(self) -> bool:
        return (self.convexity_ok and self.phi_linear_ok
                and self.p3_zero_ok and self.variational_ok)

    def lines(self):
        yield from (
            f"verdict={str(self.verdict).lower()}",
            f"convexity_ok={str(self.convexity_ok).lower()}",
            f"convexity_worst={self.convexity_worst:.6e}",
            f"phi_linear_ok={str(self.phi_linear_ok).lower()}",
            f"phi_m={self.phi_m:.9g}",
            f"phi_n={self.phi_n:.9g}",
            f"phi_residual={self.phi_residual:.6e}",
            f"p3_zero_ok={str(self.p3_zero_ok).lower()}",
            f"max_abs_p3={self.max_abs_p3:.6e}",
            f"p3_tol={self.p3_tol:.6e}",
            f"variational_ok={str(self.variational_ok).lower()}",
            f"variational_worst={self.variational_worst:.6e}",
            f"variational_tol={self.variational_tol:.6e}",
        )


def check_sufficient_mp(bundle: TrajectoryBundle, solution: BackwardSolution,
                        adjoints: AdjointBundle, coeffs, domain: ControlDomain, *,
                        seed: int = 0, n_convexity: int = 10_000, n_time_samples: int = 16,
                        n_path_samples: int = 64, p3_tol: Optional[float] = None,
                        variational_rel_tol: float = 1e-3) -> MPReport:
    """Evaluate the four sufficient-condition flags for the candidate control.

    (a) joint convexity of the Hamiltonian in (x, x1, x2, y, z, u), probed
        by midpoint inequalities at random point pairs (statistical, with
        witnesses reported);
    (b) linearity of the terminal cost (fit M*x + N*x1, zero residual);
    (c) the reduction hypothesis max|p3| below tolerance (default 10*dt);
    (d) the variational inequality H_u(t) * (u*(t) - u) <= tol over the
        discretized control set along sampled paths and times.
    """
    grid = bundle.grid
    n, dt = grid.n_steps, grid.dt
    delay = grid.delay
    rng = derived_rng(seed, 303)
    ok_idx = np.flatnonzero(~bundle.diverged)
    if ok_idx.size == 0:
        raise HypothesisViolation("no valid paths to check")

    # (a) convexity by midpoint inequality
    steps = rng.choice(n, size=min(n_time_samples, n), replace=False)
    per_step = max(n_convexity // max(len(steps), 1), 1)
    worst_conv = 0.0
    x_scale = 1.0 + float(np.nanmax(np.abs(bundle.X)))
    for i in sorted(steps):
        i = int(i)
        paths = rng.choice(ok_idx, size=per_step)
        t, *point = _along(bundle, solution, i, paths)
        center = np.column_stack(np.broadcast_arrays(*point))
        w1 = center + rng.normal(0.0, x_scale, center.shape)
        w2 = center + rng.normal(0.0, x_scale, center.shape)
        g = adjoints.gamma[paths, i]
        a1 = adjoints.p1[paths, i]
        a2 = adjoints.p2[paths, i]
        aq = adjoints.q1[paths, i]
        h1 = eval_H(t, *w1.T, g, a1, a2, aq, coeffs, delay)
        h2 = eval_H(t, *w2.T, g, a1, a2, aq, coeffs, delay)
        hm = eval_H(t, *(0.5 * (w1 + w2)).T, g, a1, a2, aq, coeffs, delay)
        gap = hm - 0.5 * (h1 + h2)
        worst_conv = max(worst_conv, float(np.max(gap)))
    scale_conv = 1e-9 * (1.0 + x_scale ** 2)
    convexity_ok = worst_conv <= scale_conv

    # (b) terminal-cost linearity: fit M*x + N*x1 with no intercept
    xs = rng.normal(0.0, x_scale, 512)
    x1s = rng.normal(0.0, x_scale, 512)
    vals = coeffs.phi(xs, x1s)
    A = np.column_stack([xs, x1s])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = float(np.max(np.abs(vals - A @ coef)))
    phi_linear_ok = resid <= 1e-8 * (1.0 + float(np.max(np.abs(vals))))

    # (c) reduction hypothesis
    tol_p3 = 10.0 * dt if p3_tol is None else p3_tol
    max_p3 = adjoints.max_abs_p3
    p3_ok = max_p3 <= tol_p3

    # (d) variational inequality over the discretized control set
    u_grid = domain.points()
    worst_var = -np.inf
    max_hu = 0.0
    sub = rng.choice(ok_idx, size=min(n_path_samples, ok_idx.size), replace=False)
    for i in sorted(rng.choice(n, size=min(n_time_samples, n), replace=False)):
        i = int(i)
        t, x, x1, x2, y, z, u = _along(bundle, solution, i, sub)
        ustar = np.broadcast_to(u, sub.shape)
        g = adjoints.gamma[sub, i]
        a1 = adjoints.p1[sub, i]
        a2 = adjoints.p2[sub, i]
        aq = adjoints.q1[sub, i]
        h = 1e-5 * (np.abs(ustar) + 1.0)
        pts_up = np.column_stack([x, x1, x2, y, z, ustar + h])
        pts_dn = np.column_stack([x, x1, x2, y, z, ustar - h])
        hu = (eval_H(t, *pts_up.T, g, a1, a2, aq, coeffs, delay)
              - eval_H(t, *pts_dn.T, g, a1, a2, aq, coeffs, delay)) / (2.0 * h)
        gaps = hu[:, None] * (ustar[:, None] - u_grid[None, :])
        worst_var = max(worst_var, float(np.max(gaps)))
        # tolerance scale: |H_u| over the whole discretized control box, so
        # the near-stationarity of the candidate does not shrink its own gate;
        # one (path, control) block per step
        col = (x[:, None], x1[:, None], x2[:, None], y[:, None], z[:, None])
        adj = (g[:, None], a1[:, None], a2[:, None], aq[:, None])
        hp = 1e-5 * (np.abs(u_grid) + 1.0)
        hu_probe = (eval_H(t, *col, u_grid + hp, *adj, coeffs, delay)
                    - eval_H(t, *col, u_grid - hp, *adj, coeffs, delay)) / (2.0 * hp)
        max_hu = max(max_hu, float(np.max(np.abs(hu_probe))))
    tol_var = variational_rel_tol * max(max_hu, 1e-12)
    variational_ok = worst_var <= tol_var

    return MPReport(convexity_ok=convexity_ok, convexity_worst=worst_conv,
                    phi_linear_ok=phi_linear_ok, phi_m=float(coef[0]), phi_n=float(coef[1]),
                    phi_residual=resid, p3_zero_ok=p3_ok, max_abs_p3=max_p3, p3_tol=tol_p3,
                    variational_ok=variational_ok, variational_worst=worst_var,
                    variational_tol=tol_var)
