"""Monotone finite-difference solver for the delay-reduced dynamic
programming equation.

On the rectangle (x, x1), stepping backward from T:

    -V_t + sup_u G(t, x, x1, x2_ref, u, -V, -V_x, -V_xx, -V_x1) = 0,
    V(T, x, x1) = -phi(x, x1),

with upwind first differences (chosen by the sign of the drift for V_x
and of the x1 transport for V_x1), a central second difference, and
one-sided differences on the boundary.  The x2 argument of G is frozen at
a reference value; the solver refuses to run unless an independence gate
certifies that the choice is immaterial over a probe set.

Numerical jets extracted from the grid (right-sided in time, central in
space) feed the superdifferential-membership and viscosity-residual
checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigurationError, ControlDomain, HypothesisViolation,
                   LinearDriver, TimeGrid, derived_rng, eval_G, linear_driver_terms,
                   transport_term)

__all__ = [
    "HjbGrid",
    "GridValueFunction",
    "Jet",
    "ProbeSet",
    "default_probe_set",
    "check_x2_independence",
    "solve_hjb",
    "extract_jet",
    "jet_membership",
    "viscosity_residual",
    "feedback_control",
    "dump_value_function",
    "heatmap_svg",
]


@dataclass(frozen=True)
class HjbGrid:
    """Rectangular (x, x1) grid and backward time-step count."""

    x_min: float
    x_max: float
    nx: int
    x1_min: float
    x1_max: float
    nx1: int
    n_t: int
    x2_ref: float = 0.0

    def __post_init__(self):
        if self.x_min >= self.x_max or self.x1_min >= self.x1_max:
            raise ConfigurationError("grid extents must be increasing")
        if self.nx < 5 or self.nx1 < 5 or self.n_t < 1:
            raise ConfigurationError("grid too small (need nx, nx1 >= 5 and n_t >= 1)")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dx1(self) -> float:
        return (self.x1_max - self.x1_min) / (self.nx1 - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def x1s(self) -> np.ndarray:
        return np.linspace(self.x1_min, self.x1_max, self.nx1)

    def refined(self) -> "HjbGrid":
        """Halve dx and dt (x1 resolution kept; transport CFL dominates it)."""
        return HjbGrid(self.x_min, self.x_max, 2 * self.nx - 1,
                       self.x1_min, self.x1_max, self.nx1,
                       2 * self.n_t, self.x2_ref)


@dataclass
class Jet:
    """(time slope, x slope, x1 slope, x curvature) of the local model."""

    theta: float
    p: float
    q: float
    P: float


@dataclass
class GridValueFunction:
    """Value function and argmax control on the space-time grid.

    ``V[it, j, k]`` is the value at (s + it*dt_pde, xs[j], x1s[k]);
    ``u_star`` is the maximizing control stored with the same layout
    (slice n_t copies slice n_t - 1).
    """

    times: np.ndarray
    xs: np.ndarray
    x1s: np.ndarray
    V: np.ndarray
    u_star: np.ndarray
    x2_ref: float
    variant: str

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dx1(self) -> float:
        return float(self.x1s[1] - self.x1s[0])

    def indices(self, t: float, x: float, x1: float) -> Tuple[int, int, int]:
        """Nearest grid node (clipped to the grid)."""
        it = int(np.clip(round((t - self.times[0]) / self.dt), 0, len(self.times) - 1))
        j = int(np.clip(round((x - self.xs[0]) / self.dx), 0, len(self.xs) - 1))
        k = int(np.clip(round((x1 - self.x1s[0]) / self.dx1), 0, len(self.x1s) - 1))
        return it, j, k

    def is_interior(self, x, x1, margin: int = 1):
        """Vectorized test that (x, x1) lies at least ``margin`` cells inside."""
        lo_x = self.xs[0] + margin * self.dx
        hi_x = self.xs[-1] - margin * self.dx
        lo_1 = self.x1s[0] + margin * self.dx1
        hi_1 = self.x1s[-1] - margin * self.dx1
        return (np.asarray(x) >= lo_x) & (np.asarray(x) <= hi_x) & \
               (np.asarray(x1) >= lo_1) & (np.asarray(x1) <= hi_1)

    def _interp_slice(self, field: np.ndarray, x, x1):
        """Bilinear interpolation of one (nx, nx1) slice."""
        fx = np.clip((np.asarray(x, dtype=float) - self.xs[0]) / self.dx, 0, len(self.xs) - 1)
        f1 = np.clip((np.asarray(x1, dtype=float) - self.x1s[0]) / self.dx1, 0, len(self.x1s) - 1)
        j0 = np.clip(fx.astype(int), 0, len(self.xs) - 2)
        k0 = np.clip(f1.astype(int), 0, len(self.x1s) - 2)
        ax = fx - j0
        a1 = f1 - k0
        return ((1 - ax) * (1 - a1) * field[j0, k0] + ax * (1 - a1) * field[j0 + 1, k0]
                + (1 - ax) * a1 * field[j0, k0 + 1] + ax * a1 * field[j0 + 1, k0 + 1])

    def value(self, t: float, x, x1):
        """V at arbitrary points: bilinear in space, nearest slice in time."""
        it = int(np.clip(round((t - self.times[0]) / self.dt), 0, len(self.times) - 1))
        return self._interp_slice(self.V[it], x, x1)

    def vx_slice(self, it: int) -> np.ndarray:
        """Central-difference V_x on slice it (one-sided at the edges)."""
        return np.gradient(self.V[it], self.dx, axis=0)

    def value_x(self, t: float, x, x1):
        """Numerical V_x at arbitrary points (bilinear in space)."""
        it = int(np.clip(round((t - self.times[0]) / self.dt), 0, len(self.times) - 1))
        return self._interp_slice(self.vx_slice(it), x, x1)

    def kink_measure(self, t: float, x, x1):
        """Jump of the one-sided x-slopes, a detector for non-smooth points."""
        it = int(np.clip(round((t - self.times[0]) / self.dt), 0, len(self.times) - 1))
        V = self.V[it]
        jump = np.zeros_like(V)
        jump[1:-1, :] = np.abs((V[2:, :] - V[1:-1, :]) - (V[1:-1, :] - V[:-2, :])) / self.dx
        return self._interp_slice(jump, x, x1)


# ---------------------------------------------------------------------------
# x2-independence gate
# ---------------------------------------------------------------------------

@dataclass
class ProbeSet:
    """Sample of (t, x, x1, k, p, R, q) arguments for the independence gate."""

    t: np.ndarray
    x: np.ndarray
    x1: np.ndarray
    k: np.ndarray
    p: np.ndarray
    R: np.ndarray
    q: np.ndarray

    def __len__(self):
        return self.t.size


def _x1_insensitive(coeffs, scale: float, n: int = 128, seed: int = 19) -> bool:
    rng = derived_rng(seed, 404)
    t = np.abs(rng.normal(0.0, 1.0, n))
    x, x1, x2, y, z, u = (rng.normal(0.0, scale, n) for _ in range(6))
    worst = max(float(np.max(np.abs(coeffs.b_x1(t, x, x1, x2, u)))),
                float(np.max(np.abs(coeffs.sigma_x1(t, x, x1, x2, u)))),
                float(np.max(np.abs(coeffs.f_x1(t, x, x1, x2, y, z, u)))),
                float(np.max(np.abs(coeffs.phi_x1(x, x1)))))
    return worst <= 1e-12


def default_probe_set(coeffs, grid: HjbGrid, tg: TimeGrid, n_probe: int = 128,
                      seed: int = 23) -> ProbeSet:
    """Probes spanning the grid box; the x1-slope probes are zero when the
    instance is insensitive to x1 (the value function is then flat in x1,
    so only q = 0 arises while solving)."""
    rng = derived_rng(seed, 405)
    t = rng.uniform(tg.s, tg.T, n_probe)
    x = rng.uniform(grid.x_min, grid.x_max, n_probe)
    x1 = rng.uniform(grid.x1_min, grid.x1_max, n_probe)
    scale = 1.0 + max(abs(grid.x_min), abs(grid.x_max))
    k = rng.normal(0.0, scale, n_probe)
    p = rng.normal(0.0, scale, n_probe)
    R = rng.normal(0.0, scale, n_probe)
    if _x1_insensitive(coeffs, scale):
        q = np.zeros(n_probe)
    else:
        q = rng.normal(0.0, scale, n_probe)
    return ProbeSet(t=t, x=x, x1=x1, k=k, p=p, R=R, q=q)


def check_x2_independence(coeffs, linear_driver: Optional[LinearDriver],
                          domain: ControlDomain, probes: ProbeSet, delay: float,
                          variant: str = "G", x2_scale: float = 1.0,
                          rel_tol: float = 1e-9) -> Tuple[bool, float]:
    """Does sup_u G depend on the frozen x2 argument?

    Evaluates the control-maximized generalized Hamiltonian at
    x2 in {-1, 0, +1} * x2_scale over the probe set and reports the worst
    deviation; passes iff it stays below rel_tol * (1 + |G|).  G is affine
    in x2 for every registry family, so three probe values are exhaustive
    there; arbitrary user coefficients get sampled coverage only.
    """
    u_grid = domain.points()
    sup_vals = []
    for x2v in (-x2_scale, 0.0, x2_scale):
        best = np.full(len(probes), -np.inf)
        for u in u_grid:
            g = eval_G(variant, probes.t, probes.x, probes.x1, x2v, u,
                       probes.k, probes.p, probes.R, probes.q, coeffs, delay,
                       linear_driver)
            best = np.maximum(best, g)
        sup_vals.append(best)
    stack = np.stack(sup_vals)
    dev = stack.max(axis=0) - stack.min(axis=0)
    scale = 1.0 + np.abs(stack).max(axis=0)
    worst = float(np.max(dev / scale))
    return worst <= rel_tol, worst


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _cfl_bound(coeffs, domain: ControlDomain, grid: HjbGrid, tg: TimeGrid) -> float:
    """Largest stable dt for the explicit monotone scheme."""
    xs = grid.xs()
    x1s = grid.x1s()
    X, X1 = np.meshgrid(xs, x1s, indexing="ij")
    tr = np.abs(transport_term(X, X1, grid.x2_ref, coeffs.lam, tg.delay))
    max_sig2 = 0.0
    max_b = 0.0
    for u in domain.points():
        for t in (tg.s, 0.5 * (tg.s + tg.T), tg.T):
            max_sig2 = max(max_sig2, float(np.max(coeffs.sigma(t, X, X1, grid.x2_ref, u) ** 2)))
            max_b = max(max_b, float(np.max(np.abs(coeffs.b(t, X, X1, grid.x2_ref, u)))))
    rate = max_sig2 / grid.dx ** 2 + max_b / grid.dx + float(tr.max()) / grid.dx1
    return 1.0 / rate if rate > 0 else np.inf


def solve_hjb(coeffs, domain: ControlDomain, grid: HjbGrid, tg: TimeGrid,
              variant: str = "G", linear_driver: Optional[LinearDriver] = None,
              probes: Optional[ProbeSet] = None) -> GridValueFunction:
    """Explicit backward sweep V(t - dt) = V(t) - dt * sup_u G(...).

    Raises on CFL violation (reporting the largest admissible dt) and when
    the x2-independence gate fails.
    """
    dt = (tg.T - tg.s) / grid.n_t
    dt_max = _cfl_bound(coeffs, domain, grid, tg)
    if dt > dt_max:
        raise ConfigurationError(
            f"CFL violation: dt_pde = {dt:.3e} exceeds the monotonicity bound "
            f"{dt_max:.3e}; use n_t >= {int(np.ceil((tg.T - tg.s) / dt_max))}")
    if probes is None:
        probes = default_probe_set(coeffs, grid, tg)
    ok, worst = check_x2_independence(coeffs, linear_driver, domain, probes, tg.delay,
                                      variant=variant)
    if not ok:
        raise HypothesisViolation(
            f"generalized Hamiltonian depends on the frozen delay argument "
            f"(worst normalized deviation {worst:.3e}); the finite-dimensional "
            "equation is ill-posed for this instance")

    xs = grid.xs()
    x1s = grid.x1s()
    X, X1 = np.meshgrid(xs, x1s, indexing="ij")
    times = np.linspace(tg.s, tg.T, grid.n_t + 1)
    V = np.empty((grid.n_t + 1, grid.nx, grid.nx1))
    U = np.empty_like(V)
    V[grid.n_t] = -coeffs.phi(X, X1)
    u_grid = domain.points()
    x2 = grid.x2_ref
    tr = transport_term(X, X1, x2, coeffs.lam, tg.delay)
    dx, dx1 = grid.dx, grid.dx1

    for it in range(grid.n_t - 1, -1, -1):
        t = times[it + 1]
        Vc = V[it + 1]
        # one-sided first differences (inward copies on the boundary rows)
        fwd_x = np.empty_like(Vc)
        bwd_x = np.empty_like(Vc)
        fwd_x[:-1, :] = (Vc[1:, :] - Vc[:-1, :]) / dx
        fwd_x[-1, :] = fwd_x[-2, :]
        bwd_x[1:, :] = fwd_x[:-1, :]
        bwd_x[0, :] = fwd_x[0, :]
        fwd_1 = np.empty_like(Vc)
        bwd_1 = np.empty_like(Vc)
        fwd_1[:, :-1] = (Vc[:, 1:] - Vc[:, :-1]) / dx1
        fwd_1[:, -1] = fwd_1[:, -2]
        bwd_1[:, 1:] = fwd_1[:, :-1]
        bwd_1[:, 0] = fwd_1[:, 0]
        d2x = np.empty_like(Vc)
        d2x[1:-1, :] = (Vc[2:, :] - 2 * Vc[1:-1, :] + Vc[:-2, :]) / dx ** 2
        d2x[0, :] = d2x[1, :]
        d2x[-1, :] = d2x[-2, :]
        vx1_up = np.where(tr >= 0.0, fwd_1, bwd_1)

        # G at the jet (k, p, R, q) = (-V, -V_x, -V_xx, -V_x1), summed in the
        # order of eval_G so both Hamiltonians below equal its values bit for
        # bit; the control-independent pieces are formed once per step
        k = -Vc
        p_fwd, p_bwd = -fwd_x, -bwd_x
        p_ctr = -(0.5 * (fwd_x + bwd_x))
        half_R = 0.5 * -d2x
        q_tr = -vx1_up * tr
        if variant != "G":
            gbar, fbar = linear_driver_terms(variant, t, linear_driver)
            fbar_k = fbar * k
        best = np.full(Vc.shape, -np.inf)
        g_ctr = np.empty((len(u_grid),) + Vc.shape)
        for iu, u in enumerate(u_grid):
            b_u = coeffs.b(t, X, X1, x2, u)
            sig = coeffs.sigma(t, X, X1, x2, u)
            p_up = np.where(b_u >= 0.0, p_fwd, p_bwd)
            diffusion = half_R * sig ** 2
            if variant == "G":
                # f may be nonlinear in z = p * sigma, so each p needs its own f
                g = (diffusion + p_up * b_u + q_tr
                     + coeffs.f(t, X, X1, x2, k, p_up * sig, u))
                g_ctr[iu] = (diffusion + p_ctr * b_u + q_tr
                             + coeffs.f(t, X, X1, x2, k, p_ctr * sig, u))
            else:
                a = coeffs.f(t, X, X1, x2, 0.0, 0.0, u)
                drift = b_u if gbar is None else b_u + sig * gbar
                g = diffusion + p_up * drift + q_tr + a + fbar_k
                g_ctr[iu] = diffusion + p_ctr * drift + q_tr + a + fbar_k
            np.maximum(best, g, out=best)
        # the value update uses the monotone (upwind) discrete sup; the stored
        # argmax is taken from the central-difference Hamiltonian (second-order
        # in dx) and refined by a parabola through the three neighboring
        # control points (exact for quadratic-in-u Hamiltonians,
        # scale-invariant); it is associated with the slice whose data
        # produced it, so policy lookups carry no time lag
        V[it] = Vc - dt * best
        U[it + 1] = _refine_argmax(g_ctr, np.argmax(g_ctr, axis=0), u_grid)
    U[0] = U[1]
    return GridValueFunction(times=times, xs=xs, x1s=x1s, V=V, u_star=U,
                             x2_ref=grid.x2_ref, variant=variant)


def _refine_argmax(g_all: np.ndarray, iu_best: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Vertex of the parabola through the discrete argmax and its neighbors."""
    u_best = u_grid[iu_best]
    if len(u_grid) < 3:
        return u_best
    du = u_grid[1] - u_grid[0]
    inner = np.clip(iu_best, 1, len(u_grid) - 2)
    g0 = np.take_along_axis(g_all, inner[None], axis=0)[0]
    gm = np.take_along_axis(g_all, (inner - 1)[None], axis=0)[0]
    gp = np.take_along_axis(g_all, (inner + 1)[None], axis=0)[0]
    denom = gm - 2.0 * g0 + gp
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (gm - gp) / denom, 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    interior = (iu_best >= 1) & (iu_best <= len(u_grid) - 2)
    return np.where(interior, u_grid[inner] + shift * du, u_best)


# ---------------------------------------------------------------------------
# jets and membership
# ---------------------------------------------------------------------------

def extract_jet(vgrid: GridValueFunction, t: float, x: float, x1: float) -> Jet:
    """Numerical jet at (the node nearest to) an interior point with t < T.

    The time slope is right-sided (toward T), matching the one-sided
    superdifferential; space slopes are central, the curvature a second
    central difference.
    """
    it, j, k = vgrid.indices(t, x, x1)
    nt = len(vgrid.times) - 1
    if it >= nt:
        raise ValueError("jet extraction requires t < T")
    if not (1 <= j <= len(vgrid.xs) - 2 and 1 <= k <= len(vgrid.x1s) - 2):
        raise ValueError("jet extraction requires an interior grid point")
    V = vgrid.V
    theta = (V[it + 1, j, k] - V[it, j, k]) / vgrid.dt
    p = (V[it, j + 1, k] - V[it, j - 1, k]) / (2.0 * vgrid.dx)
    q = (V[it, j, k + 1] - V[it, j, k - 1]) / (2.0 * vgrid.dx1)
    P = (V[it, j + 1, k] - 2.0 * V[it, j, k] + V[it, j - 1, k]) / vgrid.dx ** 2
    return Jet(theta=float(theta), p=float(p), q=float(q), P=float(P))


def jet_membership(vgrid: GridValueFunction, point: Tuple[float, float, float],
                   candidate, side: str = "super", radius: int = 3,
                   tol: float = 0.05, x_slope_only: bool = False) -> Tuple[bool, float]:
    """Grid-level one-sided Taylor test for jet membership at a point.

    ``candidate`` is a Jet, or a bare x-slope when ``x_slope_only`` is
    set.  For the super side the quadratic model must dominate V over the
    right-time neighborhood up to tol * rho with
    rho = |s'-t| + |x'-x|^2 + |x1'-x1|^2 (rho = |x'-x| in slope-only
    mode); the sub side reverses the inequality.  Returns
    (verdict, worst residual), the residual normalized by rho.
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    t, x, x1 = point
    it0, j0, k0 = vgrid.indices(t, x, x1)
    nx, nx1 = len(vgrid.xs), len(vgrid.x1s)
    if not (radius <= j0 <= nx - 1 - radius):
        raise ValueError("point too close to the x boundary for the requested radius")
    sign = 1.0 if side == "super" else -1.0
    v0 = vgrid.V[it0, j0, k0]
    if x_slope_only:
        p = float(candidate if not isinstance(candidate, Jet) else candidate.p)
        js = np.arange(j0 - radius, j0 + radius + 1)
        js = js[js != j0]
        dxs = vgrid.xs[js] - vgrid.xs[j0]
        model = v0 + p * dxs
        resid = sign * (vgrid.V[it0, js, k0] - model) / np.abs(dxs)
        worst = float(resid.max())
        return worst <= tol, worst
    if not isinstance(candidate, Jet):
        raise ValueError("full membership test needs a Jet candidate")
    if not (radius <= k0 <= nx1 - 1 - radius):
        raise ValueError("point too close to the x1 boundary for the requested radius")
    nt = len(vgrid.times) - 1
    # the (time, x, x1) neighborhood as one broadcast block, axes (it, j, k)
    its = np.arange(it0, min(it0 + radius, nt) + 1)
    js = np.arange(j0 - radius, j0 + radius + 1)
    ks = np.arange(k0 - radius, k0 + radius + 1)
    dt = (vgrid.times[its] - vgrid.times[it0])[:, None, None]
    dxs = (vgrid.xs[js] - vgrid.xs[j0])[None, :, None]
    d1 = vgrid.x1s[ks] - vgrid.x1s[k0]
    # the x1 offsets are squared one by one as numpy scalars (libm pow), which
    # can differ in the last bit from the array square; this keeps the
    # residuals equal to those of the per-(time, x1)-row form
    d1_sq = np.array([d ** 2 for d in d1])[None, None, :]
    d1 = d1[None, None, :]
    rho = np.abs(dt) + dxs ** 2 + d1_sq
    model = (v0 + candidate.theta * dt + candidate.p * dxs
             + 0.5 * candidate.P * dxs ** 2 + candidate.q * d1)
    resid = sign * (vgrid.V[np.ix_(its, js, ks)] - model)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = resid / np.maximum(rho, 1e-300)
    resid[0, radius, radius] = -np.inf  # the point itself
    worst = float(resid.max())
    return worst <= tol, worst


def viscosity_residual(vgrid: GridValueFunction, coeffs, domain: ControlDomain,
                       points: Sequence[Tuple[float, float, float]], delay: float,
                       linear_driver: Optional[LinearDriver] = None,
                       ) -> Tuple[float, float]:
    """Sub- and supersolution residuals at interior sample points.

    At each point the grid jet is extracted and
    r = -theta + sup_u G(t, x, x1, x2_ref, u, -V, -p, -P, -q) is formed;
    the subsolution residual is max(r, 0), the supersolution residual
    max(-r, 0).  Both are O(dx + dt_pde) for the solved value function.
    """
    u_grid = domain.points()
    max_sub = 0.0
    max_super = 0.0
    for (t, x, x1) in points:
        jet = extract_jet(vgrid, t, x, x1)
        it, j, k = vgrid.indices(t, x, x1)
        v0 = vgrid.V[it, j, k]
        xj = vgrid.xs[j]
        x1k = vgrid.x1s[k]
        tt = vgrid.times[it]
        best = -np.inf
        for u in u_grid:
            g = eval_G(vgrid.variant, tt, xj, x1k, vgrid.x2_ref, u, -v0, -jet.p,
                       -jet.P, -jet.q, coeffs, delay, linear_driver)
            best = max(best, float(g))
        r = -jet.theta + best
        max_sub = max(max_sub, r)
        max_super = max(max_super, -r)
    return max(max_sub, 0.0), max(max_super, 0.0)


def feedback_control(vgrid: GridValueFunction, domain: ControlDomain):
    """Feedback rule u(t, x, x1) interpolated from the stored argmax field."""

    def rule(t, x, x1):
        it = int(np.clip(round((t - vgrid.times[0]) / vgrid.dt), 0, len(vgrid.times) - 1))
        return domain.clip(vgrid._interp_slice(vgrid.u_star[it], x, x1))

    return rule


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def dump_value_function(vgrid: GridValueFunction, path: str,
                        slices: Optional[Sequence[int]] = None):
    """CSV dump with header t,x,x1,V,u_star (selected time slices)."""
    its = range(len(vgrid.times)) if slices is None else slices
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["t", "x", "x1", "V", "u_star"])
        for it in its:
            t = vgrid.times[it]
            for j, x in enumerate(vgrid.xs):
                for k, x1 in enumerate(vgrid.x1s):
                    out.writerow([f"{t:.17g}", f"{x:.17g}", f"{x1:.17g}",
                                  f"{vgrid.V[it, j, k]:.17g}",
                                  f"{vgrid.u_star[it, j, k]:.17g}"])


def heatmap_svg(field: np.ndarray, xs: np.ndarray, x1s: np.ndarray, path: str,
                title: str = "", size: int = 560):
    """Minimal self-contained SVG heat map of one (nx, nx1) slice.

    Hand-rolled so the output is byte-stable: no timestamps, no library
    metadata.
    """
    lo, hi = float(np.min(field)), float(np.max(field))
    span = hi - lo if hi > lo else 1.0
    nx, nx1 = field.shape
    cw = size / nx
    ch = size / nx1
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 28}" '
        f'viewBox="0 0 {size} {size + 28}">',
        f'<title>{title}</title>',
        f'<text x="4" y="16" font-family="monospace" font-size="13">{title} '
        f'[min={lo:.4g}, max={hi:.4g}]</text>',
    ]
    for j in range(nx):
        for k in range(nx1):
            z = (field[j, k] - lo) / span
            r = int(255 * z)
            b = int(255 * (1.0 - z))
            g = int(96 * (1.0 - abs(2 * z - 1)))
            y = 28 + (nx1 - 1 - k) * ch
            rows.append(f'<rect x="{j * cw:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                        f'height="{ch + 0.5:.2f}" fill="rgb({r},{g},{b})"/>')
    rows.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(rows))
