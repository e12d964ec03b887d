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

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigurationError, ControlDomain, HypothesisViolation,
                   LinearDriver, TimeGrid, control_terms, derived_rng, eval_G,
                   linear_driver_terms, sum_G, transport_term)


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

    def slice_index(self, t: float, top: Optional[int] = None) -> int:
        """Nearest time slice to t, clipped to 0..top (default the last)."""
        top = len(self.times) - 1 if top is None else top
        return int(min(max(round((t - self.times[0]) / self.dt), 0), top))

    def indices(self, t: float, x: float, x1: float) -> Tuple[int, int, int]:
        """Nearest grid node (clipped to the grid)."""
        it = self.slice_index(t)
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
        # flat indices into the slice: (j, k) -> j * n1 + k
        n1 = field.shape[1]
        c = j0 * n1 + k0
        return ((1 - ax) * (1 - a1) * field.take(c) + ax * (1 - a1) * field.take(c + n1)
                + (1 - ax) * a1 * field.take(c + 1) + ax * a1 * field.take(c + n1 + 1))

    def value(self, t: float, x, x1):
        """V at arbitrary points: bilinear in space, nearest slice in time."""
        return self._interp_slice(self.V[self.slice_index(t)], x, x1)

    def value_x(self, t: float, x, x1):
        """Numerical V_x at arbitrary points: the central difference on the
        nearest slice (one-sided at the edges), bilinear in space."""
        vx = np.gradient(self.V[self.slice_index(t)], self.dx, axis=0)
        return self._interp_slice(vx, x, x1)

    def kink_measure(self, t: float, x, x1):
        """Jump of the one-sided x-slopes, a detector for non-smooth points."""
        V = self.V[self.slice_index(t)]
        jump = np.zeros_like(V)
        jump[1:-1, :] = np.abs((V[2:, :] - V[1:-1, :]) - (V[1:-1, :] - V[:-2, :])) / self.dx
        return self._interp_slice(jump, x, x1)


# Controls per broadcast block of the sweep and of the maxima over controls.
# On a 101 x 51 grid with 41 controls and 100 steps (2-vCPU host, numpy
# 2.4.6), with the control terms formed once per solve and the Hamiltonians
# summed in place, blocks of 4 to 14 solved in 0.31-0.34 s, 21 and all 41 in
# 0.35-0.36 s; memory grows with it.
U_BLOCK = 8


def _control_blocks(u_grid: np.ndarray, ndim: int):
    """The controls in blocks of at most U_BLOCK along a leading axis, each
    shaped to broadcast against ``ndim``-dimensional state arrays."""
    return [u_grid[lo:lo + U_BLOCK].reshape((-1,) + (1,) * ndim)
            for lo in range(0, len(u_grid), U_BLOCK)]


def _sup_over_controls(g_at, u_grid: np.ndarray, ndim: int):
    """max over the controls of g_at(u), one block of controls at a time."""
    best = -np.inf
    for u in _control_blocks(u_grid, ndim):
        best = np.maximum(best, g_at(u).max(axis=0))
    return best


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


def _x1_insensitive(coeffs, scale: float, n: int = 128, seed: int = 19) -> bool:
    rng = derived_rng(seed, 404)
    t = np.abs(rng.normal(0.0, 1.0, n))
    x, x1, x2, y, z, u = (rng.normal(0.0, scale, n) for _ in range(6))
    worst = max(float(np.max(np.abs(coeffs.slope("b_x1", t, x, x1, x2, u)))),
                float(np.max(np.abs(coeffs.slope("sigma_x1", t, x, x1, x2, u)))),
                float(np.max(np.abs(coeffs.slope("f_x1", t, x, x1, x2, y, z, u)))),
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
                          variant: str = "G") -> Tuple[bool, float]:
    """Does sup_u G depend on the frozen x2 argument?

    Evaluates the control-maximized generalized Hamiltonian at
    x2 in {-1, 0, +1} over the probe set and reports the worst deviation;
    passes iff it stays below 1e-9 * (1 + |G|).  G is affine in x2 for
    every registry family, so three probe values are exhaustive there;
    arbitrary user coefficients get sampled coverage only.
    """
    stack = np.stack([_sup_over_controls(
        lambda u: eval_G(variant, probes.t, probes.x, probes.x1, x2v, u, probes.k, probes.p,
                         probes.R, probes.q, coeffs, delay, linear_driver),
        domain.points(), 1) for x2v in (-1.0, 0.0, 1.0)])
    dev = stack.max(axis=0) - stack.min(axis=0)
    scale = 1.0 + np.abs(stack).max(axis=0)
    worst = float(np.max(dev / scale))
    return worst <= 1e-9, worst


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _cfl_bound(block_terms, tr: np.ndarray, grid: HjbGrid, tg: TimeGrid) -> float:
    """Largest stable dt for the explicit monotone scheme, from the sweep's
    control terms at s, the midpoint and T and the transport ``tr``."""
    max_sig2 = max_b = 0.0
    for t in (tg.s, 0.5 * (tg.s + tg.T), tg.T):
        for terms, _ in block_terms(t):
            max_sig2 = max(max_sig2, float(np.max(terms.sig2)))
            max_b = max(max_b, float(np.max(np.abs(terms.b))))
    rate = max_sig2 / grid.dx ** 2 + max_b / grid.dx + float(np.abs(tr).max()) / grid.dx1
    return 1.0 / rate if rate > 0 else np.inf


def solve_hjb(coeffs, domain: ControlDomain, grid: HjbGrid, tg: TimeGrid,
              variant: str = "G", linear_driver: Optional[LinearDriver] = None,
              probes: Optional[ProbeSet] = None) -> GridValueFunction:
    """Explicit backward sweep V(t - dt) = V(t) - dt * sup_u G(...).

    Raises on CFL violation (reporting the largest admissible dt) and when
    the x2-independence gate fails.
    """
    xs, x1s = grid.xs(), grid.x1s()
    X, X1 = np.meshgrid(xs, x1s, indexing="ij")
    u_grid = domain.points()
    x2 = grid.x2_ref
    tr = transport_term(X, X1, x2, coeffs.lam, tg.delay)
    # sigma enters beyond sigma**2 only through z = p * sigma (variant G) or
    # the drift shift sigma * g (Gbar with a z-loading)
    with_sig = variant == "G" or (variant == "Gbar" and linear_driver is not None
                                  and linear_driver.gbar is not None)

    def block_terms(t):
        """(control terms, upwind mask b >= 0) of each block at t, one at a time."""
        for u in _control_blocks(u_grid, X.ndim):
            terms = control_terms(coeffs, t, X, X1, x2, u, variant, with_sig)
            yield terms, terms.b >= 0.0

    if coeffs.time_free:
        # a time-free set's control terms are the same at every step
        hoisted = list(block_terms(tg.T))
        block_terms = lambda t: hoisted

    dt = (tg.T - tg.s) / grid.n_t
    dt_max = _cfl_bound(block_terms, tr, grid, tg)
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

    times = np.linspace(tg.s, tg.T, grid.n_t + 1)
    V = np.empty((grid.n_t + 1, grid.nx, grid.nx1))
    U = np.empty_like(V)
    V[grid.n_t] = -coeffs.phi(X, X1)
    g_up = np.empty((min(U_BLOCK, len(u_grid)),) + X.shape)
    diffusion = np.empty_like(g_up)
    g_ctr = np.empty((len(u_grid),) + X.shape)

    for it in range(grid.n_t - 1, -1, -1):
        t = times[it + 1]
        Vc = V[it + 1]
        # one-sided first differences (inward copies on the boundary rows)
        d = np.diff(Vc, axis=0) / grid.dx
        fwd_x, bwd_x = np.concatenate([d, d[-1:]]), np.concatenate([d[:1], d])
        d = np.diff(Vc, axis=1) / grid.dx1
        fwd_1 = np.concatenate([d, d[:, -1:]], axis=1)
        bwd_1 = np.concatenate([d[:, :1], d], axis=1)
        d = (Vc[2:] - 2 * Vc[1:-1] + Vc[:-2]) / grid.dx ** 2
        d2x = np.concatenate([d[:1], d, d[-1:]])
        vx1_up = np.where(tr >= 0.0, fwd_1, bwd_1)

        # G at the jet (k, p, R, q) = (-V, -V_x, -V_xx, -V_x1), summed by sum_G
        # as eval_G sums it: the pieces free of the controls are formed once per
        # step, and each block's two Hamiltonians (upwind and central in x)
        # share its diffusion and drift
        k = -Vc
        p_fwd, p_bwd = -fwd_x, -bwd_x
        p_ctr = -(0.5 * (fwd_x + bwd_x))
        half_R = 0.5 * -d2x
        q_tr = -vx1_up * tr
        gbar, fbar_k = linear_driver_terms(variant, t, linear_driver, k)
        best = np.full(Vc.shape, -np.inf)
        # the controls of a block lie along a leading axis of every term
        for i, (terms, b_pos) in enumerate(block_terms(t)):
            lo, n = i * U_BLOCK, len(terms.u)
            g, g_c, diff = g_up[:n], g_ctr[lo:lo + n], diffusion[:n]
            np.multiply(half_R, terms.sig2, out=diff)
            drift = terms.drift(gbar)
            for out, p in ((g, np.where(b_pos, p_fwd, p_bwd)), (g_c, p_ctr)):
                sum_G(coeffs, t, X, X1, x2, terms, diff, drift, p, q_tr, k, fbar_k, out=out)
            np.maximum(best, g.max(axis=0), out=best)
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
    # flat indices into g_all: control i at node n is i * size + n
    size = inner.size
    flat = g_all.reshape(-1)
    at = inner * size + np.arange(size).reshape(inner.shape)
    g0 = flat.take(at)
    gm = flat.take(at - size)
    gp = flat.take(at + size)
    denom = gm - 2.0 * g0 + gp
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (gm - gp) / denom, 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    interior = (iu_best >= 1) & (iu_best <= len(u_grid) - 2)
    return np.where(interior, u_grid[inner] + shift * du, u_best)


# ---------------------------------------------------------------------------
# jets and membership
# ---------------------------------------------------------------------------

def jets_along(vgrid: GridValueFunction, t: float, x, x1):
    """Numerical jets at the nodes nearest to (t, x, x1), scalars or aligned
    arrays: (theta, p, q, P, v, interior mask).

    The time slope is right-sided (toward T), matching the one-sided
    superdifferential, with the slice clipped below T; space slopes are
    central, the curvature a second central difference.  Points outside
    the one-cell interior are masked out.
    """
    it = vgrid.slice_index(t, top=len(vgrid.times) - 2)
    j = np.round((x - vgrid.xs[0]) / vgrid.dx).astype(int)
    k = np.round((x1 - vgrid.x1s[0]) / vgrid.dx1).astype(int)
    inside = (j >= 1) & (j <= len(vgrid.xs) - 2) & (k >= 1) & (k <= len(vgrid.x1s) - 2)
    j = np.clip(j, 1, len(vgrid.xs) - 2)
    k = np.clip(k, 1, len(vgrid.x1s) - 2)
    # flat indices into a slice: (j, k) -> j * n1 + k
    V, V_next, n1 = vgrid.V[it], vgrid.V[it + 1], vgrid.V.shape[2]
    c = j * n1 + k
    v0 = V.take(c)
    theta = (V_next.take(c) - v0) / vgrid.dt
    p = (V.take(c + n1) - V.take(c - n1)) / (2 * vgrid.dx)
    q = (V.take(c + 1) - V.take(c - 1)) / (2 * vgrid.dx1)
    P = (V.take(c + n1) - 2 * v0 + V.take(c - n1)) / vgrid.dx ** 2
    return theta, p, q, P, v0, inside


def extract_jet(vgrid: GridValueFunction, t: float, x: float, x1: float) -> Jet:
    """Numerical jet (see ``jets_along``) at the node nearest to an interior
    point with t < T."""
    if vgrid.slice_index(t) >= len(vgrid.times) - 1:
        raise ValueError("jet extraction requires t < T")
    theta, p, q, P, _, inside = jets_along(vgrid, t, x, x1)
    if not inside:
        raise ValueError("jet extraction requires an interior grid point")
    return Jet(theta=float(theta), p=float(p), q=float(q), P=float(P))


def jet_membership(vgrid: GridValueFunction, point: Tuple[float, float, float],
                   candidate, side: str = "super", radius: int = 3,
                   tol: float = 0.05, x_slope_only: bool = False):
    """Grid-level one-sided Taylor test for jet membership at a point.

    ``candidate`` is a Jet, or a bare x-slope when ``x_slope_only`` is
    set.  For the super side the quadratic model must dominate V over the
    right-time neighborhood up to tol * rho with
    rho = |s'-t| + |x'-x|^2 + |x1'-x1|^2 (rho = |x'-x| in slope-only
    mode); the sub side reverses the inequality.  Returns
    (verdict, worst residual), the residual normalized by rho.

    ``x`` and ``x1`` of the point may also be aligned arrays of N points
    at the one time ``t``, with the candidate (the Jet fields or the
    slope) aligned to them; verdicts and residuals are then arrays, each
    entry equal to that of the point's own scalar call.
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    t, x, x1 = point
    scalar = np.ndim(x) == 0
    nt, nx, nx1 = len(vgrid.times) - 1, len(vgrid.xs), len(vgrid.x1s)
    it0 = vgrid.slice_index(t)
    j0 = np.clip(np.round((np.atleast_1d(x) - vgrid.xs[0]) / vgrid.dx).astype(int), 0, nx - 1)
    k0 = np.clip(np.round((np.atleast_1d(x1) - vgrid.x1s[0]) / vgrid.dx1).astype(int),
                 0, nx1 - 1)
    if np.any((j0 < radius) | (j0 > nx - 1 - radius)):
        raise ValueError("point too close to the x boundary for the requested radius")
    sign = 1.0 if side == "super" else -1.0
    # axes (point, it, j, k) in full mode, (point, j) in slope-only mode
    offsets = np.arange(-radius, radius + 1)
    v0 = vgrid.V[it0, j0, k0]
    if x_slope_only:
        p = np.atleast_1d(candidate.p if isinstance(candidate, Jet) else candidate)
        js = j0[:, None] + offsets[offsets != 0]
        dxs = vgrid.xs[js] - vgrid.xs[j0][:, None]
        model = v0[:, None] + p[:, None] * dxs
        resid = sign * (vgrid.V[it0, js, k0[:, None]] - model) / np.abs(dxs)
        worst = resid.max(axis=1)
    else:
        if not isinstance(candidate, Jet):
            raise ValueError("full membership test needs a Jet candidate")
        if np.any((k0 < radius) | (k0 > nx1 - 1 - radius)):
            raise ValueError("point too close to the x1 boundary for the requested radius")
        theta, p, q, P = (np.atleast_1d(v)[:, None, None, None] for v in
                          (candidate.theta, candidate.p, candidate.q, candidate.P))
        its = np.arange(it0, min(it0 + radius, nt) + 1)
        js = j0[:, None] + offsets
        ks = k0[:, None] + offsets
        dt = (vgrid.times[its] - vgrid.times[it0])[None, :, None, None]
        dxs = (vgrid.xs[js] - vgrid.xs[j0][:, None])[:, None, :, None]
        # the x1 offsets are squared one by one as numpy scalars (libm pow),
        # which can differ in the last bit from the array square; this keeps
        # the residuals equal to those of the per-(time, x1)-row form
        k_set, k_row = np.unique(k0, return_inverse=True)
        d1 = vgrid.x1s[k_set[:, None] + offsets] - vgrid.x1s[k_set][:, None]
        d1_sq = np.array([[d ** 2 for d in row] for row in d1]).reshape(d1.shape)
        d1, d1_sq = (v[k_row][:, None, None, :] for v in (d1, d1_sq))
        rho = np.abs(dt) + dxs ** 2 + d1_sq
        model = (v0[:, None, None, None] + theta * dt + p * dxs
                 + 0.5 * P * dxs ** 2 + q * d1)
        block = vgrid.V[its[None, :, None, None], js[:, None, :, None], ks[:, None, None, :]]
        resid = sign * (block - model)
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = resid / np.maximum(rho, 1e-300)
        resid[:, 0, radius, radius] = -np.inf  # the point itself
        worst = resid.max(axis=(1, 2, 3))
    if scalar:
        return bool(worst[0] <= tol), float(worst[0])
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
    r = []
    for (t, x, x1) in points:
        jet = extract_jet(vgrid, t, x, x1)
        it, j, k = vgrid.indices(t, x, x1)
        r.append(-jet.theta + float(_sup_over_controls(lambda u: eval_G(
            vgrid.variant, vgrid.times[it], vgrid.xs[j], vgrid.x1s[k], vgrid.x2_ref, u,
            -vgrid.V[it, j, k], -jet.p, -jet.P, -jet.q, coeffs, delay, linear_driver),
            domain.points(), 0)))
    return max([0.0, *r]), max([0.0, *(-v for v in r)])


def feedback_control(vgrid: GridValueFunction, domain: ControlDomain):
    """Feedback rule u(t, x, x1) interpolated from the stored argmax field."""

    def rule(t, x, x1):
        return domain.clip(vgrid._interp_slice(vgrid.u_star[vgrid.slice_index(t)], x, x1))

    return rule


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

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
