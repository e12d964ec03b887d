"""Closed-form, ODE and cross-check oracles used by the tests.

Riccati systems are integrated with scipy, delay segments come from the
method-of-steps closed forms, discounted expectations from textbook
formulas; these are independent of the library's own solvers.  The
gamma-normalized adjoint pair is solved from its own backward system on
the library's LSMC sweep, a second route to ptilde = p1/gamma.

The term-by-term forms that the library has since folded into one rule
each are kept here too, for the tests that pin the bits: the bilinear
family's value and slope evaluators, the verification checker's second
jet pass and the maximum-principle checker's two H_u differences.
"""

import numpy as np
from scipy.integrate import solve_ivp

from delaycontrol.adjoint import (N_CONVEXITY, N_PATH_SAMPLES, N_TIME_SAMPLES,
                                  VARIATIONAL_REL_TOL, _along)
from delaycontrol.bsde import backward_sweep
from delaycontrol.coeffs import _fill, _linear
from delaycontrol.connect import MEMBERSHIP_RADIUS, MEMBERSHIP_TOL, N_MEMBERSHIP_SAMPLE
from delaycontrol.core import derived_rng, eval_G, eval_H
from delaycontrol.hjb import Jet, jet_membership, jets_along
from delaycontrol.smdde import simulate_smdde


def riccati_lq(a, bu, sigma0, q, r, phi_quad=0.0, phi_lin=0.0, phi0=0.0,
               b0=0.0, s=0.0, T=1.0):
    """Value function V(t, x) = K(t) x^2 + L(t) x + c(t) of the scalar problem

        dX = (b0 + a X + bu u) dt + sigma0 dW,
        minimize E[ int_s^T (q X^2 + r u^2) dt - (phi_quad X_T^2
                    + phi_lin X_T + phi0) ],

    i.e. terminal data K(T) = -phi_quad, L(T) = -phi_lin, c(T) = -phi0.
    Returns a dense-output callable t -> (K, L, c).  The optimal feedback
    is u(t, x) = -bu (2 K x + L) / (2 r), valid while it stays inside the
    control box.
    """

    def rhs(t, y):
        K, L, c = y
        return [-2 * a * K + bu ** 2 * K ** 2 / r - q,
                -a * L - 2 * b0 * K + bu ** 2 * K * L / r,
                -b0 * L + bu ** 2 * L ** 2 / (4 * r) - sigma0 ** 2 * K]

    sol = solve_ivp(rhs, [T, s], [-phi_quad, -phi_lin, -phi0],
                    dense_output=True, rtol=1e-11, atol=1e-13)
    return sol.sol


def lq_feedback(ric, bu, r):
    """Optimal feedback rule u(t, x) from a riccati_lq solution."""

    def rule(t, x, x1):
        K, L, _ = ric(t)
        return -bu * (2 * K * np.asarray(x) + L) / (2 * r)

    return rule


def steps_segment_1(t, s):
    """X' = X(t - delta), X = 1 on [s - delta, s]: first delay segment."""
    return 1.0 + (t - s)


def steps_segment_2(t, s, delta):
    """Second delay segment of the same equation."""
    tau = t - s - delta
    return 1.0 + delta + tau + 0.5 * tau ** 2


def exp_window_integral(lam, alpha, delta):
    """Integral over [-delta, 0] of e^{lam*tau} * e^{alpha*tau} d tau."""
    rate = lam + alpha
    if abs(rate) < 1e-14:
        return delta
    return (1.0 - np.exp(-rate * delta)) / rate


def check_derivative_consistency(coeffs, seed: int = 0, n_points: int = 64,
                                 step: float = 1e-5) -> float:
    """Worst hybrid-relative mismatch between the derivatives of a
    ``CoefficientSet`` and central differences of its values, over random
    sample points.

    The step is scaled by |argument| + 1; mismatch is measured as
    |fd - d| / (1 + |d|).  Registry families stay well below 1e-6.
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, 1.5, size=(n_points, 7))
    t, x, x1, x2, y, z, u = (pts[:, i] for i in range(7))
    t = np.abs(t)

    def central(fn, args, slot):
        h = step * (np.abs(args[slot]) + 1.0)
        up = list(args)
        dn = list(args)
        up[slot] = args[slot] + h
        dn[slot] = args[slot] - h
        return (fn(*up) - fn(*dn)) / (2.0 * h)

    worst = 0.0
    state_args = (t, x, x1, x2, u)
    for fn, dslot, slot in ((coeffs.b, "b_x", 1), (coeffs.b, "b_x1", 2), (coeffs.b, "b_x2", 3),
                            (coeffs.sigma, "sigma_x", 1), (coeffs.sigma, "sigma_x1", 2),
                            (coeffs.sigma, "sigma_x2", 3)):
        fd = central(fn, state_args, slot)
        d = coeffs.slope(dslot, *state_args)
        worst = max(worst, float(np.max(np.abs(fd - d) / (1.0 + np.abs(d)))))
    f_args = (t, x, x1, x2, y, z, u)
    for dslot, slot in (("f_x", 1), ("f_x1", 2), ("f_x2", 3), ("f_y", 4), ("f_z", 5)):
        fd = central(coeffs.f, f_args, slot)
        d = coeffs.slope(dslot, *f_args)
        worst = max(worst, float(np.max(np.abs(fd - d) / (1.0 + np.abs(d)))))
    for dslot, slot in (("phi_x", 0), ("phi_x1", 1)):
        fd = central(coeffs.phi, (x, x1), slot)
        d = coeffs.slope(dslot, x, x1)
        worst = max(worst, float(np.max(np.abs(fd - d) / (1.0 + np.abs(d)))))
    return worst


def solve_transformed_direct(bundle, solution, coeffs, basis):
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
        t, x, x1, x2, u = bundle.state(i, ok)
        y, z = solution.Y[ok, i], solution.Z[ok, i]
        (pt_hat, pc_hat), (qt_hat, qc_hat) = hats, qs
        bx, bx1, sx, sx1 = (coeffs.slope(slot, t, x, x1, x2, u)
                            for slot in ("b_x", "b_x1", "sigma_x", "sigma_x1"))
        fx, fx1, fy, fz = (coeffs.slope(slot, t, x, x1, x2, y, z, u)
                           for slot in ("f_x", "f_x1", "f_y", "f_z"))
        drift_t = fx - pt_hat * (bx + fy + sx * fz) - qt_hat * (sx + fz) - pc_hat
        drift_c = (pc_hat * (lam - fy) - qc_hat * fz + fx1
                   - pt_hat * (bx1 + fz * sx1) - qt_hat * sx1)
        return pt_hat - drift_t * dt, pc_hat - drift_c * dt

    _, xT, x1T, _, _ = bundle.state(n, ok)
    terminal = tuple(-coeffs.slope(slot, xT, x1T) for slot in ("phi_x", "phi_x1"))
    (pt, pc), (qt, qc), _ = backward_sweep(bundle, basis, terminal, update,
                                           solution.shared_factors(bundle, basis))
    return pt, pc, qt, qc


def bilinear_term_by_term(p):
    """The bilinear family's b, sigma and their six slopes, each product
    term written out in its own evaluator; ``p`` holds every parameter."""
    L = p["clip"]
    bxx1, bxx2 = p["bxx1"], p["bxx2"]
    sxx1, sxx2 = p["sxx1"], p["sxx2"]
    ld = _linear(p)
    lb, lsigma = ld["b"], ld["sigma"]

    def clamp(v):
        return L * np.tanh(np.asarray(v, dtype=float) / L)

    def clamp_d(v):
        return 1.0 / np.cosh(np.asarray(v, dtype=float) / L) ** 2

    def b(t, x, x1, x2, u):
        return lb(t, x, x1, x2, u) + bxx1 * clamp(x) * clamp(x1) + bxx2 * clamp(x) * clamp(x2)

    def sigma(t, x, x1, x2, u):
        return lsigma(t, x, x1, x2, u) + sxx1 * clamp(x) * clamp(x1) + sxx2 * clamp(x) * clamp(x2)

    return {
        "b": b, "sigma": sigma,
        "b_x": lambda t, x, x1, x2, u: (_fill(ld["b_x"], x, x1, x2, u)
                                        + bxx1 * clamp_d(x) * clamp(x1)
                                        + bxx2 * clamp_d(x) * clamp(x2)),
        "b_x1": lambda t, x, x1, x2, u: (_fill(ld["b_x1"], x, x1, x2, u)
                                         + bxx1 * clamp(x) * clamp_d(x1)),
        "b_x2": lambda t, x, x1, x2, u: (_fill(ld["b_x2"], x, x1, x2, u)
                                         + bxx2 * clamp(x) * clamp_d(x2)),
        "sigma_x": lambda t, x, x1, x2, u: (_fill(ld["sigma_x"], x, x1, x2, u)
                                            + sxx1 * clamp_d(x) * clamp(x1)
                                            + sxx2 * clamp_d(x) * clamp(x2)),
        "sigma_x1": lambda t, x, x1, x2, u: (_fill(ld["sigma_x1"], x, x1, x2, u)
                                             + sxx1 * clamp(x) * clamp_d(x1)),
        "sigma_x2": lambda t, x, x1, x2, u: (_fill(ld["sigma_x2"], x, x1, x2, u)
                                             + sxx2 * clamp(x) * clamp_d(x2)),
    }


def verify_two_pass(instance, control, vgrid, noise, n_paths):
    """``(per_step, membership_pass_fraction)`` of ``verify_optimality``
    with membership in a second pass: after the integrand loop, each
    membership step reads its sampled paths' state and jets again."""
    coeffs, grid = instance.coeffs, instance.grid
    bundle = simulate_smdde(coeffs, instance.history, control, grid, noise, n_paths)
    n, ok = grid.n_steps, ~bundle.diverged
    per_step = []
    for i in range(n):
        t, x, x1, x2, u = bundle.state(i)
        theta, p, q, P, v0, inside = jets_along(vgrid, t, x, x1)
        inside &= ok
        g = eval_G("Gtilde", t, x, x1, x2, u, -v0, -p, -P, -q,
                   coeffs, grid.delay, instance.driver)
        step_term = np.where(inside, theta - g, 0.0)
        per_step.append((float(t), float(np.mean(step_term[inside])) if np.any(inside) else 0.0))
    rng = derived_rng(noise.seed, 707)
    sample = bundle.sample_valid(rng, N_MEMBERSHIP_SAMPLE)
    steps = rng.choice(n, size=min(12, n), replace=False)
    n_pass = n_checked = 0
    paths = sample[: max(N_MEMBERSHIP_SAMPLE // len(steps), 1)]
    for i in sorted(int(s) for s in steps):
        t, x, x1, _, _ = bundle.state(i, paths)
        keep = vgrid.is_interior(x, x1, margin=MEMBERSHIP_RADIUS)
        x, x1 = x[keep], x1[keep]
        jet = Jet(*jets_along(vgrid, t, x, x1)[:4])
        good, _ = jet_membership(vgrid, (t, x, x1), jet, side="super",
                                 radius=MEMBERSHIP_RADIUS, tol=MEMBERSHIP_TOL)
        n_checked += x.size
        n_pass += int(np.sum(good))
    return per_step, n_pass / max(n_checked, 1)


def variational_two_pairs(bundle, solution, adjoints, coeffs, domain, seed):
    """``(variational_ok, variational_worst, variational_tol)`` of
    ``check_sufficient_mp``'s check (d) with two H_u differences per step:
    one at the candidate u* on the sampled paths, one over the control grid
    on a (path, control) block.  The draws of checks (a) and (b), which
    come first from the same generator, are taken and dropped."""
    n, delay = bundle.grid.n_steps, bundle.grid.delay
    rng = derived_rng(seed, 303)
    steps = rng.choice(n, size=min(N_TIME_SAMPLES, n), replace=False)
    per_step = max(N_CONVEXITY // max(len(steps), 1), 1)
    for _ in steps:  # (a): paths, then two probe points of (x, x1, x2, y, z, u)
        rng.choice(np.flatnonzero(~bundle.diverged), size=per_step)
        rng.normal(size=(per_step, 6))
        rng.normal(size=(per_step, 6))
    rng.normal(size=512)  # (b): the terminal-cost probes
    rng.normal(size=512)
    u_grid = domain.points()
    worst_var, max_hu = -np.inf, 0.0
    sub = bundle.sample_valid(rng, N_PATH_SAMPLES)
    for i in sorted(rng.choice(n, size=min(N_TIME_SAMPLES, n), replace=False)):
        t, x, x1, x2, y, z, u = _along(bundle, solution, int(i), sub)
        ustar = np.broadcast_to(u, sub.shape)
        adj = tuple(a[sub, i] for a in (adjoints.gamma, adjoints.p1, adjoints.p2, adjoints.q1))
        h = 1e-5 * (np.abs(ustar) + 1.0)
        hu = (eval_H(t, x, x1, x2, y, z, ustar + h, *adj, coeffs, delay)
              - eval_H(t, x, x1, x2, y, z, ustar - h, *adj, coeffs, delay)) / (2.0 * h)
        gaps = hu[:, None] * (ustar[:, None] - u_grid[None, :])
        worst_var = max(worst_var, float(np.max(gaps)))
        col = (x[:, None], x1[:, None], x2[:, None], y[:, None], z[:, None])
        adj = tuple(a[:, None] for a in adj)
        hp = 1e-5 * (np.abs(u_grid) + 1.0)
        hu_probe = (eval_H(t, *col, u_grid + hp, *adj, coeffs, delay)
                    - eval_H(t, *col, u_grid - hp, *adj, coeffs, delay)) / (2.0 * hp)
        max_hu = max(max_hu, float(np.max(np.abs(hu_probe))))
    tol_var = VARIATIONAL_REL_TOL * max(max_hu, 1e-12)
    return worst_var <= tol_var, worst_var, tol_var
