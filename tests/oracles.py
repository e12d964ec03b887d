"""Closed-form, ODE and cross-check oracles used by the tests.

Riccati systems are integrated with scipy, delay segments come from the
method-of-steps closed forms, discounted expectations from textbook
formulas; these are independent of the library's own solvers.  The
gamma-normalized adjoint pair is solved from its own backward system on
the library's LSMC sweep, a second route to ptilde = p1/gamma.
"""

import numpy as np
from scipy.integrate import solve_ivp

from delaycontrol.bsde import backward_sweep


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
