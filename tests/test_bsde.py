import dataclasses
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from delaycontrol.core import (ConfigurationError, HistoryPath, LinearDriver,
                               TimeGrid)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol.bsde import (ConditionalRegression, RegressionBasis,
                               assert_linear_driver, cost_functional_J,
                               linear_driver_oracle, solve_bsde_lsmc)


def grid(T=1.0, dt=0.01, m=10):
    return TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)


def run(coeffs, g, n_paths=2000, seed=1, control=0.0, x0=1.0):
    return simulate_smdde(coeffs, HistoryPath.constant(x0, g.m), control, g,
                          NoiseSource(seed), n_paths)


class TestBasis:
    def test_design_columns(self):
        basis = RegressionBasis(degree=2)
        x = np.array([1.0, 2.0])
        x1 = np.array([3.0, 4.0])
        A = basis.design(x, x1)
        # 1, x, x1, x^2, x*x1, x1^2
        assert A.shape == (2, 6)
        assert A[0] == pytest.approx([1, 1, 3, 1, 3, 9])

    def test_x2_admission_flag(self):
        basis = RegressionBasis(degree=1, include_x2=True)
        A = basis.design(np.ones(3), np.ones(3), 2 * np.ones(3))
        assert A.shape == (3, 4)
        with pytest.raises(ConfigurationError):
            basis.design(np.ones(3), np.ones(3), None)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegressionBasis(degree=0)
        with pytest.raises(ConfigurationError):
            RegressionBasis(eps_reg=-1.0)


def reference_design(basis, x, x1, x2=None):
    """Column-stacked basis terms, each built up from a column of ones."""
    cols = [np.ones_like(x)]
    vars_ = [x, x1] + ([x2] if basis.include_x2 else [])
    for deg in range(1, basis.degree + 1):
        for combo in combinations_with_replacement(range(len(vars_)), deg):
            term = np.ones_like(x)
            for idx in combo:
                term = term * vars_[idx]
            cols.append(term)
    return np.column_stack(cols)


def reference_factor(design, eps_reg):
    """Kept columns, scale, scaled matrix and Cholesky factor from axis-0
    reductions."""
    keep = np.ones(design.shape[1], dtype=bool)
    spread = design.max(axis=0) - design.min(axis=0)
    keep[1:] = spread[1:] > 1e-12
    A = design[:, keep]
    scale = np.maximum(np.abs(A).max(axis=0), 1.0)
    A = A / scale
    gram = A.T @ A
    lam = eps_reg * max(float(np.trace(gram)) / gram.shape[0], 1e-300)
    penalty = np.eye(gram.shape[0])
    penalty[0, 0] = 0.0
    return keep, scale, A, np.linalg.cholesky(gram + lam * penalty)


class TestRegressionOperator:
    """The design fill and the column-wise spread, scale and scaled matrix
    must reproduce the column-stacked design, the axis-0 reductions and
    their fits exactly."""

    @staticmethod
    def _states(kind, n=257):
        rng = np.random.default_rng(11)
        if kind == "deterministic":  # a constant first slice: intercept only
            return np.full(n, 0.6), np.full(n, 0.35), np.full(n, 0.6)
        # x spans beyond [-1, 1] (scale > 1), x1 stays inside (scale clipped
        # to 1); a constant x2 gives zero-spread columns that are dropped
        x2 = np.full(n, -1.7) if kind == "constant_x2" else rng.normal(0.0, 1.5, n)
        return rng.normal(0.2, 2.0, n), rng.uniform(-0.6, 0.4, n), x2

    @pytest.mark.parametrize("kind", ["random", "constant_x2", "deterministic"])
    @pytest.mark.parametrize("include_x2", [False, True])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_column_stack_and_axis0_reductions(self, degree, include_x2, kind):
        basis = RegressionBasis(degree=degree, include_x2=include_x2)
        x, x1, x2 = self._states(kind)
        design = basis.design(x, x1, x2)
        assert np.array_equal(design, reference_design(basis, x, x1, x2))
        reg = ConditionalRegression(design, basis.eps_reg)
        keep, scale, A, factor = reference_factor(design, basis.eps_reg)
        assert np.array_equal(reg.keep, keep)
        assert np.array_equal(reg.scale, scale)
        assert np.array_equal(reg.factor, factor)
        # the layout of the scaled matrix fixes the summation order of a fit
        y = np.sin(np.arange(x.size))
        coef = np.linalg.solve(factor.T, np.linalg.solve(factor, A.T @ y))
        assert np.array_equal(reg.fit_values(y), A @ coef)
        if kind == "deterministic":
            assert reg.keep.sum() == 1
        elif kind == "constant_x2" and include_x2:
            assert not reg.keep.all()
        else:
            assert reg.keep.all()


class TestBackwardSolver:
    def test_constant_terminal(self):
        coeffs = make_coefficients("constant", lam=0.0, s0=0.5, phi0=3.0)
        g = grid(T=0.5)
        sol = solve_bsde_lsmc(run(coeffs, g), coeffs, RegressionBasis())
        assert sol.y_s == pytest.approx(3.0, abs=1e-7)
        assert np.nanmax(np.abs(sol.Y - 3.0)) < 1e-7
        assert np.nanmax(np.abs(sol.Z)) < 1e-7  # martingale-residual response is 0

    def test_frozen_state_identity_terminal(self):
        # no dynamics, phi = x: Y(t) = history end value for all t
        coeffs = make_coefficients("linear", lam=0.0, phix=1.0)
        g = grid(T=0.5)
        sol = solve_bsde_lsmc(run(coeffs, g, x0=1.7), coeffs, RegressionBasis())
        assert np.nanmax(np.abs(sol.Y - 1.7)) < 1e-7

    def test_terminal_identity_exact_per_path(self):
        coeffs = make_coefficients("linear", lam=0.3, bx=0.2, sx=0.3, fx=1.0,
                                   phix=1.0, phix1=0.5)
        g = grid(T=0.5)
        bundle = run(coeffs, g)
        sol = solve_bsde_lsmc(bundle, coeffs, RegressionBasis())
        n = g.n_steps
        expect = coeffs.phi(bundle.x_at(n), bundle.X1[:, n])
        assert np.array_equal(sol.Y[:, n], expect)

    def test_discounted_gbm_closed_form(self):
        a, c, r, x0, T = 0.3, 0.2, 0.25, 1.0, 1.0
        coeffs = make_coefficients("linear", lam=0.0, bx=a, sx=c, fy=-r, phix=1.0)
        g = grid(T=T)
        sol = solve_bsde_lsmc(run(coeffs, g, n_paths=40_000, seed=4), coeffs,
                              RegressionBasis(degree=2))
        exact = math.exp(-r * T) * x0 * math.exp(a * T)
        assert abs(sol.y_s - exact) < 3 * sol.y_s_se + 2e-3  # + O(dt) bias allowance

    def test_lipschitz_gate(self):
        coeffs = make_coefficients("linear", lam=0.0, fy=-150.0)
        g = grid(T=0.5)
        with pytest.raises(ConfigurationError, match="step too large"):
            solve_bsde_lsmc(run(coeffs, g, n_paths=100), coeffs, RegressionBasis())

    def test_requires_increments(self):
        coeffs = make_coefficients("constant", lam=0.0)
        g = grid(T=0.2)
        b = simulate_smdde(coeffs, HistoryPath.constant(0.0, g.m), 0.0, g,
                           NoiseSource(1), 16)
        b = dataclasses.replace(b, dW=None)
        with pytest.raises(ConfigurationError, match="increments"):
            solve_bsde_lsmc(b, coeffs, RegressionBasis())

    def test_apriori_bound_ratio_stable_under_refinement(self):
        # E sup |Y|^2 against E[|phi|^2 + (int |f(.,0,0,.)| dr)^2]
        coeffs = make_coefficients("linear", lam=0.2, bx=0.2, sx=0.3, fx=0.8,
                                   fy=-0.3, phix=1.0)
        ratios = []
        for dt, m in ((0.02, 5), (0.01, 10)):
            g = TimeGrid(s=0.0, T=0.5, dt=dt, delay_steps=m)
            bundle = run(coeffs, g, n_paths=4000, seed=9)
            sol = solve_bsde_lsmc(bundle, coeffs, RegressionBasis())
            lhs = float(np.mean(np.max(sol.Y ** 2, axis=1)))
            n = g.n_steps
            integ = np.zeros(bundle.n_paths)
            for i in range(n):
                integ += np.abs(coeffs.f(g.time(i), bundle.x_at(i), bundle.X1[:, i],
                                         bundle.X2[:, i], 0.0, 0.0, 0.0)) * dt
            phiT = coeffs.phi(bundle.x_at(n), bundle.X1[:, n])
            rhs = float(np.mean(phiT ** 2 + integ ** 2))
            ratios.append(lhs / rhs)
        assert all(np.isfinite(r) for r in ratios)
        assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.1

    def test_cost_monotone_in_terminal(self):
        # larger terminal cost -> larger Y(s) -> smaller J (coupled noise)
        g = grid(T=0.5)
        base = dict(lam=0.0, bx=0.2, sx=0.3)
        c_lo = make_coefficients("linear", phi0=1.0, **base)
        c_hi = make_coefficients("linear", phi0=2.0, **base)
        j_lo = cost_functional_J(solve_bsde_lsmc(run(c_lo, g, seed=5), c_lo,
                                                 RegressionBasis()))
        j_hi = cost_functional_J(solve_bsde_lsmc(run(c_hi, g, seed=5), c_hi,
                                                 RegressionBasis()))
        assert j_hi < j_lo

    def test_cost_sign_convention(self):
        coeffs = make_coefficients("constant", lam=0.0, phi0=3.0)
        sol = solve_bsde_lsmc(run(coeffs, grid(T=0.2), n_paths=100), coeffs,
                              RegressionBasis())
        assert cost_functional_J(sol) == pytest.approx(-3.0, abs=1e-7)


class TestLinearDriverOracle:
    def test_constant_terminal_exact(self):
        coeffs = make_coefficients("constant", lam=0.0, phi0=2.0, s0=0.4)
        g = grid(T=0.5)
        est, se = linear_driver_oracle(coeffs, LinearDriver(), run(coeffs, g, 500))
        assert est == pytest.approx(2.0, abs=1e-12)

    def test_running_cost_exact(self):
        coeffs = make_coefficients("constant", lam=0.0, f0=1.0, s0=0.4)
        g = grid(T=0.75, dt=0.0025, m=4)
        est, _ = linear_driver_oracle(coeffs, LinearDriver(), run(coeffs, g, 200))
        assert est == pytest.approx(0.75, abs=1e-12)

    def test_discounting(self):
        r, T = 0.4, 1.0
        coeffs = make_coefficients("constant", lam=0.0, f0=0.0, phi0=1.0)
        # fbar = -r discounts the terminal payout
        driver = LinearDriver.constants(fbar=-r)
        coeffs_disc = make_coefficients("linear", lam=0.0, phi0=1.0, fy=-r)
        g = grid(T=T)
        est, _ = linear_driver_oracle(coeffs_disc, driver, run(coeffs_disc, g, 200))
        assert est == pytest.approx(math.exp(-r * T), rel=1e-5)

    def test_rejects_nonlinear_driver(self):
        coeffs = make_coefficients("linear_quadratic", lam=0.0, q=1.0, r=1.0,
                                   sigma0=0.1, fy=-0.5)
        with pytest.raises(ConfigurationError, match="oracle inapplicable"):
            assert_linear_driver(coeffs, LinearDriver())  # fy missing from driver

    def test_two_routes_agree_on_lq(self):
        params = dict(a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0, phi_quad=-0.15)
        coeffs = make_coefficients("linear_quadratic", lam=0.5, **params)
        g = grid(T=1.0)
        bundle = run(coeffs, g, n_paths=20_000, seed=12, control=0.1, x0=0.6)
        sol = solve_bsde_lsmc(bundle, coeffs, RegressionBasis(degree=2))
        est, se = linear_driver_oracle(coeffs, LinearDriver(), bundle)
        assert abs(sol.y_s - est) <= 3 * (sol.y_s_se + se)
