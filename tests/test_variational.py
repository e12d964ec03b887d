import dataclasses

import numpy as np
import pytest

from delaycontrol import variational
from delaycontrol.core import (ConfigurationError, HistoryPath, HypothesisViolation, TimeGrid,
                              x1_weights)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol.bsde import RegressionBasis, solve_bsde_lsmc
from delaycontrol.adjoint import solve_adjoints
from delaycontrol.variational import (_GL_NODES, _GL_WEIGHTS, duality_processes,
                                      scaling_reports, simulate_variation)

OFFSETS = [0.2, 0.1, 0.05, 0.025]


def make_bundle(coeffs, T=0.5, dt=0.01, m=10, n_paths=2000, seed=1, control=0.0,
                x0=1.0):
    g = TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)
    return simulate_smdde(coeffs, HistoryPath.constant(x0, m), control, g,
                          NoiseSource(seed), n_paths)


class TestSimulateVariation:
    def test_zero_offset_is_bitwise_base(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.2, sx=0.2, bxx1=0.7)
        bundle = make_bundle(coeffs)
        run = simulate_variation(bundle, coeffs, 10, 0.0)
        assert np.all(run.Xhat == 0.0)
        assert np.all(run.Xhat1 == 0.0)
        assert np.all(run.Xhat2 == 0.0)
        assert np.all(run.eps1 == 0.0) and np.all(run.eps2 == 0.0)

    def test_linear_coefficients_have_zero_remainders(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.2, bx2=0.1,
                                   sx=0.2, sx2=0.1)
        bundle = make_bundle(coeffs)
        run = simulate_variation(bundle, coeffs, 10, 0.1)
        assert np.all(run.eps1 == 0.0)
        assert np.all(run.eps2 == 0.0)
        assert np.max(np.abs(run.Xhat)) > 0.0

    def test_discrete_delay_difference_vanishes_on_first_window(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.2, sx=0.2, bxx2=0.5)
        bundle = make_bundle(coeffs)
        m = bundle.grid.m
        run = simulate_variation(bundle, coeffs, 5, 0.1)
        # Xhat2 = 0 on [t, t+delta) exactly, then jumps to the offset
        assert np.all(run.Xhat2[:, :m] == 0.0)
        assert np.allclose(run.Xhat2[:, m], 0.1)

    def test_distributed_delay_restarts_at_base_value(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, sx=0.2)
        bundle = make_bundle(coeffs)
        run = simulate_variation(bundle, coeffs, 10, 0.2)
        assert np.all(run.Xhat1[:, 0] == 0.0)

    def test_non_finite_perturbed_path_is_hypothesis_violation(self):
        # growth 1 + bx*dt = 1.1 per step overflows a 1e308 bump within 7 steps
        coeffs = make_coefficients("linear", lam=0.0, bx=10.0)
        bundle = make_bundle(coeffs, n_paths=50)
        assert not bundle.diverged.any()
        with pytest.raises(HypothesisViolation, match="perturbed path became non-finite"):
            simulate_variation(bundle, coeffs, 10, 1e308)

    def test_short_per_step_control_holds_on_sub_horizon(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.1, sx=0.2)
        bundle = make_bundle(coeffs, n_paths=50, control=np.linspace(-0.5, 0.5, 50))
        bundle = dataclasses.replace(bundle, u=bundle.u[:23])
        for t_index in (10, 40):
            run = simulate_variation(bundle, coeffs, t_index, 0.1)
            steps = range(bundle.grid.n_steps - t_index)
            assert ([run.pert.u_at(j) for j in steps]
                    == [bundle.u_at(t_index + j) for j in steps])

    def test_finite_path_beyond_divergence_limit_is_hypothesis_violation(self):
        # a 5e12 bump stays finite but leaves [-1e12, 1e12], the simulation's
        # divergence rule
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1, sx=0.2)
        bundle = make_bundle(coeffs, n_paths=50)
        with pytest.raises(HypothesisViolation,
                           match=r"non-finite at step 10 \(path 0\)"):
            simulate_variation(bundle, coeffs, 10, 5e12)

    @pytest.mark.parametrize("t_index", [0, 7, 49])
    def test_matches_row_major_euler_loop(self, t_index):
        # b and sigma read t, so a step fed a sub-grid time s_t + j*dt (which
        # rounds differently from the grid time s + i*dt) moves the path
        base = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                 sxx2=0.4, clip=2.5)
        coeffs = dataclasses.replace(
            base, b=lambda t, x, x1, x2, u: base.b(t, x, x1, x2, u) * (1.0 + np.sin(7.0 * t)),
            sigma=lambda t, x, x1, x2, u: base.sigma(t, x, x1, x2, u) * (1.0 + t))
        rule = lambda t, x, x1: np.tanh(x - 0.5 * x1) * (1.0 - t)
        bundle = make_bundle(coeffs, n_paths=300, seed=9, control=rule)
        g = bundle.grid
        m, n, dt = g.m, g.n_steps, g.dt
        assert n == 50 and bundle.u.shape == (300, n)
        w = x1_weights(m, coeffs.lam, dt)
        X = np.array(bundle.X[:, t_index:], order="C")
        X[:, m] += 0.1
        X1 = np.empty((bundle.n_paths, n - t_index + 1))
        X1[:, 0] = bundle.X1[:, t_index]
        for k, i in enumerate(range(t_index, n)):
            t, x, x2 = g.time(i), X[:, k + m], X[:, k]
            x1 = X1[:, 0] if k == 0 else X[:, k : k + m + 1] @ w
            X1[:, k] = x1
            u = bundle.u[:, i]
            X[:, k + m + 1] = (x + coeffs.b(t, x, x1, x2, u) * dt
                               + coeffs.sigma(t, x, x1, x2, u) * bundle.dW[:, i])
        X1[:, -1] = X[:, -(m + 1):] @ w
        pert = simulate_variation(bundle, coeffs, t_index, 0.1).pert
        assert np.array_equal(pert.X, X)
        assert np.array_equal(pert.X1, X1)

    def test_rejects_terminal_time(self):
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1)
        bundle = make_bundle(coeffs)
        with pytest.raises(ConfigurationError):
            simulate_variation(bundle, coeffs, bundle.grid.n_steps, 0.1)


def _averaged_derivative_gap(dfn, t, base_args, hat_args, u):
    x, x1, x2 = base_args
    hx, hx1, hx2 = hat_args
    star = dfn(t, x, x1, x2, u)
    acc = 0.0
    for theta, w in zip(_GL_NODES, _GL_WEIGHTS):
        acc = acc + w * (dfn(t, x + theta * hx, x1 + theta * hx1, x2 + theta * hx2, u) - star)
    return acc


def step_remainders(bundle, coeffs, run):
    """Reference: eps1/eps2 one step (one column) at a time."""
    n_sub = bundle.grid.n_steps - run.t_index
    eps1 = np.zeros((bundle.n_paths, n_sub))
    eps2 = np.zeros((bundle.n_paths, n_sub))
    for j in range(n_sub):
        i = run.t_index + j
        t = bundle.grid.time(i)
        u = bundle.u_at(i)
        base_args = (bundle.x_at(i), bundle.X1[:, i], bundle.X2[:, i])
        hat_args = (run.Xhat[:, j], run.Xhat1[:, j], run.Xhat2[:, j])
        for store, dx, dx1, dx2 in ((eps1, coeffs.b_x, coeffs.b_x1, coeffs.b_x2),
                                    (eps2, coeffs.sigma_x, coeffs.sigma_x1, coeffs.sigma_x2)):
            store[:, j] = (
                _averaged_derivative_gap(dx, t, base_args, hat_args, u) * hat_args[0]
                + _averaged_derivative_gap(dx1, t, base_args, hat_args, u) * hat_args[1]
                + _averaged_derivative_gap(dx2, t, base_args, hat_args, u) * hat_args[2])
    return eps1, eps2


class TestSlabRemainders:
    # 700 paths: slabs of 8192 // 700 = 11 steps, which divide neither 50 nor 40
    N_PATHS = 700

    @staticmethod
    def _coeffs(t_and_u_dependent):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                   bxx2=0.3, sxx1=0.2, sxx2=0.4, clip=2.5)
        if not t_and_u_dependent:
            return coeffs
        # derivatives that also read t and u catch a slab fed the wrong step's
        # time or control (the remainders need not match b and sigma here)
        scaled = {name: (lambda d: lambda t, x, x1, x2, u: d(t, x, x1, x2, u)
                         * (1.0 + t * np.cos(x + u)))(getattr(coeffs, name))
                  for name in ("b_x", "b_x1", "b_x2", "sigma_x", "sigma_x1", "sigma_x2")}
        return dataclasses.replace(coeffs, **scaled)

    @pytest.mark.parametrize("control", ["scalar", "per_step", "per_step_short",
                                         "feedback"])
    @pytest.mark.parametrize("t_and_u_dependent", [False, True])
    def test_slabs_match_step_loop(self, control, t_and_u_dependent):
        coeffs = self._coeffs(t_and_u_dependent)
        n = 50
        rule = {"scalar": 0.3,
                "per_step": np.linspace(-0.5, 0.5, n),
                "per_step_short": np.linspace(-0.5, 0.5, n),
                "feedback": lambda t, x, x1: np.tanh(x - 0.5 * x1) * (1.0 - t)}[control]
        bundle = make_bundle(coeffs, n_paths=self.N_PATHS, seed=7, control=rule)
        if control == "per_step_short":
            # fewer entries than steps: the last one holds to T
            bundle = dataclasses.replace(bundle, u=bundle.u[:23])
        for t_index in (0, 10, n - 1):
            run = simulate_variation(bundle, coeffs, t_index, 0.1)
            eps1, eps2 = step_remainders(bundle, coeffs, run)
            assert np.any(eps1 != 0.0) and np.any(eps2 != 0.0)
            assert np.array_equal(run.eps1, eps1)
            assert np.array_equal(run.eps2, eps2)


class TestRemainderScaling:
    def test_linear_family_slopes(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.2, sx=0.2)
        bundle = make_bundle(coeffs)
        rep, _ = scaling_reports(bundle, coeffs, 10, OFFSETS, p=2)
        assert rep.slope("sup_xhat") == pytest.approx(2.0, abs=0.05)
        assert rep.slope("sup_xhat1") == pytest.approx(2.0, abs=0.05)
        assert rep.slope("sup_xhat2") == pytest.approx(2.0, abs=0.05)
        assert rep.slope("eps1_int") == float("inf")
        assert rep.slope("eps2_int") == float("inf")

    def test_bilinear_family_remainder_slopes(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                   sxx2=0.4, clip=2.5)
        bundle = make_bundle(coeffs, seed=2)
        rep, _ = scaling_reports(bundle, coeffs, 10, OFFSETS, p=2)
        assert rep.slope("sup_xhat") == pytest.approx(2.0, abs=0.2)
        assert rep.slope("eps1_int") >= 3.0
        assert rep.slope("eps2_int") >= 3.0

    def test_diverged_base_path_is_left_out(self):
        # one base path NaN from step 30 on: every remainder statistic (and
        # so every slope) equals that of the run on the 49 valid paths
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                   sxx2=0.4, clip=2.5)
        bundle = make_bundle(coeffs, n_paths=50)
        m = bundle.grid.m
        bundle.X[7, m + 30 :] = np.nan
        bundle.X1[7, 30:] = np.nan
        bundle.diverged[7] = True
        keep = np.arange(50) != 7
        valid = dataclasses.replace(bundle, X=bundle.X[keep], X1=bundle.X1[keep],
                                    dW=bundle.dW[keep], diverged=bundle.diverged[keep])
        offsets = [0.2, 0.1, 0.05]
        rep, _ = scaling_reports(bundle, coeffs, 5, offsets)
        want, _ = scaling_reports(valid, coeffs, 5, offsets)
        assert all(np.isfinite(slope) for slope in want.slopes.values())
        assert rep.slopes == want.slopes
        assert [r.estimate for r in rep.rows] == [r.estimate for r in want.rows]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_has_nan_slope(self, bad):
        offsets = np.array([0.2, 0.1, 0.05])
        assert np.isnan(variational._loglog_slope(offsets, np.array([0.04, bad, 0.0025])))
        assert variational._loglog_slope(offsets, np.zeros(3)) == float("inf")

    def test_requires_spread_offsets(self):
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1)
        bundle = make_bundle(coeffs)
        with pytest.raises(ConfigurationError):
            scaling_reports(bundle, coeffs, 10, [0.2, 0.1], p=2)
        with pytest.raises(ConfigurationError):
            scaling_reports(bundle, coeffs, 10, [0.2, 0.15, 0.1], p=2)


class TestDualityProcesses:
    def _setup(self, n_paths=3000):
        params = dict(a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0, phi_quad=-0.15)
        coeffs = make_coefficients("linear_quadratic", lam=0.5, **params)
        bundle = make_bundle(coeffs, T=1.0, n_paths=n_paths, seed=5, control=0.1,
                             x0=0.6)
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        return coeffs, bundle, basis, sol, adj

    def test_zero_offset_gives_zero_processes(self):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        run = simulate_variation(bundle, coeffs, 20, 0.0)
        dual = duality_processes(run, adj, coeffs, basis)
        assert np.nanmax(np.abs(dual.Yhat)) == 0.0
        assert np.nanmax(np.abs(dual.Ycheck)) == 0.0
        assert np.nanmax(np.abs(dual.Ytilde)) < 1e-12
        assert dual.mean_abs_ytilde_t == pytest.approx(0.0, abs=1e-12)

    def test_terminal_identity(self):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        run = simulate_variation(bundle, coeffs, 20, 0.1)
        dual = duality_processes(run, adj, coeffs, basis)
        n = bundle.grid.n_steps
        xT = bundle.x_at(n)
        expect = adj.ptilde[:, n] * run.Xhat[:, -1]
        assert np.allclose(dual.Yhat[:, -1], expect, atol=1e-12)
        # ptilde(T) is the negative terminal-cost x-gradient
        assert np.allclose(adj.ptilde[:, n],
                           -coeffs.phi_x(xT, bundle.X1[:, n]), atol=1e-12)

    def test_one_variation_per_offset_and_one_base_solve(self, monkeypatch):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        calls = {"variation": 0, "lsmc": 0}

        def spy(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(variational, "simulate_variation",
                            spy("variation", variational.simulate_variation))
        monkeypatch.setattr(variational, "solve_bsde_lsmc",
                            spy("lsmc", variational.solve_bsde_lsmc))
        rem, dual = scaling_reports(bundle, coeffs, 20, OFFSETS, adjoints=adj, basis=basis)
        assert calls == {"variation": 4, "lsmc": 5}
        assert len(rem.rows) == 5 * 4 and len(dual.rows) == 2 * 4

    def test_ytilde_slope_exceeds_linear_rate(self):
        coeffs, bundle, basis, sol, adj = self._setup()
        _, rep = scaling_reports(bundle, coeffs, 30, OFFSETS, adjoints=adj, basis=basis)
        assert rep.slope("abs_ytilde_t") >= 1.5
        assert rep.slope("expansion_defect_pos") >= 1.5
