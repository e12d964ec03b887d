import math

import numpy as np
import pytest

from delaycontrol.core import (ConfigurationError, ControlDomain, HistoryPath,
                               Instance, LinearDriver, TimeGrid, derived_rng)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol.bsde import RegressionBasis, linear_driver_oracle, solve_bsde_lsmc
from delaycontrol.hjb import GridValueFunction, HjbGrid, feedback_control, solve_hjb
from delaycontrol.connect import (check_duality_inclusion, girsanov_reduce,
                                  start_state, verify_optimality)

from conftest import solve_pipeline
from oracles import check_derivative_consistency, verify_two_pass


def control_tournament(instance, noise, n_paths, n_controls, seed):
    """Costs (u, J, se) of random constant controls, each priced by the plain
    oracle on its own noise."""
    rng = derived_rng(seed, 808)
    out = []
    for k in range(n_controls):
        u = float(rng.uniform(instance.domain.lower, instance.domain.upper))
        b = simulate_smdde(instance.coeffs, instance.history, u, instance.grid,
                           NoiseSource(noise.seed + 1000 + k), n_paths)
        y, se = linear_driver_oracle(instance.coeffs, instance.driver, b)
        out.append((u, -y, se))
    return out


class TestStartState:
    def test_constant_history(self):
        grid = TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=10)
        inst = Instance(coeffs=make_coefficients("constant", lam=0.5), grid=grid,
                        history=HistoryPath.constant(2.0, 10),
                        domain=ControlDomain(-1, 1))
        x0, x10 = start_state(inst)
        assert x0 == 2.0
        assert x10 == pytest.approx(2.0 * (1 - math.exp(-0.05)) / 0.5, rel=1e-3)


class TestDuality:
    def test_lq_pipeline(self, lq_small):
        bundle, _, adj = solve_pipeline(lq_small["inst"], lq_small["control"], 42, 2000)
        rep = check_duality_inclusion(bundle, adj, lq_small["vgrid"], 42)
        assert rep.applicable
        assert rep.coverage >= 0.9
        assert rep.membership_pass_fraction >= 0.95
        assert rep.identity_median_rel_err <= 0.05
        assert all(r.n_points > 0 for r in rep.records)

    def test_shifted_candidate_fails(self, lq_small):
        bundle, _, adj = solve_pipeline(lq_small["inst"], lq_small["control"], 42, 2000)
        rep = check_duality_inclusion(bundle, adj, lq_small["vgrid"], 42, candidate_shift=0.5)
        assert rep.membership_pass_fraction < 0.5

    def test_constant_everything_identity_exact(self):
        # no dynamics, linear terminal: adjoint and value slope both constant
        M = 0.8
        coeffs = make_coefficients("linear", lam=0.5, phix=M)
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=10)
        inst = Instance(coeffs=coeffs, grid=grid,
                        history=HistoryPath.constant(0.5, 10),
                        domain=ControlDomain(-1, 1, n_u=5), driver=LinearDriver())
        vgrid = solve_hjb(coeffs, inst.domain, HjbGrid(-2, 2, 81, -2, 2, 41, 60),
                          grid)
        bundle, _, adj = solve_pipeline(inst, 0.0, 3, 200)
        rep = check_duality_inclusion(bundle, adj, vgrid, 3)
        assert rep.applicable
        assert rep.identity_median_rel_err < 1e-9
        assert rep.membership_pass_fraction == 1.0

    def test_gate_failure_reported_as_inapplicable(self):
        # x2-free coefficients but terminal depends on x1: p2 != 0 forces
        # a nonzero pathwise p3, so the reduction hypothesis fails
        coeffs = make_coefficients("linear", lam=0.5, sx=0.2, phix=0.5, phix1=1.0)
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=10)
        inst = Instance(coeffs=coeffs, grid=grid,
                        history=HistoryPath.constant(0.5, 10),
                        domain=ControlDomain(-1, 1, n_u=5), driver=LinearDriver())
        vgrid = solve_hjb(make_coefficients("linear", lam=0.5, sx=0.2, phix=0.5),
                          inst.domain, HjbGrid(-2, 2, 81, -2, 2, 41, 60), grid)
        bundle, _, adj = solve_pipeline(inst, 0.0, 3, 500)
        rep = check_duality_inclusion(bundle, adj, vgrid, 3)
        assert not rep.applicable
        assert rep.max_abs_p3 > rep.p3_tol


class TestVerification:
    def test_optimal_feedback_verdict_true(self, lq_small):
        rep = verify_optimality(lq_small["inst"], lq_small["control"],
                                lq_small["vgrid"], NoiseSource(7), 10_000)
        assert rep.verdict
        assert rep.integral_stat <= 3 * rep.integral_se + rep.budget
        assert rep.membership_pass_fraction >= 0.95
        assert abs(rep.gap) <= 3 * rep.j_se + rep.budget

    def test_suboptimal_control_rejected(self, lq_small):
        rep = verify_optimality(lq_small["inst"], 1.0, lq_small["vgrid"],
                                NoiseSource(8), 10_000)
        assert not rep.verdict
        assert rep.gap > 3 * rep.j_se + rep.budget

    def test_zero_instance_trivial(self):
        coeffs = make_coefficients("constant", lam=0.5, phi0=1.5)
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=10)
        inst = Instance(coeffs=coeffs, grid=grid,
                        history=HistoryPath.constant(0.0, 10),
                        domain=ControlDomain(-1, 1, n_u=5), driver=LinearDriver())
        vgrid = solve_hjb(coeffs, inst.domain, HjbGrid(-2, 2, 81, -2, 2, 41, 60),
                          grid, variant="Gtilde", linear_driver=inst.driver)
        rep = verify_optimality(inst, 0.3, vgrid, NoiseSource(5), 500)
        assert rep.verdict
        assert rep.integral_stat == pytest.approx(0.0, abs=1e-9)
        assert rep.j_candidate == pytest.approx(-1.5, abs=1e-9)
        assert rep.v_start == pytest.approx(-1.5, abs=1e-9)

    def test_requires_z_free_driver(self, lq_small):
        inst = lq_small["inst"]
        bad = Instance(coeffs=inst.coeffs, grid=inst.grid, history=inst.history,
                       domain=inst.domain,
                       driver=LinearDriver(gbar=0.5))
        with pytest.raises(ConfigurationError, match="measure-change"):
            verify_optimality(bad, 0.0, lq_small["vgrid"], NoiseSource(1), 100)
        none = Instance(coeffs=inst.coeffs, grid=inst.grid, history=inst.history,
                        domain=inst.domain, driver=None)
        with pytest.raises(ConfigurationError, match="linear-driver"):
            verify_optimality(none, 0.0, lq_small["vgrid"], NoiseSource(1), 100)

    def test_refuses_a_driver_that_f_does_not_have(self, lq_small):
        # the LQ f reads no y: the oracle's gate refuses fbar = 0.1
        inst = lq_small["inst"]
        bad = Instance(coeffs=inst.coeffs, grid=inst.grid, history=inst.history,
                       domain=inst.domain, driver=LinearDriver(fbar=0.1))
        with pytest.raises(ConfigurationError, match="oracle inapplicable"):
            verify_optimality(bad, 0.0, lq_small["vgrid"], NoiseSource(1), 500)

    @pytest.mark.parametrize("control", ["constant", "hjb"])
    def test_membership_reads_the_integrand_jets(self, control):
        # on a value grid that varies in x1, membership tested on the jets of
        # the integrand loop has the bits of a second pass over the sampled
        # paths; some jets pass and some fail
        coeffs = make_coefficients("linear", lam=0.5, bx=-0.2, bx1=0.3, bu=0.5, s0=0.3,
                                   sx=0.1, sx1=0.1, fx=-0.2, fx1=0.1, fu=0.1, phix=0.3,
                                   phix1=-0.2)
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=10)
        inst = Instance(coeffs=coeffs, grid=grid, history=HistoryPath.constant(0.5, 10),
                        domain=ControlDomain(-1, 1, n_u=5), driver=LinearDriver())
        times, xs, x1s = np.linspace(0.0, 0.5, 26), np.linspace(-3, 3, 61), np.linspace(-3, 3, 41)
        T, X, X1 = np.meshgrid(times, xs, x1s, indexing="ij")
        V = (-0.3 * X ** 2 + 0.2 * X * X1 - 0.1 * X1 ** 2 + 0.05 * T * X
             + 0.002 * np.random.default_rng(3).normal(size=X.shape))
        vgrid = GridValueFunction(times=times, xs=xs, x1s=x1s, V=V,
                                  u_star=np.clip(0.5 * X - 0.3 * X1, -1, 1), x2_ref=0.0,
                                  variant="Gtilde")
        rule = 0.2 if control == "constant" else feedback_control(vgrid, inst.domain)
        rep = verify_optimality(inst, rule, vgrid, NoiseSource(3), 600)
        per_step, fraction = verify_two_pass(inst, rule, vgrid, NoiseSource(3), 600)
        assert rep.per_step == per_step
        assert rep.membership_pass_fraction == fraction
        assert 0.0 < fraction < 1.0

    def test_value_lower_bounds_every_cost(self, lq_small):
        # V(s, x, x1) <= J(u) + tolerance for each registry control tested
        inst = lq_small["inst"]
        vgrid = lq_small["vgrid"]
        from delaycontrol.connect import start_state
        x0, x10 = start_state(inst)
        v0 = float(vgrid.value(inst.grid.s, x0, x10))
        for k, u in enumerate((-0.5, 0.0, 0.3, 1.0)):
            b = simulate_smdde(inst.coeffs, inst.history, u, inst.grid,
                               NoiseSource(900 + k), 4000)
            y, se = linear_driver_oracle(inst.coeffs, inst.driver, b)
            assert v0 <= -y + 3 * se + 5e-2

    def test_tournament_soundness(self, lq_small):
        # verified-optimal cost undercuts every random constant control
        rep = verify_optimality(lq_small["inst"], lq_small["control"],
                                lq_small["vgrid"], NoiseSource(7), 10_000)
        tour = control_tournament(lq_small["inst"], NoiseSource(7), 4000,
                                  n_controls=20, seed=11)
        best = min(j for _, j, _ in tour)
        worst_se = max(se for _, _, se in tour)
        assert rep.verdict
        assert rep.j_candidate <= best + 3 * (rep.j_se + worst_se)


class TestGirsanov:
    def _instance(self, gbar=0.3):
        coeffs = make_coefficients("linear", lam=0.3, bx=0.2, s0=0.3, fx=-0.5,
                                   fy=-0.1, fz=gbar)
        grid = TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=10)
        return Instance(coeffs=coeffs, grid=grid,
                        history=HistoryPath.constant(1.0, 10),
                        domain=ControlDomain(-1, 1, n_u=5),
                        driver=LinearDriver(fbar=-0.1, gbar=gbar))

    def test_zero_g_is_identity(self):
        inst = self._instance(gbar=0.0)
        # gbar = 0 has no z-term: the instance is kept as it is
        red = girsanov_reduce(inst)
        b = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid,
                           NoiseSource(2), 64)
        assert np.all(red.weights(b) == 1.0)

    def test_constant_g_shifts_drift(self):
        c = 0.4
        coeffs = make_coefficients("linear", lam=0.0, s0=1.0, fz=c)
        grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=5)
        inst = Instance(coeffs=coeffs, grid=grid,
                        history=HistoryPath.constant(0.0, 5),
                        domain=ControlDomain(-1, 1),
                        driver=LinearDriver(gbar=c))
        red = girsanov_reduce(inst)
        assert red.instance.coeffs.b(0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(c)
        assert red.instance.driver.gbar == 0.0
        bundle = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid,
                                NoiseSource(13), 20_000)
        w = red.weights(bundle)
        se = w.std() / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 3 * se

    @pytest.mark.parametrize("family,params", [
        ("linear", dict(bx=0.2, bx1=-0.1, bx2=0.3, s0=0.3, sx=0.2, sx1=0.1, sx2=-0.2,
                        fx=-0.5, fx1=0.2, fy=-0.1, fz=0.3)),
        ("bilinear", dict(bx=0.2, bxx1=0.5, bxx2=-0.3, s0=0.3, sx=0.1, sxx1=0.2, sxx2=0.4,
                          fx=-0.5, fy=-0.1, fz=0.3)),
    ])
    def test_shifted_slopes(self, family, params):
        gbar = 0.3
        inst = self._instance()
        c = make_coefficients(family, lam=0.3, **params)
        shifted = girsanov_reduce(Instance(coeffs=c, grid=inst.grid, history=inst.history,
                                           domain=inst.domain, driver=inst.driver)
                                  ).instance.coeffs
        assert check_derivative_consistency(shifted, seed=2) <= 1e-6
        assert shifted.f_z == 0.0 and not (shifted.time_free or shifted.x1_free)
        t, x, x1, x2, u = np.random.default_rng(9).normal(size=(5, 16))
        for s in ("_x", "_x1", "_x2"):
            got = np.broadcast_to(shifted.slope("b" + s, t, x, x1, x2, u), x.shape)
            want = np.broadcast_to(c.slope("b" + s, t, x, x1, x2, u)
                                   + c.slope("sigma" + s, t, x, x1, x2, u) * gbar, x.shape)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want)), s

    def test_cost_invariance_two_routes(self):
        inst = self._instance()
        red = girsanov_reduce(inst)
        bundle_p = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid,
                                  NoiseSource(11), 20_000)
        sol_p = solve_bsde_lsmc(bundle_p, inst.coeffs, RegressionBasis(degree=2))
        bundle_q = simulate_smdde(red.instance.coeffs, inst.history, 0.0, inst.grid,
                                  NoiseSource(12), 20_000)
        y_q, se_q = linear_driver_oracle(red.instance.coeffs, red.instance.driver,
                                         bundle_q)
        assert abs(sol_p.y_s - y_q) <= 3 * (sol_p.y_s_se + se_q)

    def test_weighted_expectation_matches_shifted_measure(self):
        # E_P[w * F(X)] equals E_Q[F(X_shifted)] for a terminal functional
        inst = self._instance(gbar=0.25)
        red = girsanov_reduce(inst)
        bundle_p = simulate_smdde(inst.coeffs, inst.history, 0.0, inst.grid,
                                  NoiseSource(21), 40_000)
        w = red.weights(bundle_p)
        f_p = float(np.mean(w * bundle_p.state(inst.grid.n_steps)[1]))
        bundle_q = simulate_smdde(red.instance.coeffs, inst.history, 0.0, inst.grid,
                                  NoiseSource(22), 40_000)
        xq = bundle_q.state(inst.grid.n_steps)[1]
        se = (np.std(w * bundle_p.state(inst.grid.n_steps)[1]) + np.std(xq)) / math.sqrt(40_000)
        assert abs(f_p - xq.mean()) <= 3 * se
