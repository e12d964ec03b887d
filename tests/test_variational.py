import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from delaycontrol import variational
from delaycontrol.core import (ConfigurationError, HistoryPath, HypothesisViolation, TimeGrid,
                              mc_estimate, x1_weights)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol.bsde import RegressionBasis, solve_bsde_lsmc
from delaycontrol.adjoint import solve_adjoints
from delaycontrol.variational import (_GL_NODES, _GL_WEIGHTS, ScalingRow, duality_processes,
                                      scaling_reports, simulate_variation)
from conftest import LQ_LAM, LQ_PARAMS

OFFSETS = [0.2, 0.1, 0.05, 0.025]


def variation(bundle, coeffs, t_index, offset):
    """One offset's perturbed bundle and its differences from the base."""
    pert = simulate_variation(bundle, coeffs, t_index, [offset])
    Xhat, Xhat1, Xhat2 = variational._differences(pert, bundle, 0)
    return SimpleNamespace(t_index=t_index, pert=pert, Xhat=Xhat, Xhat1=Xhat1, Xhat2=Xhat2)


def remainders(bundle, coeffs, run):
    """eps1 and eps2 of a run."""
    return tuple(variational._remainders(bundle, coeffs, run.t_index, run.Xhat, run.Xhat1,
                                         run.Xhat2, slots) for slots in variational._EPS_SLOTS)


def make_bundle(coeffs, T=0.5, dt=0.01, m=10, n_paths=2000, seed=1, control=0.0,
                x0=1.0):
    g = TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)
    return simulate_smdde(coeffs, HistoryPath.constant(x0, m), control, g,
                          NoiseSource(seed), n_paths)


class TestSimulateVariation:
    def test_zero_offset_is_bitwise_base(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.2, sx=0.2, bxx1=0.7)
        bundle = make_bundle(coeffs)
        run = variation(bundle, coeffs, 10, 0.0)
        assert np.all(run.Xhat == 0.0)
        assert np.all(run.Xhat1 == 0.0)
        assert np.all(run.Xhat2 == 0.0)
        eps1, eps2 = remainders(bundle, coeffs, run)
        assert np.all(eps1 == 0.0) and np.all(eps2 == 0.0)

    def test_linear_coefficients_have_zero_remainders(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.2, bx2=0.1,
                                   sx=0.2, sx2=0.1)
        bundle = make_bundle(coeffs)
        run = variation(bundle, coeffs, 10, 0.1)
        eps1, eps2 = remainders(bundle, coeffs, run)
        assert np.all(eps1 == 0.0)
        assert np.all(eps2 == 0.0)
        assert np.max(np.abs(run.Xhat)) > 0.0

    def test_discrete_delay_difference_vanishes_on_first_window(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.2, sx=0.2, bxx2=0.5)
        bundle = make_bundle(coeffs)
        m = bundle.grid.m
        run = variation(bundle, coeffs, 5, 0.1)
        # Xhat2 = 0 on [t, t+delta) exactly, then jumps to the offset
        assert np.all(run.Xhat2[:, :m] == 0.0)
        assert np.allclose(run.Xhat2[:, m], 0.1)

    def test_distributed_delay_restarts_at_base_value(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, sx=0.2)
        bundle = make_bundle(coeffs)
        run = variation(bundle, coeffs, 10, 0.2)
        assert np.all(run.Xhat1[:, 0] == 0.0)

    def test_non_finite_perturbed_path_is_hypothesis_violation(self):
        # growth 1 + bx*dt = 1.1 per step overflows a 1e308 bump within 7 steps
        coeffs = make_coefficients("linear", lam=0.0, bx=10.0)
        bundle = make_bundle(coeffs, n_paths=50)
        assert not bundle.diverged.any()
        with pytest.raises(HypothesisViolation, match="perturbed path became non-finite"):
            simulate_variation(bundle, coeffs, 10, [1e308])

    def test_short_per_step_control_holds_on_sub_horizon(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.1, sx=0.2)
        bundle = make_bundle(coeffs, n_paths=50, control=np.linspace(-0.5, 0.5, 50))
        bundle = dataclasses.replace(bundle, u=bundle.u[:23])
        for t_index in (10, 40):
            pert = simulate_variation(bundle, coeffs, t_index, [0.1])
            steps = range(bundle.grid.n_steps - t_index)
            assert ([pert.u_at(j) for j in steps]
                    == [bundle.u_at(t_index + j) for j in steps])

    def test_finite_path_beyond_divergence_limit_is_hypothesis_violation(self):
        # a 5e12 bump stays finite but leaves [-1e12, 1e12], the simulation's
        # divergence rule
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1, sx=0.2)
        bundle = make_bundle(coeffs, n_paths=50)
        with pytest.raises(HypothesisViolation,
                           match=r"non-finite at step 10 \(path 0\)"):
            simulate_variation(bundle, coeffs, 10, [5e12])

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
        pert = simulate_variation(bundle, coeffs, t_index, [0.1])
        assert np.array_equal(pert.X, X)
        assert np.array_equal(pert.X1, X1)

    def test_rejects_terminal_time(self):
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1)
        bundle = make_bundle(coeffs)
        with pytest.raises(ConfigurationError):
            simulate_variation(bundle, coeffs, bundle.grid.n_steps, [0.1])

    @pytest.mark.parametrize("t_index", [12, 35])
    def test_offsets_in_one_call_match_one_call_each(self, t_index):
        # 333 paths: a block that the delay quadrature's gemv summed at another
        # row offset than its own call would change X1 bits; a feedback control
        # (per path, tiled per block) and a diverged base row, NaN from step 30
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                   sxx2=0.4, clip=2.5)
        bundle = make_bundle(coeffs, n_paths=333, seed=9,
                             control=lambda t, x, x1: np.tanh(x - 0.5 * x1) * (1.0 - t))
        m = bundle.grid.m
        bundle.X[7, m + 30 :] = np.nan
        bundle.X1[7, 30:] = np.nan
        bundle.diverged[7] = True
        offsets = [0.2, 0.1, 0.0, 0.05]
        pert = simulate_variation(bundle, coeffs, t_index, offsets)
        assert pert.blocks == 4 and pert.u.shape == (4 * 333, bundle.grid.n_steps - t_index)
        for k, h in enumerate(offsets):
            one = simulate_variation(bundle, coeffs, t_index, [h])
            rows = slice(333 * k, 333 * (k + 1))
            for name in ("X", "X1", "u", "diverged"):
                assert np.array_equal(getattr(pert, name)[rows], getattr(one, name),
                                      equal_nan=True), (name, k)

    def test_first_failing_offset_is_reported(self):
        # 1e11 leaves [-1e12, 1e12] at step 32, 3e11 already at step 21: the
        # error names the first failing offset in the order given, with the
        # path's index within its block
        coeffs = make_coefficients("linear", lam=0.0, bx=10.0, sx=0.2)
        bundle = make_bundle(coeffs, n_paths=50)
        messages = {}
        for h in (1e11, 3e11):
            with pytest.raises(HypothesisViolation) as one:
                simulate_variation(bundle, coeffs, 10, [h])
            messages[h] = str(one.value)
        assert "non-finite at step 32 (path 4)" in messages[1e11]
        assert "non-finite at step 21 (path 7)" in messages[3e11]
        for offsets, first in (([0.1, 1e11, 3e11], 1e11), ([0.1, 3e11, 1e11], 3e11)):
            with pytest.raises(HypothesisViolation) as got:
                simulate_variation(bundle, coeffs, 10, offsets)
            assert str(got.value) == messages[first]


def test_gauss_legendre_literals_are_leggauss_on_unit_interval():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(_GL_NODES, 0.5 * (nodes + 1.0))
    assert np.array_equal(_GL_WEIGHTS, 0.5 * weights)


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
        base_args = (bundle.state(i)[1], bundle.X1[:, i], bundle.X2[:, i])
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
            run = variation(bundle, coeffs, t_index, 0.1)
            eps1, eps2 = step_remainders(bundle, coeffs, run)
            assert np.any(eps1 != 0.0) and np.any(eps2 != 0.0)
            got = remainders(bundle, coeffs, run)
            assert np.array_equal(got[0], eps1)
            assert np.array_equal(got[1], eps2)


SLOPES = ("b_x", "b_x1", "b_x2", "sigma_x", "sigma_x1", "sigma_x2",
          "f_x", "f_x1", "f_x2", "f_y", "f_z")
STATE_SLOPES = SLOPES[:6]


# the slopes the remainders and the adjoint sweeps read
READ = SLOPES + ("phi_x", "phi_x1")


def counting(fn, calls, label=None):
    def counted(*args):
        calls.append(label)
        return fn(*args)
    return counted


def evaluator(coeffs, slot):
    """The slope in ``slot`` if it is callable; for a number, the evaluator
    that pads it to the common shape of the state arguments (``t``, which
    the phi slopes do not take, excluded)."""
    slope = getattr(coeffs, slot)
    if callable(slope):
        return slope
    skip = 0 if slot.startswith("phi") else 1
    return lambda *args: slope + np.zeros(np.broadcast(slope, *args[skip:]).shape)


def counted_slots(coeffs, calls):
    """``coeffs`` with every callable slot counting its calls into ``calls``."""
    return dataclasses.replace(coeffs, **{
        f.name: counting(getattr(coeffs, f.name), calls, f.name)
        for f in dataclasses.fields(coeffs) if callable(getattr(coeffs, f.name))})


class TestConstantSlopes:
    """Slopes the registry records as constants are read as numbers; the
    results must equal those of a set whose every slope is evaluated."""

    FAMILIES = [
        ("constant", dict(b0=0.3, s0=0.2, f0=0.1, phi0=0.2), ()),
        # -0.0 is stored as +0.0, the value _fill pads with
        ("linear", dict(b0=0.1, bx=-0.3, bx1=0.2, bx2=-0.0, bu=0.5, s0=0.2, sx=0.15,
                        sx1=0.05, sx2=-0.05, fx=-0.2, fx1=0.1, fx2=0.05, fy=-0.3,
                        fz=0.1, fu=0.1, phix=0.3, phix1=-0.1), ()),
        ("linear_quadratic", dict(a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0, fy=-0.2,
                                  phi_lin=0.3), ("f_x",)),
        ("bilinear", dict(bx=0.2, bxx1=0.5, bxx2=-0.3, s0=0.2, sx=0.1, sxx1=0.2,
                          sxx2=0.1, fx=-0.2, fy=-0.1, phix=0.3), STATE_SLOPES),
    ]

    @pytest.mark.parametrize("family,params,evaluated", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_recorded_constants_match_evaluated_slopes(self, family, params, evaluated):
        coeffs = make_coefficients(family, lam=0.4, **params)
        assert [s for s in SLOPES if callable(getattr(coeffs, s))] == list(evaluated)
        calls = []
        # every slope an evaluator; a number c as the padded closure that is
        # c at every state
        wrapped = dataclasses.replace(
            coeffs, **{s: counting(evaluator(coeffs, s), calls, s) for s in READ})
        assert all(callable(getattr(wrapped, s)) for s in READ)
        bundle = make_bundle(coeffs, T=0.3, n_paths=300, seed=5, control=0.2)
        basis = RegressionBasis(degree=2)
        solution = solve_bsde_lsmc(bundle, coeffs, basis)
        results = []
        for cs in (coeffs, wrapped):
            run = variation(bundle, cs, 8, 0.1)
            adj = solve_adjoints(bundle, solution, cs, basis)
            results.append([*remainders(bundle, cs, run), adj.gamma, adj.p1, adj.p2, adj.p3,
                            adj.q1, adj.q2])
        assert set(calls) == set(READ)
        for recorded, evaluated_run in zip(*results):
            assert np.array_equal(recorded, evaluated_run, equal_nan=True)
            assert np.array_equal(np.signbit(recorded), np.signbit(evaluated_run))

    def test_lq_remainders_evaluate_no_slope(self, monkeypatch):
        # the LQ benchmark: every b and sigma slope is a recorded constant
        coeffs = make_coefficients("linear_quadratic", lam=LQ_LAM, **LQ_PARAMS)
        bundle = make_bundle(coeffs, T=1.0, n_paths=500, seed=3, control=0.1, x0=0.6)
        calls = []
        remainders, slope_calls = variational._remainders, []

        def counted_remainders(bundle, cs, *args):
            before = len(calls)
            out = remainders(bundle, cs, *args)
            slope_calls.append(len(calls) - before)
            return out

        monkeypatch.setattr(variational, "_remainders", counted_remainders)
        for t_index in (20, 50, 80):
            scaling_reports(bundle, counted_slots(coeffs, calls), t_index, OFFSETS)
        # one pass for eps1 and one for eps2 per variation, none evaluating
        assert slope_calls == [0] * 24
        # the same variations with every slope evaluated: 6 slopes at the base
        # point and 8 nodes per slab; 500 paths make slabs of 16 steps
        wrapped = dataclasses.replace(
            coeffs, **{s: counting(evaluator(coeffs, s), calls, s) for s in STATE_SLOPES})
        slope_calls.clear()
        for t_index in (20, 50, 80):
            scaling_reports(bundle, wrapped, t_index, OFFSETS)
        assert sum(slope_calls) == 54 * (5 + 4 + 2) * len(OFFSETS)


class TestRemainderScaling:
    def test_linear_family_slopes(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.2, sx=0.2)
        bundle = make_bundle(coeffs)
        rep, _ = scaling_reports(bundle, coeffs, 10, OFFSETS, p=2)
        assert rep.slopes["sup_xhat"] == pytest.approx(2.0, abs=0.05)
        assert rep.slopes["sup_xhat1"] == pytest.approx(2.0, abs=0.05)
        assert rep.slopes["sup_xhat2"] == pytest.approx(2.0, abs=0.05)
        assert rep.slopes["eps1_int"] == float("inf")
        assert rep.slopes["eps2_int"] == float("inf")

    def test_bilinear_family_remainder_slopes(self):
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                                   sxx2=0.4, clip=2.5)
        bundle = make_bundle(coeffs, seed=2)
        rep, _ = scaling_reports(bundle, coeffs, 10, OFFSETS, p=2)
        assert rep.slopes["sup_xhat"] == pytest.approx(2.0, abs=0.2)
        assert rep.slopes["eps1_int"] >= 3.0
        assert rep.slopes["eps2_int"] >= 3.0

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

    @staticmethod
    def _pair(pert, bundle, adj, t_index, cols):
        """The pointwise duality pair (Yhat, Ycheck) = (ptilde*Xhat,
        pcheck*Xhat1) of the one run in ``pert``, on its first ``cols``
        columns."""
        Xhat, Xhat1, _ = variational._differences(pert, bundle, 0, cols)
        ptilde, pcheck = adj.normalized(cols=slice(t_index, t_index + cols))
        return ptilde * Xhat, pcheck * Xhat1

    def test_zero_offset_gives_zero_processes(self):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        pert = simulate_variation(bundle, coeffs, 20, [0.0])
        dual, = duality_processes(pert, sol, adj, coeffs)
        Yhat, Ycheck = self._pair(pert, bundle, adj, 20, dual.Ytilde.shape[1])
        assert np.nanmax(np.abs(Yhat)) == 0.0
        assert np.nanmax(np.abs(Ycheck)) == 0.0
        assert np.nanmax(np.abs(dual.Ytilde)) < 1e-12
        mean_abs_ytilde_t = np.mean(np.abs(dual.Ytilde[~pert.diverged, 0]))
        assert mean_abs_ytilde_t == pytest.approx(0.0, abs=1e-12)

    def test_terminal_identity(self):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        run = variation(bundle, coeffs, 20, 0.1)
        dual, = duality_processes(run.pert, sol, adj, coeffs)
        Yhat, _ = self._pair(run.pert, bundle, adj, 20, dual.Ytilde.shape[1])
        n = bundle.grid.n_steps
        xT = bundle.state(n)[1]
        ptilde_T = adj.normalized(cols=n)[0]
        expect = ptilde_T * run.Xhat[:, -1]
        assert np.allclose(Yhat[:, -1], expect, atol=1e-12)
        # ptilde(T) is the negative terminal-cost x-gradient
        assert np.allclose(ptilde_T,
                           -coeffs.phi_x(xT, bundle.X1[:, n]), atol=1e-12)

    def test_one_variation_and_one_solve_per_time(self, monkeypatch):
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
        rem, dual = scaling_reports(bundle, coeffs, 20, OFFSETS, solution=sol, adjoints=adj)
        # the base Y is the run's own solution, and the four perturbed runs
        # are stepped in one variation and solved in one sweep
        assert calls == {"variation": 1, "lsmc": 1}
        assert len(rem.rows) == 5 * 4 and len(dual.rows) == 2 * 4

    def test_perturbed_solves_run_no_standard_error_pass(self):
        coeffs, bundle, basis, sol, adj = self._setup(500)
        calls = []

        def f(*args):
            calls.append(1)
            return coeffs.f(*args)

        counted = dataclasses.replace(coeffs, f=f)
        scaling_reports(bundle, counted, 20, OFFSETS, solution=sol, adjoints=adj)
        # one driver call per step of the one sweep of the perturbed runs,
        # none for y_s_se
        assert len(calls) == bundle.grid.n_steps - 20
        assert "y_s_se" not in vars(sol)

    @pytest.mark.parametrize("t_index", [0, 7, 49])
    def test_sub_horizon_solve_is_the_run_solution(self, t_index):
        # the identity duality_processes reads its base Y by: a solve of the
        # paths restarted unbumped at t_index equals the run's own solution
        # on [t, T] bit for bit, a diverged row included
        coeffs = make_coefficients("linear_quadratic", lam=0.5, a=0.1, bu=0.5, sigma0=0.2,
                                   q=0.15, r=1.0, phi_quad=-0.15)
        bundle = make_bundle(coeffs, n_paths=400, seed=9, x0=0.6,
                             control=lambda t, x, x1: np.clip(-0.3 * x + 0.1 * x1, -1.0, 1.0))
        m = bundle.grid.m
        bundle.X[7, m + 30 :] = np.nan
        bundle.X1[7, 30:] = np.nan
        bundle.diverged[7] = True
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        sub = solve_bsde_lsmc(simulate_variation(bundle, coeffs, t_index, [0.0]),
                              coeffs, basis)
        assert np.array_equal(sub.Y, sol.Y[:, t_index:], equal_nan=True)
        assert np.array_equal(sub.Z, sol.Z[:, t_index:], equal_nan=True)

    def test_ytilde_slope_exceeds_linear_rate(self):
        coeffs, bundle, basis, sol, adj = self._setup()
        _, rep = scaling_reports(bundle, coeffs, 30, OFFSETS, solution=sol, adjoints=adj)
        assert rep.slopes["abs_ytilde_t"] >= 1.5
        assert rep.slopes["expansion_defect_pos"] >= 1.5


def reference_scaling(bundle, coeffs, t_index, offsets, p, sol, adj):
    """The rows of scaling_reports from one variation and one LSMC solve per
    offset, the duality processes formed on the whole sub-horizon."""
    ok, dt, ti = bundle.valid, bundle.grid.dt, t_index
    rem, dual = [], []
    for h in sorted(offsets, reverse=True):
        run = variation(bundle, coeffs, ti, h)
        eps1, eps2 = remainders(bundle, coeffs, run)
        stats = {"sup_xhat": np.max(np.abs(run.Xhat[ok]), axis=1) ** p,
                 "sup_xhat1": np.max(np.abs(run.Xhat1[ok]), axis=1) ** p,
                 "sup_xhat2": np.max(np.abs(run.Xhat2[ok]), axis=1) ** p,
                 "eps1_int": (np.sum(eps1[ok] ** 2, axis=1) * dt) ** (p / 2),
                 "eps2_int": (np.sum(eps2[ok] ** 2, axis=1) * dt) ** (p / 2)}
        rem += [ScalingRow(key, h, *mc_estimate(vals)) for key, vals in stats.items()]
        pert_Y = solve_bsde_lsmc(run.pert, coeffs, sol.basis).Y
        ptilde, pcheck = adj.normalized(cols=slice(ti, None))
        ytilde = -pert_Y + sol.Y[:, ti:] - ptilde * run.Xhat - pcheck * run.Xhat1
        defect = (-pert_Y[:, 0] + sol.Y[:, ti])[ok] - adj.normalized(ok, ti)[0] * h
        dual += [ScalingRow("abs_ytilde_t", h, *mc_estimate(np.abs(ytilde[ok, 0]))),
                 ScalingRow("expansion_defect_pos", h, *mc_estimate(np.maximum(defect, 0.0)))]
    return rem, dual


def same_rows(got, want):
    assert [r[:2] for r in got] == [r[:2] for r in want]
    assert np.array_equal([r[2:] for r in got], [r[2:] for r in want], equal_nan=True)


class TestGroupedPerturbedSolve:
    """The perturbed runs of one t_index are solved in one sweep; every row
    of both reports must equal a loop of one variation and one solve per
    offset."""

    CASES = {
        "lq": ("linear_quadratic", dict(lam=0.5, a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0,
                                        phi_quad=-0.15), OFFSETS, 0.6),
        "linear": ("linear", dict(lam=0.5, b0=0.1, bx=-0.3, bx1=0.2, bx2=0.1, bu=0.5, s0=0.2,
                                  sx=0.1, sx1=0.05, sx2=-0.05, fx=-0.2, fx1=0.1, fx2=0.05,
                                  fy=-0.1, fz=0.05, fu=0.1, phix=0.3, phix1=-0.1),
                   OFFSETS, 0.6),
        # about a quarter of the paths diverge, so every block has NaN rows
        "diverging": ("linear", dict(lam=0.5, b0=0.1, bx=5.0, s0=0.2, sx=20.0, fx=-0.2,
                                     fy=-0.1, fz=0.05, phix=0.3), [1e-6, 5e-7, 2.5e-7], 0.6),
    }

    @pytest.mark.parametrize("t_index", [0, 13])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reports_match_per_offset_loop(self, case, t_index):
        family, params, offsets, x0 = self.CASES[case]
        coeffs = make_coefficients(family, **params)
        bundle = make_bundle(coeffs, n_paths=400, seed=4, control=0.1, x0=x0)
        assert (case == "diverging") == bool(bundle.diverged.any())
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        rem, dual = scaling_reports(bundle, coeffs, t_index, offsets, solution=sol, adjoints=adj)
        want_rem, want_dual = reference_scaling(bundle, coeffs, t_index, offsets, 2, sol, adj)
        same_rows(rem.rows, want_rem)
        same_rows(dual.rows, want_dual)

    def test_grouped_solve_matches_separate_solves(self):
        # a feedback control (tiled per block) and a diverged base row
        coeffs = make_coefficients("linear_quadratic", lam=0.5, a=0.1, bu=0.5, sigma0=0.2,
                                   q=0.15, r=1.0, phi_quad=-0.15)
        bundle = make_bundle(coeffs, n_paths=300, seed=9, x0=0.6,
                             control=lambda t, x, x1: np.clip(-0.3 * x + 0.1 * x1, -1.0, 1.0))
        m = bundle.grid.m
        bundle.X[7, m + 30 :] = np.nan
        bundle.X1[7, 30:] = np.nan
        bundle.diverged[7] = True
        basis = RegressionBasis(degree=2)
        offsets = (0.2, 0.1, 0.0)
        stack = simulate_variation(bundle, coeffs, 12, offsets)
        grouped = solve_bsde_lsmc(stack, coeffs, basis)
        assert grouped.Y.shape == (900, 1) and grouped.Z.shape[0] == 0
        for k, h in enumerate(offsets):
            want = solve_bsde_lsmc(simulate_variation(bundle, coeffs, 12, [h]), coeffs,
                                   basis).Y[:, :1]
            assert np.array_equal(grouped.Y[300 * k : 300 * (k + 1)], want, equal_nan=True), k
