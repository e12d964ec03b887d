import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from delaycontrol import bsde
from delaycontrol.core import ControlDomain, HistoryPath, TimeGrid, max_abs
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, TrajectoryBundle, path_array, simulate_smdde
from delaycontrol.bsde import RegressionBasis, solve_bsde_lsmc
from delaycontrol.adjoint import (check_sufficient_mp, compute_p3_pathwise,
                                  solve_adjoint_p, solve_adjoints, solve_gamma)

from conftest import LQ_MP_PARAMS, make_lq_instance
from oracles import riccati_lq, solve_transformed_direct, variational_two_pairs


def pipeline(coeffs, g, n_paths=2000, seed=1, control=0.0, x0=1.0, degree=2):
    bundle = simulate_smdde(coeffs, HistoryPath.constant(x0, g.m), control, g,
                            NoiseSource(seed), n_paths)
    basis = RegressionBasis(degree=degree)
    sol = solve_bsde_lsmc(bundle, coeffs, basis)
    return bundle, sol, basis


def grid(T=1.0, dt=0.01, m=10):
    return TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)


class TestGamma:
    def test_identically_one_without_cost_feedback(self):
        coeffs = make_coefficients("linear", lam=0.3, bx=0.2, sx=0.3, fx=1.0)
        bundle, sol, _ = pipeline(coeffs, grid(T=0.5))
        gamma = solve_gamma(bundle, sol, coeffs)
        assert np.nanmax(np.abs(gamma - 1.0)) == 0.0

    def test_discounted_driver_gives_exponential(self):
        r = 0.4
        coeffs = make_coefficients("linear", lam=0.0, fy=-r, phix=1.0, sx=0.2,
                                   bx=0.1)
        g = grid(T=1.0)
        bundle, sol, _ = pipeline(coeffs, g, n_paths=200)
        gamma = solve_gamma(bundle, sol, coeffs)
        # deterministic linear ODE, first-order accurate in dt
        exact = np.exp(-r * g.times())
        err = np.nanmax(np.abs(gamma - exact[None, :]))
        assert err < 2 * g.dt

    def test_z_loading_is_exponential_martingale(self):
        c = 0.5
        coeffs = make_coefficients("linear", lam=0.0, fz=c, sx=0.3, bx=0.1, phix=1.0)
        g = grid(T=1.0)
        bundle, sol, _ = pipeline(coeffs, g, n_paths=20_000, seed=3)
        gamma = solve_gamma(bundle, sol, coeffs)
        gT = gamma[:, -1]
        se = np.nanstd(gT) / math.sqrt(gT.size)
        assert abs(np.nanmean(gT) - 1.0) < 3 * se

    def test_crossing_zero_aborts(self):
        coeffs = make_coefficients("linear", lam=0.0, fz=40.0, sx=0.3, phix=1.0)
        bundle, sol, _ = pipeline(coeffs, grid(T=0.2), n_paths=500, seed=7)
        with pytest.raises(RuntimeError, match="gamma crossed zero"):
            solve_gamma(bundle, sol, coeffs)


class TestAdjointPair:
    def test_delay_free_instance_kills_p2(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.2, sx=0.3, fx=0.5,
                                   phix=1.0)
        bundle, sol, basis = pipeline(coeffs, grid(T=0.5))
        gamma = solve_gamma(bundle, sol, coeffs)
        p1, p2, q1, q2 = solve_adjoint_p(bundle, sol, gamma, coeffs, basis)
        assert np.nanmax(np.abs(p2)) < 1e-12
        assert np.nanmax(np.abs(q2)) < 1e-12

    def test_deterministic_linear_terminal_closed_form(self):
        # no dynamics, no driver, phi = M x + N x1: the pair solves two
        # deterministic ODEs coupled through the transport pairing
        M, N, lam, T = 0.8, 0.5, 0.6, 0.5
        coeffs = make_coefficients("linear", lam=lam, phix=M, phix1=N)
        g = grid(T=T, dt=0.0025, m=40)
        bundle, sol, basis = pipeline(coeffs, g, n_paths=64)
        gamma = solve_gamma(bundle, sol, coeffs)
        p1, p2, q1, q2 = solve_adjoint_p(bundle, sol, gamma, coeffs, basis)
        ts = g.times()
        p2_exact = -N * np.exp(-lam * (T - ts))
        p1_exact = -M - N * (1.0 - np.exp(-lam * (T - ts))) / lam
        assert np.nanmax(np.abs(p2 - p2_exact[None, :])) < 5e-3
        assert np.nanmax(np.abs(p1 - p1_exact[None, :])) < 5e-3
        assert np.nanmax(np.abs(q1)) < 1e-10
        # with N = 0 the first adjoint is the constant -M
        c2 = make_coefficients("linear", lam=lam, phix=M)
        b2, s2, _ = pipeline(c2, g, n_paths=64)
        g2 = solve_gamma(b2, s2, c2)
        p1b, p2b, _, _ = solve_adjoint_p(b2, s2, g2, c2, basis)
        assert np.nanmax(np.abs(p1b + M)) < 1e-10
        assert np.nanmax(np.abs(p2b)) < 1e-12

    def test_lq_ptilde_matches_riccati_gradient(self):
        inst = make_lq_instance(LQ_MP_PARAMS, dt=0.005, delay_steps=20)
        ric = riccati_lq(s=0.0, T=1.0, **{**LQ_MP_PARAMS, "b0": 0.0,
                                          "phi_quad": 0.0, "phi0": 0.0})
        from oracles import lq_feedback
        rule = lq_feedback(ric, LQ_MP_PARAMS["bu"], LQ_MP_PARAMS["r"])
        bundle = simulate_smdde(inst.coeffs, inst.history, rule, inst.grid,
                                NoiseSource(17), 4000)
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
        adj = solve_adjoints(bundle, sol, inst.coeffs, basis)
        rels = []
        for i in range(0, inst.grid.n_steps, 10):
            K, L, _ = ric(inst.grid.time(i))
            vx = 2 * K * bundle.state(i)[1] + L
            ptilde = adj.normalized(cols=i)[0]
            rels.append(np.median(np.abs(ptilde - vx) / (1 + np.abs(vx))))
        assert np.median(rels) <= 0.05


class TestP3:
    def test_zero_for_delay_free_instance(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.2, sx=0.3, fx=0.5,
                                   phix=1.0)
        bundle, sol, basis = pipeline(coeffs, grid(T=0.5))
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        assert adj.max_abs_p3 < 1e-12
        assert np.all(adj.p3[:, -1] == 0.0)

    def test_nonzero_when_p2_lives(self):
        # x2-free coefficients but phi_x1 != 0: p3(t) = e^{-lam delta} * int p2
        lam = 0.5
        coeffs = make_coefficients("linear", lam=lam, sx=0.2, phix1=1.0)
        g = grid(T=0.5)
        bundle, sol, basis = pipeline(coeffs, g)
        gamma = solve_gamma(bundle, sol, coeffs)
        p1, p2, q1, q2 = solve_adjoint_p(bundle, sol, gamma, coeffs, basis)
        p3, _ = compute_p3_pathwise(bundle, sol, gamma, p1, p2, q1, coeffs)
        assert np.nanmax(np.abs(p3)) > 1e-3  # flagged as nonzero
        # cross-check against the direct integral of the stored p2
        decay = math.exp(-lam * g.delay)
        direct = np.zeros_like(p3)
        for i in range(g.n_steps - 1, -1, -1):
            direct[:, i] = direct[:, i + 1] - decay * p2[:, i] * g.dt
        assert np.nanmax(np.abs(p3 - direct)) < 1e-12

    def test_gamma_normalized_identities(self, lq_small):
        adj = lq_small["adjoints"]
        ok = ~lq_small["bundle"].diverged
        ptilde, pcheck = adj.normalized(ok)
        assert np.nanmax(np.abs(ptilde * adj.gamma[ok] - adj.p1[ok])) < 1e-12
        assert np.nanmax(np.abs(pcheck * adj.gamma[ok] - adj.p2[ok])) < 1e-12


class TestNormalizedReader:
    """ptilde and pcheck are divided where they are read, bit-equal to
    p1/gamma and p2/gamma on every selection the checkers make."""

    def test_bit_equal_to_whole_array_division(self):
        # bx = 5, sx = 20: part of the paths leave [-1e12, 1e12] and are NaN
        coeffs = make_coefficients("linear", lam=0.3, bx=5.0, sx=20.0, fx=0.5, fy=-0.1,
                                   fz=0.05, phix=1.0, phix1=0.5)
        bundle, sol, basis = pipeline(coeffs, grid(T=0.5), n_paths=400)
        ok = bundle.valid
        assert isinstance(ok, np.ndarray) and 0 < bundle.diverged.sum() < 400
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        assert not hasattr(adj, "ptilde") and not hasattr(adj, "pcheck")
        ptilde, pcheck = adj.p1 / adj.gamma, adj.p2 / adj.gamma
        n = bundle.grid.n_steps
        for rows, cols in [(slice(None), slice(None)), (ok, slice(None)), (ok, 7),
                           (slice(None), slice(20, None)), (slice(None, 5), slice(None)),
                           (np.array([9, 0, 3]), n), (ok, slice(3, 30))]:
            got = adj.normalized(rows, cols)
            for arr, want in zip(got, (ptilde[rows, cols], pcheck[rows, cols])):
                assert arr.shape == want.shape
                assert np.array_equal(arr, want, equal_nan=True)
        assert np.array_equal(adj.normalized()[0], ptilde, equal_nan=True)

    def test_mp_check_keeps_no_full_size_copy(self):
        # solve_adjoints stores six path arrays; deriving ptilde/pcheck and
        # taking max|x| and max|p3| must add no seventh
        inst = make_lq_instance(LQ_MP_PARAMS)
        n_paths = 3000
        bundle = simulate_smdde(inst.coeffs, inst.history, 0.1, inst.grid,
                                NoiseSource(5), n_paths)
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
        one = path_array(n_paths, inst.grid.n_steps + 1).nbytes
        tracemalloc.start()
        try:
            adj = solve_adjoints(bundle, sol, inst.coeffs, basis)
            check_sufficient_mp(bundle, sol, adj, inst.coeffs, inst.domain, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * one, (peak, one)

    def test_cli_adjoint_pass_keeps_four_full_arrays(self):
        # with the writer's rows, as check-mp solves them, q2 and p3 hold 20
        # paths: gamma, p1, p2 and q1 are the pass's only full-size arrays, and
        # either of the others stored at full size would exceed the bound
        inst = make_lq_instance(LQ_MP_PARAMS)
        n_paths = 3000
        bundle = simulate_smdde(inst.coeffs, inst.history, 0.1, inst.grid,
                                NoiseSource(5), n_paths)
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
        one = path_array(n_paths, inst.grid.n_steps + 1).nbytes
        tracemalloc.start()
        try:
            adj = solve_adjoints(bundle, sol, inst.coeffs, basis, rows=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert adj.q2.shape[0] == adj.p3.shape[0] == 20
        assert peak < 5 * one, (peak, one)


class TestTransformedDirect:
    def test_cross_validation_with_identity_route(self):
        # driver with real (y, z) feedback so gamma is genuinely stochastic
        coeffs = make_coefficients("linear", lam=0.3, bx=0.2, sx=0.25, fx=0.6,
                                   fy=-0.3, fz=0.2, phix=1.0)
        g = grid(T=0.5)
        bundle, sol, basis = pipeline(coeffs, g, n_paths=8000, seed=23)
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        pt_d, pc_d, qt_d, qc_d = solve_transformed_direct(bundle, sol, coeffs, basis)
        ptilde0 = adj.normalized(cols=0)[0]
        a = np.nanmean(ptilde0)
        b = np.nanmean(pt_d[:, 0])
        se = (np.nanstd(ptilde0) + np.nanstd(pt_d[:, 0])) / math.sqrt(8000)
        assert abs(a - b) <= 3 * se + 5e-3


class TestSweepSharing:
    """Mask-free sweeps and the LSMC factors shared with the adjoint sweeps
    must leave every array bit-identical."""

    def _bundle(self, n_paths=300):
        # tanh products in b and sigma, a driver with (y, z) feedback, an
        # x1-dependent terminal cost and a per-path feedback control; the
        # constant history makes step 0 an intercept-only fit
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, bx1=0.2, sx=0.15,
                                   bxx1=0.8, sxx2=0.4, clip=2.5, fx=0.3, fx1=-0.2,
                                   fx2=0.1, fy=-0.2, fz=0.3, phix=1.0, phix1=0.5)
        g = grid(T=0.5)
        bundle = simulate_smdde(coeffs, HistoryPath.constant(1.0, g.m),
                                lambda t, x, x1: 0.2 * np.tanh(x - x1), g,
                                NoiseSource(13), n_paths)
        return coeffs, bundle

    @staticmethod
    def _outputs(bundle, coeffs, basis):
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        direct = solve_transformed_direct(bundle, sol, coeffs, basis)
        arrays = dict(Y=sol.Y, Z=sol.Z, gamma=adj.gamma, p1=adj.p1, p2=adj.p2,
                      q1=adj.q1, q2=adj.q2, p3=adj.p3)
        arrays.update(zip(("pt", "pc", "qt", "qc"), direct))
        return sol, arrays

    @staticmethod
    def _diverge(clean, rows=(0, 41, 299)):
        """``clean`` with ``rows`` diverged from step 20 on, and their mask."""
        m = clean.grid.m
        bad = np.zeros(clean.n_paths, dtype=bool)
        bad[list(rows)] = True
        X, X1 = clean.X.copy(), clean.X1.copy()
        X[bad, m + 20:] = np.nan
        X1[bad, 20:] = np.nan
        return TrajectoryBundle(grid=clean.grid, X=X, X1=X1, u=clean.u,
                                dW=clean.dW, diverged=bad), bad

    @pytest.mark.parametrize("degree", [2, 3])
    def test_diverged_rows_leave_valid_rows_unchanged(self, degree):
        coeffs, clean = self._bundle()
        n = clean.grid.n_steps
        mixed, bad = self._diverge(clean)
        ok = ~bad
        valid = TrajectoryBundle(grid=clean.grid, X=mixed.X[ok], X1=mixed.X1[ok],
                                 u=clean.u[ok], dW=clean.dW[ok],
                                 diverged=np.zeros(ok.sum(), dtype=bool))
        assert isinstance(mixed.valid, np.ndarray) and valid.valid == slice(None)
        basis = RegressionBasis(degree=degree)
        sol_m, got = self._outputs(mixed, coeffs, basis)
        sol_v, want = self._outputs(valid, coeffs, basis)
        assert sol_m.y_s == sol_v.y_s and sol_m.y_s_se == sol_v.y_s_se
        for name, arr in want.items():
            assert arr.shape == (ok.sum(), n + 1)
            assert np.array_equal(got[name][ok], arr), name
            assert np.all(np.isnan(got[name][bad])), name

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("diverged", [False, True])
    def test_trimmed_rows_equal_full_run(self, degree, diverged):
        # q2 and p3 kept on the leading rows: those rows' bits, max|p3| over
        # every path, and every other array as in the full run
        coeffs, bundle = self._bundle()
        if diverged:
            bundle, bad = self._diverge(bundle, rows=(0, 2, 41, 299))
        basis = RegressionBasis(degree=degree)
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        full = solve_adjoints(bundle, sol, coeffs, basis)
        assert full.max_abs_p3 > 1e-3 and full.max_abs_p3 == max_abs(full.p3)
        assert full.q2.shape == full.p3.shape == (300, bundle.grid.n_steps + 1)
        for rows in (0, 1, 3, 42, 299, 300, 1000):
            adj = solve_adjoints(bundle, sol, coeffs, basis, rows)
            for name in ("q2", "p3"):
                got, want = getattr(adj, name), getattr(full, name)[:rows]
                assert got.shape == want.shape and got.flags.f_contiguous, (name, rows)
                assert np.array_equal(got, want, equal_nan=True), (name, rows)
                if diverged:
                    assert np.all(np.isnan(got[bad[:rows]])), (name, rows)
            assert adj.max_abs_p3 == full.max_abs_p3
            for name in ("gamma", "p1", "p2", "q1"):
                assert np.array_equal(getattr(adj, name), getattr(full, name),
                                      equal_nan=True), (name, rows)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_shared_factors_match_fresh_fits(self, degree):
        coeffs, bundle = self._bundle()
        basis = RegressionBasis(degree=degree)
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        assert len(sol.factors) == bundle.grid.n_steps
        fresh = dataclasses.replace(sol, factors=None)
        gamma = solve_gamma(bundle, sol, coeffs)
        for shared, rebuilt in ((solve_adjoint_p(bundle, sol, gamma, coeffs, basis),
                                 solve_adjoint_p(bundle, fresh, gamma, coeffs, basis)),
                                (solve_transformed_direct(bundle, sol, coeffs, basis),
                                 solve_transformed_direct(bundle, fresh, coeffs, basis))):
            for a, b in zip(shared, rebuilt):
                assert np.array_equal(a, b)

    def test_time_slices_are_contiguous(self):
        # every sweep step reads and writes arr[:, i] for all paths at once
        coeffs, bundle = self._bundle(n_paths=100)
        _, arrays = self._outputs(bundle, coeffs, RegressionBasis(degree=2))
        arrays.update(X=bundle.X, X1=bundle.X1, dW=bundle.dW, u=bundle.u)
        for name, arr in arrays.items():
            assert arr.shape[0] == bundle.n_paths, name
            assert all(arr[:, i].flags.c_contiguous for i in range(arr.shape[1])), name

    def test_one_factor_per_step(self, monkeypatch):
        coeffs, bundle = self._bundle(n_paths=200)
        basis = RegressionBasis(degree=2)
        built = []
        init = bsde.ConditionalRegression.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(bsde.ConditionalRegression, "__init__", counted)
        n = bundle.grid.n_steps
        sol = solve_bsde_lsmc(bundle, coeffs, basis)
        solve_adjoints(bundle, sol, coeffs, basis)
        assert len(built) == n
        # another basis, or another bundle, cannot reuse the factors
        solve_adjoints(bundle, sol, coeffs, RegressionBasis(degree=3))
        assert len(built) == 2 * n
        other = dataclasses.replace(bundle)
        solve_adjoints(other, sol, coeffs, basis)
        assert len(built) == 3 * n


class TestSufficientMP:
    def test_lq_all_flags_pass(self):
        inst = make_lq_instance(LQ_MP_PARAMS, dt=0.005, delay_steps=20)
        from delaycontrol.hjb import HjbGrid, feedback_control, solve_hjb
        vg = solve_hjb(inst.coeffs, inst.domain, HjbGrid(-3, 3, 201, -3, 3, 101, 200),
                       inst.grid)
        rule = feedback_control(vg, inst.domain)
        bundle = simulate_smdde(inst.coeffs, inst.history, rule, inst.grid,
                                NoiseSource(42), 10_000)
        basis = RegressionBasis(degree=2)
        sol = solve_bsde_lsmc(bundle, inst.coeffs, basis)
        adj = solve_adjoints(bundle, sol, inst.coeffs, basis)
        rep = check_sufficient_mp(bundle, sol, adj, inst.coeffs, inst.domain, seed=42)
        assert rep.convexity_ok and rep.phi_linear_ok and rep.p3_zero_ok \
            and rep.variational_ok
        assert rep.verdict
        assert rep.phi_m == pytest.approx(LQ_MP_PARAMS["phi_lin"], abs=1e-9)

        # perturbing the control on the first half of the horizon must
        # break the variational inequality
        half = 0.5 * (inst.grid.s + inst.grid.T)

        def perturbed(t, x, x1):
            return np.asarray(rule(t, x, x1)) + (0.2 if t < half else 0.0)

        bp = simulate_smdde(inst.coeffs, inst.history, perturbed, inst.grid,
                            NoiseSource(42), 10_000)
        sp = solve_bsde_lsmc(bp, inst.coeffs, basis)
        ap = solve_adjoints(bp, sp, inst.coeffs, basis)
        rp = check_sufficient_mp(bp, sp, ap, inst.coeffs, inst.domain, seed=42)
        assert not rp.variational_ok
        assert rp.variational_worst > 10 * rp.variational_tol

    def test_constant_control_forms_agree(self):
        # a scalar, a per-step vector and a per-path array of one constant
        # drive the same paths, sweeps and report
        inst = make_lq_instance(LQ_MP_PARAMS, T=0.5)
        n, n_paths, c = inst.grid.n_steps, 400, 0.1
        runs = []
        for control in (c, np.full(n, c), np.full((n_paths, n), c)):
            bundle, sol, basis = pipeline(inst.coeffs, inst.grid, n_paths=n_paths,
                                          control=control, x0=0.6)
            adj = solve_adjoints(bundle, sol, inst.coeffs, basis)
            rep = check_sufficient_mp(bundle, sol, adj, inst.coeffs, inst.domain, seed=2)
            runs.append(([bundle.X, sol.Y, sol.Z, adj.p1, adj.q1, adj.p3],
                         sol.y_s_se, list(rep.kv_lines())))
        for arrays, y_s_se, lines in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(arrays, runs[0][0]))
            assert y_s_se == runs[0][1]
            assert lines == runs[0][2]

    @pytest.mark.parametrize("case", ["lq-scalar", "lq-feedback", "bilinear-scalar"])
    def test_variational_check_matches_two_pair_form(self, lq_small, case):
        # one H_u difference over (u*, control grid) per step gives check (d)
        # the bits of a pair at u* and a pair over the grid
        if case == "lq-feedback":  # a per-path control record
            inst, bundle, sol, adj = (lq_small[k] for k in
                                      ("inst", "bundle", "solution", "adjoints"))
            coeffs, domain = inst.coeffs, inst.domain
        else:
            coeffs = (make_lq_instance(LQ_MP_PARAMS).coeffs if case == "lq-scalar" else
                      make_coefficients("bilinear", lam=0.5, bx=0.2, bxx1=0.5, bxx2=-0.3,
                                        bu=0.5, s0=0.2, sx=0.1, sxx1=0.2, sxx2=0.1, su=0.1,
                                        fx=-0.2, fu=0.3, phix=0.3))
            domain = ControlDomain(-1, 1, 21)
            bundle, sol, basis = pipeline(coeffs, grid(T=0.5), n_paths=400, control=0.1)
            adj = solve_adjoints(bundle, sol, coeffs, basis)
        assert np.ndim(bundle.u) == (2 if case == "lq-feedback" else 0)
        rep = check_sufficient_mp(bundle, sol, adj, coeffs, domain, seed=7)
        want = variational_two_pairs(bundle, sol, adj, coeffs, domain, seed=7)
        assert (rep.variational_ok, rep.variational_worst, rep.variational_tol) == want
        assert rep.variational_worst != 0.0

    def test_quadratic_terminal_fails_linearity(self, lq_small):
        rep = check_sufficient_mp(lq_small["bundle"], lq_small["solution"],
                                  lq_small["adjoints"], lq_small["inst"].coeffs,
                                  lq_small["inst"].domain, seed=1)
        assert not rep.phi_linear_ok  # phi is quadratic here
        assert rep.phi_residual > 1e-3

    def test_concave_hamiltonian_flagged(self):
        # f = +q x^2 makes -gamma*f concave in x: convexity must fail
        coeffs = make_coefficients("linear_quadratic", lam=0.0, a=0.1, bu=0.5,
                                   sigma0=0.2, q=-0.15, r=-0.5, phi_lin=0.3)
        g = grid(T=0.5)
        bundle, sol, basis = pipeline(coeffs, g, n_paths=500, seed=3, x0=0.5)
        adj = solve_adjoints(bundle, sol, coeffs, basis)
        rep = check_sufficient_mp(bundle, sol, adj, coeffs,
                                  ControlDomain(-1, 1, 21), seed=5)
        assert not rep.convexity_ok
