import dataclasses
import math
import warnings
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest

from delaycontrol.core import (ConfigurationError, HistoryPath, LinearDriver,
                               TimeGrid)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol import bsde
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

    def test_design_is_column_major(self):
        # each term is one contiguous column, the layout _scaled_columns keeps
        A = RegressionBasis(degree=1).design(np.ones(3), 2 * np.ones(3))
        assert A.shape == (3, 3) and A.flags.f_contiguous

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegressionBasis(degree=0)
        with pytest.raises(ConfigurationError):
            RegressionBasis(eps_reg=-1.0)


def reference_design(basis, x, x1):
    """Column-stacked basis terms, each built up from a column of ones."""
    cols = [np.ones_like(x)]
    vars_ = [x, x1]
    for deg in range(1, basis.degree + 1):
        for combo in combinations_with_replacement(range(len(vars_)), deg):
            term = np.ones_like(x)
            for idx in combo:
                term = term * vars_[idx]
            cols.append(term)
    return np.column_stack(cols)


def reference_scaled(design):
    """Kept columns, scale and scaled matrix from axis-0 reductions."""
    keep = np.ones(design.shape[1], dtype=bool)
    spread = design.max(axis=0) - design.min(axis=0)
    keep[1:] = spread[1:] > 1e-12
    A = design[:, keep]
    scale = np.maximum(np.abs(A).max(axis=0), 1.0)
    return keep, scale, A / scale


def reference_gram(A, eps_reg):
    """Gram matrix, initial ridge and penalty (the intercept unpenalized)."""
    gram = A.T @ A
    lam = eps_reg * max(float(np.trace(gram)) / gram.shape[0], 1e-300)
    penalty = np.eye(gram.shape[0])
    penalty[0, 0] = 0.0
    return gram, lam, penalty


def reference_factor(design, eps_reg):
    """Kept columns, scale, scaled matrix, Cholesky factor and ridge."""
    keep, scale, A = reference_scaled(design)
    gram, lam, penalty = reference_gram(A, eps_reg)
    return keep, scale, A, np.linalg.cholesky(gram + lam * penalty), lam


def reference_ridge(design, eps_reg):
    """(final ridge, escalated) of the ridge loop checked by np.linalg.cond."""
    gram, lam, penalty = reference_gram(reference_scaled(design)[2], eps_reg)
    for attempt in range(6):
        mat = gram + lam * penalty
        if not np.linalg.cond(mat) > ConditionalRegression._COND_LIMIT:
            try:
                np.linalg.cholesky(mat)
                return lam, attempt > 0
            except np.linalg.LinAlgError:
                pass
        lam = max(lam, 1e-12) * 100.0
    raise AssertionError("no ridge makes the design regular")


def ridge_warnings(log):
    return sum("ridge increased" in str(w.message) for w in log)


def block_factor(reg, k):
    """Block k's kept columns, scale, factor and ridge, read off the record
    of its group in ``reg.state``."""
    group = next(g for g in reg.state if g.rows.start <= k < g.rows.stop)
    j = k - group.rows.start
    return SimpleNamespace(keep=group.keep, scale=group.scale[j], factor=group.factor[j],
                           lam=group.lam[j])


class TestRegressionOperator:
    """The design fill and the column-wise spread, scale and scaled matrix
    must reproduce the column-stacked design, the axis-0 reductions and
    their fits exactly."""

    @staticmethod
    def _states(kind, n=257):
        rng = np.random.default_rng(11)
        if kind == "deterministic":  # a constant first slice: intercept only
            return np.full(n, 0.6), np.full(n, 0.35)
        # x spans beyond [-1, 1] (scale > 1), a random x1 stays inside (scale
        # clipped to 1); a constant x1 gives zero-spread columns (the powers
        # of x1 alone) that are dropped, while its products with x are kept
        x = rng.normal(0.2, 2.0, n)
        return x, np.full(n, -1.7) if kind == "constant_x1" else rng.uniform(-0.6, 0.4, n)

    @staticmethod
    def _check(basis, x, x1):
        design = basis.design(x, x1)
        assert np.array_equal(design, reference_design(basis, x, x1))
        reg = ConditionalRegression(design, basis.eps_reg)
        keep, scale, A, factor, lam = reference_factor(design, basis.eps_reg)
        assert len(reg.state) == 1
        state = block_factor(reg, 0)
        assert np.array_equal(state.keep, keep)
        assert np.array_equal(state.scale, scale)
        (_, At, _), = reg._groups  # (block index, scaled matrix transposed, factor)
        assert np.array_equal(At.T, A)
        assert np.array_equal(state.factor, factor)
        assert state.lam == lam
        # the layout of the scaled matrix fixes the summation order of a fit
        y = np.sin(np.arange(x.size))
        coef = np.linalg.solve(factor.T, np.linalg.solve(factor, A.T @ y))
        assert np.array_equal(reg.fit_values(y), A @ coef)
        return state

    @pytest.mark.parametrize("kind", ["random", "constant_x1", "deterministic"])
    @pytest.mark.parametrize("eps_reg", [1e-9, 1e-6])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_column_stack_and_axis0_reductions(self, degree, eps_reg, kind):
        basis = RegressionBasis(degree=degree, eps_reg=eps_reg)
        reg = self._check(basis, *self._states(kind))
        if kind == "deterministic":
            assert reg.keep.sum() == 1
        elif kind == "constant_x1":
            assert 1 < reg.keep.sum() < reg.keep.size
        else:
            assert reg.keep.all()

    @pytest.mark.parametrize("kind", ["random", "constant_x1"])
    def test_matches_reference_at_8000_rows(self, kind):
        basis = RegressionBasis(degree=3)
        reg = self._check(basis, *self._states(kind, n=8000))
        if kind == "random":
            assert reg.keep.all()
        else:
            assert 1 < reg.keep.sum() < reg.keep.size

    @pytest.mark.parametrize("n", [500, 8000])
    def test_collinear_design_without_ridge_escalates_as_cond_does(self, n):
        # x1 affine in x, as at the first step after a constant history: with
        # no ridge the Gram matrix is singular up to rounding
        x = np.random.default_rng(5).normal(0.6, 0.05, n)
        design = RegressionBasis(degree=2).design(x, 0.3 + 0.2 * x)
        lam, escalated = reference_ridge(design, 0.0)
        with warnings.catch_warnings(record=True) as log, np.errstate(all="raise"):
            warnings.simplefilter("always")
            reg = ConditionalRegression(design, 0.0)
        assert escalated and ridge_warnings(log) == 1
        assert block_factor(reg, 0).lam == lam > 0.0

    @pytest.mark.parametrize("tail", ["last", "all"])
    def test_zero_singular_value_is_infinite_condition(self, monkeypatch, tail):
        # np.linalg.cond gives inf when s[-1] == 0 (for 0 / 0 too): the ridge
        # escalates once, with no floating-point error or warning
        design = RegressionBasis(degree=2).design(*self._states("random")[:2])
        svd, calls = np.linalg.svd, []

        def zero_tail(a, compute_uv=True):
            s = svd(a, compute_uv=compute_uv)
            if not calls:
                s[-1 if tail == "last" else slice(None)] = 0.0
                assert np.linalg.cond(np.diag(s)) == np.inf
            calls.append(s)
            return s

        monkeypatch.setattr(np.linalg, "svd", zero_tail)
        with warnings.catch_warnings(record=True) as log, np.errstate(all="raise"):
            warnings.simplefilter("always")
            reg = ConditionalRegression(design, 1e-9)
        lam0 = reference_factor(design, 1e-9)[4]
        assert len(calls) == 2 and ridge_warnings(log) == 1
        assert block_factor(reg, 0).lam == max(lam0, 1e-12) * 100.0


class TestGroupedRegression:
    """K row blocks fitted on one grouped operator must equal K separate
    operators bit for bit: kept columns, scale, factor, ridge, fitted values
    and ridge warnings."""

    @staticmethod
    def _block(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "deterministic":
            return np.full(n, 0.6), np.full(n, 0.35)
        x = rng.normal(0.6, 0.05 if "collinear" in kind else 2.0, n)
        if kind == "collinear":  # x1 affine in x: singular without a ridge
            return x, 0.3 + 0.2 * x
        if kind == "near_collinear":  # condition number near 1e16, yet a Cholesky factor
            return x, 0.3 + 0.2 * x + 1e-4 * rng.normal(size=n)
        return x, np.full(n, -1.7) if kind == "constant_x1" else rng.uniform(-0.6, 0.4, n)

    def _check(self, kinds, eps_reg, degree=2, n=257):
        basis = RegressionBasis(degree=degree, eps_reg=eps_reg)
        blocks = [self._block(kind, n, seed) for seed, kind in enumerate(kinds)]
        design = basis.design(np.concatenate([x for x, _ in blocks]),
                              np.concatenate([x1 for _, x1 in blocks]))
        y = np.sin(np.arange(len(kinds) * n) * 0.37)
        with warnings.catch_warnings(record=True) as grouped_log:
            warnings.simplefilter("always")
            reg = ConditionalRegression(design, eps_reg, len(kinds))
        states = [block_factor(reg, k) for k in range(len(kinds))]
        fitted = reg.fit_values(y)
        separate_warnings = 0
        for k, (x, x1) in enumerate(blocks):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                sep = ConditionalRegression(basis.design(x, x1), eps_reg)
            separate_warnings += ridge_warnings(log)
            for name in ("keep", "scale", "factor"):
                assert np.array_equal(getattr(states[k], name),
                                      getattr(block_factor(sep, 0), name)), (k, name)
            assert states[k].lam == block_factor(sep, 0).lam, k
            rows = slice(k * n, (k + 1) * n)
            assert np.array_equal(fitted[rows], sep.fit_values(y[rows])), k
        assert ridge_warnings(grouped_log) == separate_warnings
        return states, separate_warnings

    @pytest.mark.parametrize("K", [1, 2, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_blocks_match_separate_fits(self, K, degree):
        states, escalated = self._check(["random"] * K, 1e-9, degree)
        assert all(state.keep.all() for state in states) and escalated == 0

    @pytest.mark.parametrize("kinds", [["random", "near_collinear", "random"],
                                       ["random", "collinear", "near_collinear", "random"]])
    def test_collinear_blocks_escalate_alone(self, kinds):
        # no ridge: each collinear block escalates, with one warning, and the
        # random blocks keep a zero ridge; the near-collinear block fails the
        # condition check only, the collinear one also its Cholesky factor
        states, escalated = self._check(kinds, 0.0)
        assert escalated == sum("collinear" in kind for kind in kinds)
        assert [state.lam > 0.0 for state in states] == ["collinear" in k for k in kinds]

    @pytest.mark.parametrize("kinds", [["random", "constant_x1", "random"],
                                       ["deterministic", "random"],
                                       ["deterministic"] * 3])
    def test_blocks_keeping_other_columns(self, kinds):
        states, _ = self._check(kinds, 1e-9)
        kept = [int(state.keep.sum()) for state in states]
        if kinds == ["deterministic"] * 3:
            assert kept == [1, 1, 1]
        else:
            assert len(set(kept)) == 2

    def test_stacked_failure_retries_each_block(self, monkeypatch):
        # a stacked Cholesky call that fails hands every block to its own
        # ridge loop, which gives the same factors
        cholesky, stacked = np.linalg.cholesky, []

        def failing_on_stacks(a):
            if a.ndim == 3:
                stacked.append(1)
                raise np.linalg.LinAlgError("stack")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_on_stacks)
        _, escalated = self._check(["random"] * 3, 1e-9)
        assert stacked and escalated == 0

    @pytest.mark.parametrize("kinds", [["random"], ["random", "constant_x1", "deterministic"],
                                       ["random"] * 3])
    def test_groups_of_one_make_2d_calls(self, monkeypatch, kinds):
        # a group of one block, fitted or rebuilt from its factors, makes no
        # stacked first attempt and only the plain 2-D calls, which cost less
        # than stacked ones on one matrix; a group of three makes stacked ones
        basis = RegressionBasis(degree=2)
        blocks = [self._block(kind, 257, seed) for seed, kind in enumerate(kinds)]
        design = basis.design(np.concatenate([x for x, _ in blocks]),
                              np.concatenate([x1 for _, x1 in blocks]))
        y = np.sin(np.arange(len(design)) * 0.37)
        ndims = {"svd": [], "cholesky": [], "solve": []}

        def recorded(name, fn):
            def call(*args, **kwargs):
                ndims[name] += [np.ndim(a) for a in args]
                return fn(*args, **kwargs)
            return call

        for name in ndims:
            monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
        reg = ConditionalRegression(design, basis.eps_reg, len(kinds))
        fitted = reg.fit_values(y)
        fit_solves = len(ndims["solve"])
        rebuilt = ConditionalRegression.from_factor(design, reg.state)
        assert np.array_equal(rebuilt.fit_values(y), fitted)
        assert len(ndims["solve"]) == 2 * fit_solves > 0
        assert all(ndims.values())
        want = 3 if kinds == ["random"] * 3 else 2
        assert {d for calls in ndims.values() for d in calls} == {want}, ndims


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
        expect = coeffs.phi(bundle.state(n)[1], bundle.X1[:, n])
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

    def test_lipschitz_gate_reads_recorded_slopes_as_numbers(self):
        coeffs = make_coefficients("linear_quadratic", lam=0.0, a=0.1, sigma0=0.2, fy=-0.3)
        g = grid(T=0.5)
        bundle = run(coeffs, g, n_paths=100)
        calls = []

        def counted(slot):
            return lambda *args: calls.append(slot) or coeffs.slope(slot, *args)

        # every callable slot counts its calls
        bsde._lipschitz_gate(dataclasses.replace(coeffs, **{
            f.name: counted(f.name) for f in dataclasses.fields(coeffs)
            if callable(getattr(coeffs, f.name))}), bundle, g.dt)
        assert calls == []

        # an evaluated slope is evaluated at each of the three probe steps
        wrapped = dataclasses.replace(coeffs, f_y=counted("f_y"), f_z=counted("f_z"))
        bsde._lipschitz_gate(wrapped, bundle, g.dt)
        assert calls.count("f_y") == calls.count("f_z") == 3

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
                integ += np.abs(coeffs.f(g.time(i), bundle.state(i)[1], bundle.X1[:, i],
                                         bundle.X2[:, i], 0.0, 0.0, 0.0)) * dt
            phiT = coeffs.phi(bundle.state(n)[1], bundle.X1[:, n])
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


def counted_f(coeffs):
    """``coeffs`` with a driver that appends to the returned list per call."""
    calls = []

    def f(*args):
        calls.append(1)
        return coeffs.f(*args)

    return dataclasses.replace(coeffs, f=f), calls


class TestLazyStandardError:
    def test_pathwise_se_runs_on_first_read_only(self):
        base = make_coefficients("linear", lam=0.3, bx=0.2, sx=0.3, fx=1.0, fy=-0.2,
                                 fz=0.1, phix=1.0)
        coeffs, calls = counted_f(base)
        g = grid(T=0.5)
        n = g.n_steps
        bundle = run(coeffs, g, n_paths=500)
        sol = solve_bsde_lsmc(bundle, coeffs, RegressionBasis())
        assert len(calls) == n  # the sweep's driver update, one call per step
        se = sol.y_s_se
        assert len(calls) == 2 * n
        assert se == bsde._pathwise_se(bundle, base, sol.Y, sol.Z, bundle.valid) > 0.0
        assert sol.y_s_se == se and len(calls) == 2 * n
        # a replaced solution keeps the arrays and computes its own on read
        assert dataclasses.replace(sol, factors=None).y_s_se == se
        assert len(calls) == 3 * n


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
        driver = LinearDriver(fbar=-r)
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
