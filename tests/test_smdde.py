import math

import numpy as np
import pytest

from delaycontrol.core import ConfigurationError, HistoryPath, TimeGrid, x1_weights
from delaycontrol.coeffs import make_coefficients
from delaycontrol import smdde
from delaycontrol.smdde import (_BLOCK_BYTES, NoiseSource, estimate_moment_bound,
                                simulate_coupled_pair, simulate_smdde)

from oracles import steps_segment_1, steps_segment_2


def grid(T=0.5, dt=0.01, m=10):
    return TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)


class TestNoiseSource:
    def test_deterministic_per_path_and_step(self):
        ns = NoiseSource(123)
        a = ns.increments(0, 4, 50, 0.01)
        b = ns.increments(2, 2, 50, 0.01)
        assert np.array_equal(a[2:], b)  # same paths, independent of batching
        c = ns.increments(0, 4, 30, 0.01)
        assert np.array_equal(a[:, :30], c)  # prefix property

    def test_moments(self):
        ns = NoiseSource(7)
        z = ns.increments(0, 2000, 50, 0.01)
        assert z.mean() == pytest.approx(0.0, abs=3 * 0.1 / math.sqrt(z.size))
        assert z.var() == pytest.approx(0.01, rel=0.02)

    def test_substep_coarsening_matches_fine_run(self):
        coarse = NoiseSource(9, substeps=2).increments(0, 3, 25, 0.02)
        fine = NoiseSource(9).increments(0, 3, 50, 0.01)
        assert np.allclose(coarse, fine.reshape(3, 25, 2).sum(axis=2), atol=1e-15)

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("first_path", [0, 4097, 2**24 + 3])
    def test_bits_match_one_philox_per_path(self, first_path, substeps):
        # reference: a fresh Philox(key=seed) advanced to the path's block;
        # from path 2**24 on, path * 2**40 carries into the second counter word
        seed, n_paths, n_steps, dt = 0xDEADBEEF12345678, 5, 7, 0.01
        got = NoiseSource(seed, substeps).increments(first_path, n_paths, n_steps, dt)
        want = np.empty((n_paths, n_steps))
        for row in range(n_paths):
            bg = np.random.Philox(key=seed)
            bg.advance((first_path + row) * 2**40)
            uni = np.random.Generator(bg).random(2 * n_steps * substeps)
            z = np.sqrt(-2.0 * np.log1p(-uni[0::2])) * np.cos(2.0 * np.pi * uni[1::2])
            z *= np.sqrt(dt / substeps)
            want[row] = z if substeps == 1 else z.reshape(n_steps, substeps).sum(axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("first_path", [0, 2**24 - 2])
    def test_bits_match_across_blocks(self, first_path, substeps):
        # 51 * substeps draws: 2 * 51 * substeps uniforms, not a multiple of 4,
        # so each path leaves part of a Philox block unread; from first_path
        # 2**24 - 2 the carry into the second counter word falls inside a call
        seed, n_steps, dt = 0xDEADBEEF12345678, 51, 0.01
        rows = _BLOCK_BYTES // (16 * n_steps * substeps)
        ns = NoiseSource(seed, substeps)
        for n_paths in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            got = ns.increments(first_path, n_paths, n_steps, dt)
            want = np.empty((n_paths, n_steps))
            for row in range(n_paths):
                bg = np.random.Philox(key=seed)
                bg.advance((first_path + row) * 2**40)
                uni = np.random.Generator(bg).random(2 * n_steps * substeps)
                z = np.sqrt(-2.0 * np.log1p(-uni[0::2])) * np.cos(2.0 * np.pi * uni[1::2])
                z *= np.sqrt(dt / substeps)
                want[row] = z if substeps == 1 else z.reshape(n_steps, substeps).sum(axis=1)
            assert np.array_equal(got, want), n_paths

    @pytest.mark.parametrize("first_path,n_paths", [(-1, 3), (0, -1)])
    def test_rejects_negative_path_range(self, first_path, n_paths):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            NoiseSource(5).increments(first_path, n_paths, 10, 0.01)

    def test_rejects_bad_seed(self):
        with pytest.raises(ConfigurationError):
            NoiseSource(-1)


class TestSimulate:
    def test_zero_coefficients_hold_history_value(self):
        coeffs = make_coefficients("constant", lam=0.5)
        b = simulate_smdde(coeffs, HistoryPath.constant(1.0, 10), 0.0, grid(),
                           NoiseSource(1), 64)
        assert np.all(b.X == 1.0)
        assert not b.diverged.any()

    def test_method_of_steps_first_segment(self):
        # drift = delayed state, no noise: X ramps linearly over one delay span
        coeffs = make_coefficients("linear", lam=0.0, bx2=1.0)
        g = grid(T=0.1, dt=0.001, m=100)  # horizon = one delay
        b = simulate_smdde(coeffs, HistoryPath.constant(1.0, 100), 0.0, g,
                           NoiseSource(1), 2)
        times = g.times()
        exact = steps_segment_1(times, 0.0)
        assert np.max(np.abs(b.X[0, 100:] - exact)) < 2 * g.dt

    def test_method_of_steps_second_segment_order(self):
        coeffs = make_coefficients("linear", lam=0.0, bx2=1.0)
        errs = []
        for dt, m in ((0.002, 50), (0.001, 100)):
            g = TimeGrid(s=0.0, T=0.2, dt=dt, delay_steps=m)
            b = simulate_smdde(coeffs, HistoryPath.constant(1.0, m), 0.0, g,
                               NoiseSource(1), 1)
            t2 = g.times()[m:]
            exact = steps_segment_2(t2, 0.0, g.delay)
            sim = b.X[0, 2 * m:]
            errs.append(float(np.max(np.abs(sim - exact))))
        assert errs[0] < 0.01
        assert errs[0] / errs[1] > 1.5  # first-order in dt

    def test_gbm_terminal_mean(self):
        a, c, x0, T = 0.3, 0.2, 1.0, 0.5
        coeffs = make_coefficients("linear", lam=0.0, bx=a, sx=c)
        g = grid(T=T)
        b = simulate_smdde(coeffs, HistoryPath.constant(x0, 10), 0.0, g,
                           NoiseSource(11), 40_000)
        xT = b.x_at(g.n_steps)
        se = xT.std() / math.sqrt(xT.size)
        assert abs(xT.mean() - x0 * math.exp(a * T)) < 3 * se + 2e-3  # + O(dt) bias

    def test_x2_is_exact_shift(self):
        coeffs = make_coefficients("linear", lam=0.3, bx=0.2, sx=0.3)
        g = grid()
        b = simulate_smdde(coeffs, HistoryPath.constant(1.0, 10), 0.0, g,
                           NoiseSource(5), 16)
        for i in (0, 3, g.n_steps):
            assert np.array_equal(b.X2[:, i], b.x_at(i - g.m))

    def test_determinism_across_chunks_and_threads(self, monkeypatch):
        coeffs = make_coefficients("linear", lam=0.2, bx=0.3, sx=0.4)
        kw = dict(coeffs=coeffs, history=HistoryPath.constant(1.0, 10),
                  control=0.0, grid=grid(), noise=NoiseSource(77), n_paths=1000)
        b = simulate_smdde(**kw)  # one chunk
        monkeypatch.setattr(smdde, "CHUNK_PATHS", 128)
        a = simulate_smdde(**kw)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.X1, b.X1)

    def test_per_path_control_across_chunks(self, monkeypatch):
        # each chunk reads its own rows of a per-path (n_paths, n) control
        coeffs = make_coefficients("linear", lam=0.2, bx=0.3, bu=0.5, sx=0.4)
        g = grid()
        control = np.linspace(-1.0, 1.0, 300 * g.n_steps).reshape(300, g.n_steps)
        kw = dict(coeffs=coeffs, history=HistoryPath.constant(1.0, 10),
                  control=control, grid=g, noise=NoiseSource(77), n_paths=300)
        b = simulate_smdde(**kw)  # one chunk
        monkeypatch.setattr(smdde, "CHUNK_PATHS", 128)
        a = simulate_smdde(**kw)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.X1, b.X1)

    @pytest.mark.parametrize("m,T", [(1, 0.05), (3, 0.5), (10, 0.5), (10, 0.05)])
    def test_window_buffer_matches_row_major_reference(self, m, T):
        # the quadrature reads a two-window ring buffer; the reference steps
        # one row-major (paths, m + n + 1) array, as the layout did before
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, bx1=0.2, sx=0.15,
                                   bxx1=0.8, sxx2=0.4, clip=2.5)
        g = grid(T=T, m=m)
        n, dt = g.n_steps, g.dt
        hist = HistoryPath(np.linspace(0.5, 1.0, m + 1))
        rule = lambda t, x, x1: 0.2 * np.tanh(x - x1)
        got = simulate_smdde(coeffs, hist, rule, g, NoiseSource(8), 300)
        dW = NoiseSource(8).increments(0, 300, n, dt)
        w = x1_weights(m, coeffs.lam, dt)
        X = np.empty((300, m + n + 1))
        X1 = np.empty((300, n + 1))
        X[:, : m + 1] = hist.samples
        for i in range(n):
            t, x, x1, x2 = g.time(i), X[:, i + m], X[:, i : i + m + 1] @ w, X[:, i]
            X1[:, i] = x1
            u = rule(t, x, x1)
            X[:, i + m + 1] = (x + coeffs.b(t, x, x1, x2, u) * dt
                               + coeffs.sigma(t, x, x1, x2, u) * dW[:, i])
        X1[:, n] = X[:, n:] @ w
        assert np.array_equal(got.X, X)
        assert np.array_equal(got.X1, X1)

    def test_strong_convergence_under_refinement(self):
        # E|X_dt(T) - X_{dt/2}(T)| shrinks by a factor >= 1.3 per halving
        # (increments coupled through the substep mechanism)
        coeffs = make_coefficients("linear", lam=0.0, bx=0.3, sx=0.4)
        ref_sub = 8
        xT = []
        for k in range(4):
            g = TimeGrid(s=0.0, T=0.48, dt=0.04 / 2 ** k, delay_steps=2 ** (k + 1))
            ns = NoiseSource(21, substeps=ref_sub // 2 ** k)
            b = simulate_smdde(coeffs, HistoryPath.constant(1.0, g.m), 0.0, g,
                               ns, 4000)
            xT.append(b.x_at(g.n_steps))
        diffs = [np.mean(np.abs(xT[k] - xT[k + 1])) for k in range(3)]
        assert diffs[0] / diffs[1] >= 1.3
        assert diffs[1] / diffs[2] >= 1.3

    def test_divergence_flagged(self):
        # supercritical drift with a huge coefficient overflows floats fast
        coeffs = make_coefficients("linear", lam=0.0, bx=1e9)
        g = grid(T=0.1, dt=0.01, m=1)
        b = simulate_smdde(coeffs, HistoryPath.constant(1.0, 1), 0.0, g,
                           NoiseSource(1), 8)
        assert b.diverged.all()

    def test_short_per_step_control_holds_last_entry(self):
        # 23 entries on a 50-step grid: the last entry holds to T
        coeffs = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8)
        g = grid()
        short = np.linspace(-0.5, 0.5, 23)
        padded = np.concatenate([short, np.full(g.n_steps - short.size, short[-1])])
        runs = [simulate_smdde(coeffs, HistoryPath.constant(1.0, 10), u, g,
                               NoiseSource(4), 64) for u in (short, padded)]
        assert np.array_equal(runs[0].X, runs[1].X)
        assert np.array_equal(runs[0].X1, runs[1].X1)

    def test_feedback_control_stored_per_path(self):
        coeffs = make_coefficients("linear", lam=0.0, bx=0.1, sx=0.3)
        g = grid()
        rule = lambda t, x, x1: np.clip(-0.5 * x, -1, 1)
        b = simulate_smdde(coeffs, HistoryPath.constant(1.0, 10), rule, g,
                           NoiseSource(3), 32)
        assert b.u.shape == (32, g.n_steps)
        assert b.u_at(0) == pytest.approx(np.full(32, -0.5))


class TestComparison:
    def setup_method(self):
        self.grid = TimeGrid(s=0.0, T=0.3, dt=0.001, delay_steps=20)
        self.hist = HistoryPath.constant(1.0, 20)

    def coupled_paths(self, c1, c2, h1, h2, seed, n_paths):
        # the noise depends only on (seed, path, step): two runs on one seed
        # are the coupled pair
        return [simulate_smdde(c, h, 0.0, self.grid, NoiseSource(seed), n_paths).X
                for c, h in ((c1, h1), (c2, h2))]

    def test_identical_instances_are_identical(self):
        c = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.2)
        rep = simulate_coupled_pair(c, c, self.hist, self.hist, self.grid,
                                    NoiseSource(5), 500)
        X1, X2 = self.coupled_paths(c, c, self.hist, self.hist, 5, 500)
        assert np.array_equal(X1, X2)
        assert rep.max_violation_fraction == 0.0
        assert rep.hypothesis_ok

    def test_ordered_drifts_give_pathwise_ordering(self):
        c1 = make_coefficients("linear", lam=0.0, b0=1.0, bx2=1.0, sx=0.2)
        c2 = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.2)
        rep = simulate_coupled_pair(c1, c2, self.hist, self.hist, self.grid,
                                    NoiseSource(6), 2000)
        assert rep.hypothesis_ok, rep.hypothesis_failures
        assert rep.max_violation_fraction == 0.0
        assert rep.worst_violation <= 0.0

    def test_ordered_histories_give_pathwise_ordering(self):
        c = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.2)
        hist_hi = HistoryPath.constant(1.5, 20)
        rep = simulate_coupled_pair(c, c, hist_hi, self.hist, self.grid,
                                    NoiseSource(7), 2000)
        assert rep.hypothesis_ok
        assert rep.max_violation_fraction == 0.0
        X1, X2 = self.coupled_paths(c, c, hist_hi, self.hist, 7, 2000)
        assert np.all(X1 >= X2 - 1e-12)

    def test_drift_order_violation_reported_not_raised(self):
        c1 = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.2)
        c2 = make_coefficients("linear", lam=0.0, b0=1.0, bx2=1.0, sx=0.2)
        rep = simulate_coupled_pair(c1, c2, self.hist, self.hist, self.grid,
                                    NoiseSource(8), 200)
        assert not rep.hypothesis_ok
        assert any("drift ordering" in msg for msg in rep.hypothesis_failures)
        assert rep.max_violation_fraction > 0.0  # counterexample realized

    def test_decreasing_x2_dependence_reported(self):
        c1 = make_coefficients("linear", lam=0.0, bx2=-1.0, sx=0.2)
        rep = simulate_coupled_pair(c1, c1, self.hist, self.hist, self.grid,
                                    NoiseSource(9), 100)
        assert any("decreasing in x2" in msg for msg in rep.hypothesis_failures)

    def test_differing_diffusions_reported(self):
        c1 = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.2)
        c2 = make_coefficients("linear", lam=0.0, bx2=1.0, sx=0.3)
        rep = simulate_coupled_pair(c1, c2, self.hist, self.hist, self.grid,
                                    NoiseSource(10), 100)
        assert any("diffusions differ" in msg for msg in rep.hypothesis_failures)


class TestMomentBound:
    def test_deterministic_constant_path(self):
        coeffs = make_coefficients("constant", lam=0.0)
        rep = estimate_moment_bound(coeffs, HistoryPath.constant(2.0, 10), grid(),
                                    2, NoiseSource(1), 200)
        assert rep.lhs == pytest.approx(4.0)
        assert rep.rhs_history == pytest.approx(4.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_pure_drift_matches_integral_term(self):
        T = 0.5
        coeffs = make_coefficients("constant", lam=0.0, b0=1.0)
        rep = estimate_moment_bound(coeffs, HistoryPath.constant(0.0, 10),
                                    grid(T=T), 4, NoiseSource(1), 50)
        assert rep.lhs == pytest.approx(T ** 4, rel=1e-6)
        assert rep.rhs_drift == pytest.approx(T ** 4, rel=1e-12)

    def test_homogeneous_scaling_regression(self):
        # zero-intercept linear dynamics: sup|X|^p scales exactly like the
        # history magnitude to the p-th power (pathwise, shared noise)
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.1, sx=0.25)
        for p in (2, 4):
            scales = np.array([1.0, 2.0, 4.0])
            lhs = []
            for s in scales:
                rep = estimate_moment_bound(coeffs, HistoryPath.constant(s, 10),
                                            grid(), p, NoiseSource(33), 2000)
                lhs.append(rep.lhs)
            slope = np.polyfit(np.log(scales), np.log(lhs), 1)[0]
            assert slope == pytest.approx(p, abs=0.05)

    def test_rejects_odd_order(self):
        coeffs = make_coefficients("constant")
        with pytest.raises(ConfigurationError):
            estimate_moment_bound(coeffs, HistoryPath.constant(0.0, 10), grid(),
                                  3, NoiseSource(1), 10)


def test_harness_reductions_independent_of_chunking(monkeypatch):
    # explosive dynamics: some paths diverge, in more than one chunk
    g = TimeGrid(s=0.0, T=0.1, dt=0.001, delay_steps=10)
    hist = HistoryPath.constant(1.0, 10)
    c1 = make_coefficients("linear", lam=0.0, bx=400.0, bx2=1.0, sx=20.0)
    c2 = make_coefficients("linear", lam=0.0, b0=1.0, bx=400.0, bx2=1.0, sx=20.0)

    def run():
        cmp = simulate_coupled_pair(c1, c2, hist, hist, g, NoiseSource(3), 700)
        mom = estimate_moment_bound(c1, hist, g, 2, NoiseSource(3), 700)
        return cmp, mom

    one_chunk = run()
    monkeypatch.setattr(smdde, "CHUNK_PATHS", 64)
    chunked = run()
    assert 0 < one_chunk[1].n_diverged < 700
    assert one_chunk[0].max_violation_fraction > 0.0
    assert np.array_equal(chunked[0].violation_fraction, one_chunk[0].violation_fraction)
    assert chunked[0].worst_violation == one_chunk[0].worst_violation
    for name in ("lhs", "lhs_se", "n_diverged"):
        assert getattr(chunked[1], name) == getattr(one_chunk[1], name)
