import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycontrol.core import (ConfigurationError, ControlDomain, HistoryPath, Instance,
                               LinearDriver, TimeGrid, eval_G, eval_H, eval_X1_quadrature,
                               x1_weights)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import NoiseSource, simulate_smdde

from oracles import exp_window_integral


# ---------------------------------------------------------------------------
# grid and history invariants
# ---------------------------------------------------------------------------

class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(s=0.25, T=1.25, dt=0.01, delay_steps=10)
        assert g.n_steps == 100
        assert g.delay == pytest.approx(0.1)
        assert g.time(0) == pytest.approx(0.25)
        assert g.time(-g.m) == pytest.approx(0.15)
        assert g.times().shape == (101,)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(s=1.0, T=1.0, dt=0.01, delay_steps=1)
        with pytest.raises(ConfigurationError):
            TimeGrid(s=0.0, T=1.0, dt=-0.01, delay_steps=1)
        with pytest.raises(ConfigurationError):
            TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=0)

    def test_rejects_non_divisible_step(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(s=0.0, T=1.0, dt=0.003, delay_steps=3)

    @given(n=st.integers(1, 400), m=st.integers(1, 50),
           dt=st.floats(1e-4, 0.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_step_count_consistency(self, n, m, dt):
        g = TimeGrid(s=0.0, T=n * dt, dt=dt, delay_steps=m)
        assert g.n_steps == n
        assert g.delay == pytest.approx(m * dt)


class TestHistoryPath:
    def test_constant(self):
        h = HistoryPath.constant(2.0, 5)
        assert h.m == 5
        assert np.all(h.samples == 2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="invalid history"):
            HistoryPath(np.array([1.0, np.nan, 2.0]))

    def test_instance_rejects_mismatched_history(self):
        grid = TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=10)
        with pytest.raises(ConfigurationError):
            Instance(coeffs=make_coefficients("constant"), grid=grid,
                     history=HistoryPath.constant(1.0, 5),
                     domain=ControlDomain(-1, 1))


class TestControlDomain:
    def test_points_include_endpoints(self):
        d = ControlDomain(-1.0, 1.0, n_u=5)
        pts = d.points()
        assert pts[0] == -1.0 and pts[-1] == 1.0 and len(pts) == 5

    def test_single_point(self):
        assert ControlDomain(0.0, 2.0, n_u=1).points() == pytest.approx([1.0])

    def test_rejects_inverted(self):
        with pytest.raises(ConfigurationError):
            ControlDomain(1.0, -1.0)


# ---------------------------------------------------------------------------
# distributed-delay quadrature
# ---------------------------------------------------------------------------

class TestX1Quadrature:
    def test_constant_path_zero_rate(self):
        # trapezoid is exact on the constant integrand
        m, dt = 20, 0.01
        val = eval_X1_quadrature(np.full(m + 1, 3.0), 0.0, dt)
        assert val == pytest.approx(3.0 * m * dt, abs=1e-14)

    def test_constant_path_nonzero_rate(self):
        m, dt, lam, c = 40, 0.005, 0.8, 2.5
        val = eval_X1_quadrature(np.full(m + 1, c), lam, dt)
        exact = c * (1.0 - math.exp(-lam * m * dt)) / lam
        assert val == pytest.approx(exact, rel=1e-4)  # O(dt^2) quadrature

    def test_exponential_path_cancels_weight(self):
        # X(t + tau) = e^{-lam*tau} makes the integrand constant: exact value
        m, dt, lam = 25, 0.004, 1.3
        taus = (np.arange(m + 1) - m) * dt
        window = np.exp(-lam * taus)
        assert eval_X1_quadrature(window, lam, dt) == pytest.approx(m * dt, abs=1e-12)

    def test_second_order_convergence(self):
        # oracle: analytic integral of e^{(lam+alpha) tau} over the window
        lam, alpha, delta = 0.7, 0.9, 0.2
        exact = exp_window_integral(lam, alpha, delta)
        errs = []
        for m in (10, 20, 40):
            dt = delta / m
            taus = (np.arange(m + 1) - m) * dt
            window = np.exp(alpha * taus)
            errs.append(abs(eval_X1_quadrature(window, lam, dt) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_rejects_nonfinite_window(self):
        with pytest.raises(ValueError, match="invalid history"):
            eval_X1_quadrature(np.array([1.0, np.inf, 1.0]), 0.0, 0.01)

    def test_matrix_window(self):
        win = np.vstack([np.full(11, 1.0), np.full(11, 2.0)])
        out = eval_X1_quadrature(win, 0.0, 0.01)
        assert out == pytest.approx([0.1, 0.2])

    def test_incremental_identity_on_simulated_paths(self):
        # the forward-difference update X1 += (X - lam*X1 - e^{-lam*delta}*X2) dt,
        # seeded from the quadrature value, tracks the quadrature to O(dt)
        coeffs = make_coefficients("linear", lam=0.6, bx=0.2, sx=0.25, s0=0.1)
        worst = []
        for dt, m in ((0.02, 5), (0.01, 10), (0.005, 20)):
            grid = TimeGrid(s=0.0, T=0.5, dt=dt, delay_steps=m)
            bundle = simulate_smdde(coeffs, HistoryPath.constant(1.0, m), 0.0,
                                    grid, NoiseSource(3), 200)
            n = grid.n_steps
            decay = math.exp(-coeffs.lam * grid.delay)
            x1_ode = bundle.X1[:, 0].copy()
            err = 0.0
            for i in range(n):
                x1_ode = x1_ode + (bundle.x_at(i) - coeffs.lam * x1_ode
                                   - decay * bundle.X2[:, i]) * dt
                err = max(err, float(np.max(np.abs(x1_ode - bundle.X1[:, i + 1]))))
            worst.append(err)
        assert worst[0] < 0.05  # O(dt) with a modest constant
        assert worst[0] / worst[2] > 2.5  # shrinks roughly like dt


# ---------------------------------------------------------------------------
# Hamiltonian evaluators
# ---------------------------------------------------------------------------

def _state(x=0.3, x1=-0.2, x2=0.7):
    return x, x1, x2


class TestHamiltonian:
    def test_zero_adjoints(self):
        coeffs = make_coefficients("linear", lam=0.5, bx=1.0, sx=0.5, fx=2.0)
        h = eval_H(0.1, *_state(), 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, coeffs, 0.1)
        assert h == pytest.approx(0.0)

    def test_drift_pairing(self):
        coeffs = make_coefficients("constant", b0=1.7)
        h = eval_H(0.0, *_state(), 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, coeffs, 0.1)
        assert h == pytest.approx(1.7)

    def test_driver_sign(self):
        coeffs = make_coefficients("constant", f0=2.5)
        h = eval_H(0.0, *_state(), 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, coeffs, 0.1)
        assert h == pytest.approx(-2.5)

    def test_transport_pairing(self):
        lam, delay = 0.4, 0.25
        coeffs = make_coefficients("constant", lam=lam)
        st_ = _state(x=1.0, x1=2.0, x2=3.0)
        h = eval_H(0.0, *st_, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, coeffs, delay)
        assert h == pytest.approx(1.0 - lam * 2.0 - math.exp(-lam * delay) * 3.0)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_superposition(self, g, p1, p2, q1, scale):
        # H is jointly affine in (gamma, p1, p2, q1) for fixed state
        coeffs = make_coefficients("bilinear", lam=0.3, bx=0.4, bxx1=0.6,
                                   sx=0.2, fx=1.0, fy=0.5)
        stt = _state()
        args = (0.3, stt, 0.4, -0.1, 0.2)

        def H(gamma, a1, a2, aq):
            return eval_H(args[0], *args[1], args[2], args[3], args[4],
                          gamma, a1, a2, aq, coeffs, 0.1)

        lhs = H(scale * g, scale * p1, scale * p2, scale * q1)
        assert lhs == pytest.approx(scale * H(g, p1, p2, q1), rel=1e-9, abs=1e-9)
        base = H(0.0, 0.0, 0.0, 0.0)
        assert base == pytest.approx(0.0, abs=1e-12)
        split = (H(g, 0, 0, 0) + H(0, p1, 0, 0) + H(0, 0, p2, 0) + H(0, 0, 0, q1))
        assert H(g, p1, p2, q1) == pytest.approx(split, rel=1e-9, abs=1e-9)


class TestGeneralizedHamiltonian:
    def test_transport_only(self):
        coeffs = make_coefficients("constant", lam=0.0)
        g = eval_G("G", 0.0, 1.0, 5.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, coeffs, 0.3)
        assert g == pytest.approx(1.0 - 2.0)  # x - e^0 * x2 with lam = 0

    def test_gbar_with_zero_g_equals_gtilde(self):
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, sx=0.2, fx=1.0,
                                   fy=-0.5, f0=0.7)
        driver = LinearDriver.constants(fbar=-0.5)
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, 2.0, size=(10_000, 9))
        t = np.abs(pts[:, 0])
        args = tuple(pts[:, i] for i in range(1, 9))
        gbar_val = eval_G("Gbar", t, *args, coeffs, 0.2, driver)
        gtil_val = eval_G("Gtilde", t, *args, coeffs, 0.2, driver)
        assert np.array_equal(gbar_val, gtil_val)

    def test_full_matches_linear_split(self):
        # f independent of z and linear in y: G coincides with Gbar (g = 0)
        coeffs = make_coefficients("linear", lam=0.4, bx=0.3, sx=0.2, fx=1.2,
                                   fy=-0.5, f0=0.7)
        driver = LinearDriver.constants(fbar=-0.5)
        rng = np.random.default_rng(1)
        pts = rng.normal(0.0, 2.0, size=(2000, 9))
        t = np.abs(pts[:, 0])
        args = tuple(pts[:, i] for i in range(1, 9))
        full = eval_G("G", t, *args, coeffs, 0.2)
        lin = eval_G("Gbar", t, *args, coeffs, 0.2, driver)
        assert np.allclose(full, lin, atol=1e-12)

    def test_variant_driver_mismatch(self):
        coeffs = make_coefficients("constant")
        with pytest.raises(ConfigurationError):
            eval_G("Gbar", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, coeffs, 0.1)
        with pytest.raises(ConfigurationError):
            eval_G("Gtilde", 0, 0, 0, 0, 0, 0, 0, 0, 0, coeffs, 0.1,
                   LinearDriver.constants(gbar=0.5))
        with pytest.raises(ConfigurationError):
            eval_G("Gx", 0, 0, 0, 0, 0, 0, 0, 0, 0, coeffs, 0.1)


class TestWeights:
    def test_weights_sum_to_window_length_at_zero_rate(self):
        w = x1_weights(7, 0.0, 0.05)
        assert w.sum() == pytest.approx(0.35)
