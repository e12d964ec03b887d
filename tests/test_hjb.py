import dataclasses
import math

import numpy as np
import pytest

from delaycontrol.core import (ConfigurationError, ControlDomain,
                               HypothesisViolation, LinearDriver, TimeGrid,
                               eval_G, transport_term)
from delaycontrol import hjb
from delaycontrol.coeffs import make_coefficients
from delaycontrol.hjb import (GridValueFunction, HjbGrid, Jet, ProbeSet,
                              _refine_argmax, check_x2_independence,
                              default_probe_set, extract_jet,
                              feedback_control, jet_membership, solve_hjb,
                              viscosity_residual)

from conftest import LQ_PARAMS, LQ_LAM
from oracles import riccati_lq


def tg(T=1.0, dt=0.01, m=10):
    return TimeGrid(s=0.0, T=T, dt=dt, delay_steps=m)


def small_grid(n_t=100, nx=101, nx1=51):
    return HjbGrid(-3.0, 3.0, nx, -3.0, 3.0, nx1, n_t)


DOM = ControlDomain(-1.0, 1.0, n_u=41)


def lq_coeffs():
    return make_coefficients("linear_quadratic", lam=LQ_LAM, **LQ_PARAMS)


class TestGate:
    def test_x1_and_x2_free_with_zero_q_probes_passes(self):
        coeffs = make_coefficients("linear", lam=0.5, bx=0.3, sx=0.2, fx=1.0)
        probes = default_probe_set(coeffs, small_grid(), tg())
        assert np.all(probes.q == 0.0)  # instance is x1-insensitive
        ok, worst = check_x2_independence(coeffs, None, DOM, probes, 0.1)
        assert ok and worst < 1e-12

    def test_nonzero_q_probes_fail_via_transport(self):
        coeffs = make_coefficients("linear", lam=0.5, bx=0.3, sx=0.2)
        p = default_probe_set(coeffs, small_grid(), tg())
        probes = ProbeSet(t=p.t, x=p.x, x1=p.x1, k=p.k, p=p.p, R=p.R,
                          q=np.ones_like(p.q))
        ok, worst = check_x2_independence(coeffs, None, DOM, probes, 0.1)
        assert not ok and worst > 1e-3

    def test_engineered_cancellation_passes(self):
        # drift carries +e^{-lam*delta} * kappa * x2; probes constrained to
        # p * kappa = q make the two x2 routes cancel algebraically
        lam, delay, kappa = 0.5, 0.1, 0.7
        decay = math.exp(-lam * delay)
        coeffs = make_coefficients("linear", lam=lam, bx=0.2, bx2=decay * kappa,
                                   sx=0.1)
        rng = np.random.default_rng(3)
        n = 64
        p = rng.normal(0.0, 1.0, n)
        probes = ProbeSet(t=rng.uniform(0, 1, n), x=rng.normal(0, 1, n),
                          x1=rng.normal(0, 1, n), k=rng.normal(0, 1, n),
                          p=p, R=rng.normal(0, 1, n), q=p * kappa)
        ok, worst = check_x2_independence(coeffs, None, DOM, probes, delay)
        assert ok, worst

    def test_solver_refuses_x2_dependent_instance(self):
        coeffs = make_coefficients("linear", lam=0.5, bx1=0.4, sx=0.2, phix1=1.0)
        with pytest.raises(HypothesisViolation):
            solve_hjb(coeffs, DOM, small_grid(n_t=200), tg())


class TestSolver:
    def test_zero_coefficients_linear_terminal(self):
        # transport is killed by the exactly-flat x1 profile: V = -x forever
        coeffs = make_coefficients("linear", lam=0.5, phix=1.0)
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        xs = vg.xs
        interior = slice(5, -5)
        for it in (0, 50, 100):
            err = np.abs(vg.V[it] + xs[:, None])
            assert err[interior].max() < 1e-10

    def test_constant_terminal(self):
        coeffs = make_coefficients("constant", lam=0.5, phi0=2.0)
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        assert np.max(np.abs(vg.V + 2.0)) < 1e-12

    def test_cfl_violation_reports_required_step(self):
        coeffs = make_coefficients("linear", lam=0.5, sx=2.0, phix=1.0)
        with pytest.raises(ConfigurationError, match="n_t >="):
            solve_hjb(coeffs, DOM, small_grid(n_t=20), tg())

    def test_riccati_benchmark_interior_error(self):
        coeffs = lq_coeffs()
        ric = riccati_lq(s=0.0, T=1.0, **{**LQ_PARAMS, "phi_lin": 0.0,
                                          "phi0": 0.0, "b0": 0.0})
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        xs = vg.xs
        j0 = round(0.1 * (len(xs) - 1))
        for it, t in ((0, 0.0), (50, 0.5)):
            K, L, c = ric(t)
            err = np.abs(vg.V[it][:, 25] - (K * xs ** 2 + L * xs + c))
            assert err[j0:len(xs) - j0].max() < 5e-2

    def test_value_function_flat_in_x1_for_delay_free_instance(self):
        vg = solve_hjb(lq_coeffs(), DOM, small_grid(), tg())
        assert np.max(np.abs(vg.V - vg.V[:, :, :1])) == 0.0

    def test_monotone_in_terminal_data(self):
        base = dict(lam=0.5, bx=0.2, sx=0.3)
        lo = make_coefficients("linear", phix=1.0, **base)
        hi = make_coefficients("linear", phix=1.0, phi0=-1.0, **base)  # -phi larger
        g = small_grid(n_t=120, nx=61, nx1=31)
        v_lo = solve_hjb(lo, DOM, g, tg())
        v_hi = solve_hjb(hi, DOM, g, tg())
        assert np.all(v_hi.V >= v_lo.V - 1e-12)

    def test_argmax_invariant_under_positive_rescale(self):
        # doubling (f, phi) doubles the Hamiltonian pointwise along the
        # solve; the stored argmax field must be bit-identical
        p2 = dict(LQ_PARAMS)
        p2["q"] *= 2.0
        p2["r"] *= 2.0
        p2["phi_quad"] *= 2.0
        g = small_grid(n_t=60, nx=61, nx1=31)
        va = solve_hjb(lq_coeffs(), DOM, g, tg())
        vb = solve_hjb(make_coefficients("linear_quadratic", lam=LQ_LAM, **p2),
                       DOM, g, tg())
        assert np.array_equal(va.u_star, vb.u_star)
        assert np.allclose(2.0 * va.V, vb.V, atol=1e-12)


def reference_sweep(coeffs, domain, grid, time_grid, variant, driver):
    """The backward sweep written out with eval_G, once for the upwind and
    once for the central-difference Hamiltonian of every control."""
    xs, x1s = grid.xs(), grid.x1s()
    X, X1 = np.meshgrid(xs, x1s, indexing="ij")
    times = np.linspace(time_grid.s, time_grid.T, grid.n_t + 1)
    dt = (time_grid.T - time_grid.s) / grid.n_t
    V = np.empty((grid.n_t + 1, grid.nx, grid.nx1))
    U = np.empty_like(V)
    V[grid.n_t] = -coeffs.phi(X, X1)
    u_grid = domain.points()
    tr = transport_term(X, X1, grid.x2_ref, coeffs.lam, time_grid.delay)
    dx, dx1 = grid.dx, grid.dx1
    for it in range(grid.n_t - 1, -1, -1):
        t = times[it + 1]
        Vc = V[it + 1]
        fwd_x = np.empty_like(Vc)
        fwd_x[:-1] = (Vc[1:] - Vc[:-1]) / dx
        fwd_x[-1] = fwd_x[-2]
        bwd_x = np.concatenate([fwd_x[:1], fwd_x[:-1]])
        fwd_1 = np.empty_like(Vc)
        fwd_1[:, :-1] = (Vc[:, 1:] - Vc[:, :-1]) / dx1
        fwd_1[:, -1] = fwd_1[:, -2]
        bwd_1 = np.concatenate([fwd_1[:, :1], fwd_1[:, :-1]], axis=1)
        d2x = np.empty_like(Vc)
        d2x[1:-1] = (Vc[2:] - 2 * Vc[1:-1] + Vc[:-2]) / dx ** 2
        d2x[0], d2x[-1] = d2x[1], d2x[-2]
        vx1_up = np.where(tr >= 0.0, fwd_1, bwd_1)
        ctr_x = 0.5 * (fwd_x + bwd_x)
        best = np.full(Vc.shape, -np.inf)
        g_ctr = np.empty((len(u_grid),) + Vc.shape)
        for iu, u in enumerate(u_grid):
            b_u = coeffs.b(t, X, X1, grid.x2_ref, u)
            vx_up = np.where(b_u >= 0.0, fwd_x, bwd_x)
            best = np.maximum(best, eval_G(variant, t, X, X1, grid.x2_ref, u, -Vc,
                                           -vx_up, -d2x, -vx1_up, coeffs, time_grid.delay,
                                           driver))
            g_ctr[iu] = eval_G(variant, t, X, X1, grid.x2_ref, u, -Vc, -ctr_x,
                               -d2x, -vx1_up, coeffs, time_grid.delay, driver)
        V[it] = Vc - dt * best
        U[it + 1] = _refine_argmax(g_ctr, np.argmax(g_ctr, axis=0), u_grid)
    U[0] = U[1]
    return V, U


def sweep_coeffs(z_nonlinear, family="linear_quadratic"):
    """LQ (or bilinear, with tanh-saturated products) coefficients whose
    terminal cost also depends on x1, so the x1 transport term of G is live;
    optionally with f nonlinear in z."""
    if family == "bilinear":
        base = make_coefficients("bilinear", lam=LQ_LAM, bx=0.1, bu=0.5, bxx1=0.3,
                                 s0=0.2, su=0.1, sxx1=0.05, fx=-0.2, fy=-0.2, fu=0.3,
                                 phix=0.5, clip=2.0)
    else:
        base = make_coefficients("linear_quadratic", lam=LQ_LAM, fy=-0.2, **LQ_PARAMS)

    def phi(x, x1):
        return base.phi(x, x1) + 0.3 * np.sin(x1)

    def f(t, x, x1, x2, y, z, u):
        return base.f(t, x, x1, x2, y, z, u) - 0.5 * z ** 2 + 0.1 * np.sin(3.0 * z)

    if z_nonlinear:
        return dataclasses.replace(base, name="z_nonlinear", phi=phi, f=f)
    return dataclasses.replace(base, phi=phi)


class TestSweepEquivalence:
    """The sweep evaluates b, sigma and f once per block of controls and
    shares them between the two Hamiltonians; V and the argmax must equal
    the per-control eval_G sweep bit for bit, also when the last block is
    partial (19 and 41 controls are not multiples of the block)."""

    @pytest.mark.parametrize("variant,driver", [
        ("G", None),
        ("Gbar", LinearDriver.constants(fbar=-0.2, gbar=0.3)),
        ("Gtilde", LinearDriver.constants(fbar=0.1)),
    ])
    def test_matches_eval_G_sweep(self, variant, driver):
        grid = HjbGrid(-3.0, 3.0, 21, -3.0, 3.0, 11, 20)
        for family in ("linear_quadratic", "bilinear"):
            coeffs = sweep_coeffs(z_nonlinear=variant == "G", family=family)
            # x1-slope probes at zero: the x1 dependence enters through phi only
            p = default_probe_set(coeffs, grid, tg())
            probes = dataclasses.replace(p, q=np.zeros_like(p.q))
            for n_u in (7, 19, 41):
                assert n_u == 7 or n_u % hjb.U_BLOCK
                dom = ControlDomain(-1.0, 1.0, n_u=n_u)
                vg = solve_hjb(coeffs, dom, grid, tg(), variant=variant,
                               linear_driver=driver, probes=probes)
                assert np.ptp(vg.V[0], axis=1).max() > 0.1  # V varies in x1
                V, U = reference_sweep(coeffs, dom, grid, tg(), variant, driver)
                assert np.array_equal(vg.V, V), (family, n_u)
                assert np.array_equal(vg.u_star, U), (family, n_u)

    @pytest.mark.parametrize("n_u", [1, 8, 19])
    def test_one_coefficient_call_per_block_and_step(self, n_u, monkeypatch):
        # the CFL bound and the x2 gate are stubbed out, so every call of b
        # comes from the sweep
        monkeypatch.setattr(hjb, "_cfl_bound", lambda *args: np.inf)
        monkeypatch.setattr(hjb, "check_x2_independence", lambda *args, **kw: (True, 0.0))
        calls = []
        base = lq_coeffs()

        def b(t, x, x1, x2, u):
            calls.append((float(t), np.ravel(u).tolist()))
            return base.b(t, x, x1, x2, u)

        dom = ControlDomain(-1.0, 1.0, n_u=n_u)
        grid = HjbGrid(-3.0, 3.0, 21, -3.0, 3.0, 11, 20)
        vg = solve_hjb(dataclasses.replace(base, b=b), dom, grid, tg())
        n_blocks = math.ceil(n_u / hjb.U_BLOCK)
        assert len(calls) == grid.n_t * n_blocks
        for t in vg.times[1:]:
            blocks = [u for s, u in calls if s == t]
            assert len(blocks) == n_blocks
            assert all(len(u) <= hjb.U_BLOCK for u in blocks)
            assert sum(blocks, []) == dom.points().tolist()

    def test_gtilde_refuses_nonzero_g(self):
        driver = LinearDriver.constants(gbar=0.3)
        with pytest.raises(ConfigurationError, match="Gtilde"):
            solve_hjb(lq_coeffs(), ControlDomain(-1.0, 1.0, n_u=7),
                      HjbGrid(-3.0, 3.0, 21, -3.0, 3.0, 11, 20), tg(),
                      variant="Gtilde", linear_driver=driver)


def reference_membership(vgrid, point, jet, side, radius, tol):
    """Full-jet membership written as a loop over (time, x1) rows."""
    sign = 1.0 if side == "super" else -1.0
    it0, j0, k0 = vgrid.indices(*point)
    v0 = vgrid.V[it0, j0, k0]
    nt = len(vgrid.times) - 1
    worst = -np.inf
    for it in range(it0, min(it0 + radius, nt) + 1):
        dt = vgrid.times[it] - vgrid.times[it0]
        for k in range(k0 - radius, k0 + radius + 1):
            d1 = vgrid.x1s[k] - vgrid.x1s[k0]
            js = np.arange(j0 - radius, j0 + radius + 1)
            dxs = vgrid.xs[js] - vgrid.xs[j0]
            rho = abs(dt) + dxs ** 2 + d1 ** 2
            center = (it == it0) & (k == k0) & (js == j0)
            model = (v0 + jet.theta * dt + jet.p * dxs
                     + 0.5 * jet.P * dxs ** 2 + jet.q * d1)
            resid = sign * (vgrid.V[it, js, k] - model)
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = np.where(center, -np.inf, resid / np.maximum(rho, 1e-300))
            worst = max(worst, float(resid.max()))
    return worst <= tol, worst


class TestMembershipEquivalence:
    def test_matches_row_loop(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(-2.0, 2.0, 41)
        x1s = np.linspace(-1.3, 1.7, 23)
        times = np.linspace(0.0, 1.0, 13)
        T, X, X1 = np.meshgrid(times, xs, x1s, indexing="ij")
        V = (np.sin(2.0 * X) * np.cos(X1) - 0.7 * T * X ** 2
             + 0.05 * rng.normal(size=X.shape))
        vg = GridValueFunction(times=times, xs=xs, x1s=x1s, V=V,
                               u_star=np.zeros_like(V), x2_ref=0.0, variant="G")
        radius = 3
        points = [(rng.uniform(0.0, 0.85), rng.uniform(-1.3, 1.3),
                   rng.uniform(-0.7, 1.1)) for _ in range(30)]
        # near T: it0 + radius passes n_t, so the time window is truncated
        points += [(times[-2], 0.4, 0.2), (times[-3], -0.9, -0.3)]
        for point in points:
            base = extract_jet(vg, *point)
            for jet in (base, Jet(base.theta + rng.normal(), base.p + rng.normal(),
                                  base.q + rng.normal(), base.P + rng.normal())):
                for side in ("super", "sub"):
                    tol = abs(rng.normal())
                    got = jet_membership(vg, point, jet, side=side, radius=radius,
                                         tol=tol)
                    want = reference_membership(vg, point, jet, side, radius, tol)
                    assert got[0] == want[0]
                    assert got[1] == want[1], (point, side)

    def test_x1_offset_squared_as_in_row_loop(self):
        # an x1 spacing whose scalar square differs from the array square in
        # the last bit; the only residual sits one x1 step from the point
        h = next(h for h in np.linspace(0.1, 0.2, 1001)
                 if np.float64(h) ** 2 != np.square(np.array([h]))[0])
        xs = np.linspace(-2.0, 2.0, 41)
        x1s = h * np.arange(-5, 6)
        times = np.linspace(0.0, 1.0, 11)
        V = np.zeros((11, 41, 11))
        V[3, 20, 6] = 1.0
        vg = GridValueFunction(times=times, xs=xs, x1s=x1s, V=V,
                               u_star=np.zeros_like(V), x2_ref=0.0, variant="G")
        point, jet = (times[3], 0.0, 0.0), Jet(0.0, 0.0, 0.0, 0.0)
        got = jet_membership(vg, point, jet, side="super", tol=1.0)
        assert got == reference_membership(vg, point, jet, "super", 3, 1.0)
        assert got[1] != 1.0 / np.square(h)
        # every neighbor strictly below the model: the point itself is excluded
        V[:] = -1.0
        V[3, 20, 5] = 0.0
        got = jet_membership(vg, point, jet, side="super", tol=1.0)
        assert got == reference_membership(vg, point, jet, "super", 3, 1.0)
        assert got[1] < 0.0


class TestArrayMembership:
    """One call on the points of a time step equals the per-point calls."""

    def _grid(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(-2.0, 2.0, 41)
        x1s = np.linspace(-1.3, 1.7, 23)
        times = np.linspace(0.0, 1.0, 13)
        T, X, X1 = np.meshgrid(times, xs, x1s, indexing="ij")
        V = (np.sin(2.0 * X) * np.cos(X1) - 0.7 * T * X ** 2
             + 0.05 * rng.normal(size=X.shape))
        return GridValueFunction(times=times, xs=xs, x1s=x1s, V=V,
                                 u_star=np.zeros_like(V), x2_ref=0.0, variant="G")

    # the last two times are within the radius of T: the time window is cut
    @pytest.mark.parametrize("it", [0, 5, 10, 11])
    @pytest.mark.parametrize("side", ["super", "sub"])
    @pytest.mark.parametrize("slope_only", [False, True])
    def test_matches_scalar_calls(self, it, side, slope_only):
        vg = self._grid()
        rng = np.random.default_rng(it)
        t = vg.times[it]
        x = rng.uniform(-1.3, 1.3, 25)
        x1 = rng.uniform(-0.7, 1.1, 25)
        jets = [extract_jet(vg, t, a, b) for a, b in zip(x, x1)]
        theta, p, q, P = (np.array([getattr(j, f) for j in jets]) + rng.normal(size=25)
                          for f in ("theta", "p", "q", "P"))
        if slope_only:
            cand, cands = p, list(p)
        else:
            cand = Jet(theta, p, q, P)
            cands = [Jet(*args) for args in zip(theta, p, q, P)]
        _, got = jet_membership(vg, (t, x, x1), cand, side=side, x_slope_only=slope_only)
        tol = float(np.median(got))  # some points pass, some fail
        got_ok, got = jet_membership(vg, (t, x, x1), cand, side=side, tol=tol,
                                     x_slope_only=slope_only)
        want = [jet_membership(vg, (t, a, b), c, side=side, tol=tol, x_slope_only=slope_only)
                for a, b, c in zip(x, x1, cands)]
        assert isinstance(want[0][0], bool) and isinstance(want[0][1], float)
        assert np.array_equal(got, [w for _, w in want])
        assert np.array_equal(got_ok, [ok for ok, _ in want])
        assert 0 < np.sum(got_ok) < got_ok.size

    def test_each_point_itself_excluded(self):
        # V = -(x^2 + x1^2) - t lies strictly below the model with the exact
        # space slopes at the node and theta = P = 0 at every neighbor, so
        # each worst is negative
        vg = self._grid()
        X, X1 = np.meshgrid(vg.xs, vg.x1s, indexing="ij")
        vg.V[:] = -(X ** 2 + X1 ** 2)[None] - vg.times[:, None, None]
        x, x1 = vg.xs[[11, 21, 32]], vg.x1s[[14, 6, 16]]
        jet = Jet(np.zeros(3), -2.0 * x, -2.0 * x1, np.zeros(3))
        ok, worst = jet_membership(vg, (vg.times[4], x, x1), jet, tol=0.0)
        assert np.all(ok) and np.all(worst < 0.0)

    def test_no_points(self):
        vg = self._grid()
        empty = np.empty(0)
        for cand in (empty, Jet(empty, empty, empty, empty)):
            ok, worst = jet_membership(vg, (vg.times[3], empty, empty), cand,
                                       x_slope_only=not isinstance(cand, Jet))
            assert ok.shape == worst.shape == (0,)


class TestJets:
    def _quadratic_grid(self):
        xs = np.linspace(-2, 2, 41)
        x1s = np.linspace(-1, 1, 21)
        times = np.linspace(0, 1, 11)
        X = xs[:, None]
        V = np.broadcast_to(X ** 2, (41, 21)).copy()
        V = np.repeat(V[None], 11, axis=0)
        return GridValueFunction(times=times, xs=xs, x1s=x1s, V=V,
                                 u_star=np.zeros_like(V), x2_ref=0.0, variant="G")

    def test_quadratic_reproduced_exactly(self):
        vg = self._quadratic_grid()
        jet = extract_jet(vg, 0.5, 1.0, 0.0)
        assert jet.theta == pytest.approx(0.0, abs=1e-12)
        assert jet.p == pytest.approx(2.0, abs=1e-12)
        assert jet.q == pytest.approx(0.0, abs=1e-12)
        assert jet.P == pytest.approx(2.0, abs=1e-9)

    def test_linear_profile(self):
        vg = self._quadratic_grid()
        vg.V[:] = -vg.xs[None, :, None]
        jet = extract_jet(vg, 0.3, 0.5, 0.0)
        assert (jet.theta, jet.p, jet.q, jet.P) == pytest.approx((0, -1, 0, 0),
                                                                 abs=1e-12)

    def test_boundary_rejected(self):
        vg = self._quadratic_grid()
        with pytest.raises(ValueError):
            extract_jet(vg, 0.5, 2.0, 0.0)
        with pytest.raises(ValueError):
            extract_jet(vg, 1.0, 0.0, 0.0)  # t = T has no right difference

    def test_riccati_time_slope(self):
        coeffs = lq_coeffs()
        ric = riccati_lq(s=0.0, T=1.0, **{**LQ_PARAMS, "phi_lin": 0.0,
                                          "phi0": 0.0, "b0": 0.0})
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        t, x = 0.4, 0.8
        jet = extract_jet(vg, t, x, 0.0)
        eps = 1e-5
        K1, L1, c1 = ric(t + eps)
        K0, L0, c0 = ric(t - eps)
        dVdt = ((K1 - K0) * x ** 2 + (L1 - L0) * x + (c1 - c0)) / (2 * eps)
        assert jet.theta == pytest.approx(dVdt, abs=5 * vg.dt)

    def test_smooth_membership_both_sides(self):
        vg = self._quadratic_grid()
        jet = extract_jet(vg, 0.5, 1.0, 0.0)
        ok_sup, _ = jet_membership(vg, (0.5, 1.0, 0.0), jet, side="super", tol=0.05)
        ok_sub, _ = jet_membership(vg, (0.5, 1.0, 0.0), jet, side="sub", tol=0.05)
        assert ok_sup and ok_sub

    def test_kink_superdifferential_interval(self):
        # V = -|x|: every slope in [-1, 1] super-majorizes at the kink,
        # while the subdifferential there is empty
        vg = self._quadratic_grid()
        vg.V[:] = -np.abs(vg.xs)[None, :, None]
        for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ok, worst = jet_membership(vg, (0.5, 0.0, 0.0), p, side="super",
                                       tol=1e-9, x_slope_only=True)
            assert ok, (p, worst)
        for p in (-1.0, 0.0, 1.0):
            ok, _ = jet_membership(vg, (0.5, 0.0, 0.0), p, side="sub",
                                   tol=1e-9, x_slope_only=True)
            assert not ok

    def test_membership_slope_rejects_wrong_candidate(self):
        vg = self._quadratic_grid()
        jet = extract_jet(vg, 0.5, 1.0, 0.0)
        ok, worst = jet_membership(vg, (0.5, 1.0, 0.0), jet.p + 0.5, side="super",
                                   tol=0.05, x_slope_only=True)
        assert not ok and worst > 0.2


class TestViscosityResidual:
    def test_zero_instance_exact(self):
        coeffs = make_coefficients("constant", lam=0.5, phi0=2.0)
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        sub, sup = viscosity_residual(vg, coeffs, DOM, [(0.3, 0.5, 0.1)], 0.1)
        assert sub == 0.0 and sup == 0.0

    def test_terminal_slice_matches_negated_terminal_cost(self):
        coeffs = lq_coeffs()
        vg = solve_hjb(coeffs, DOM, small_grid(), tg())
        X, X1 = np.meshgrid(vg.xs, vg.x1s, indexing="ij")
        assert np.array_equal(vg.V[-1], -coeffs.phi(X, X1))

    def test_lq_residuals_small_and_refining(self):
        coeffs = lq_coeffs()
        rng = np.random.default_rng(0)
        pts = [(rng.uniform(0, 0.9), rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(40)]
        res = []
        for g in (small_grid(), small_grid(n_t=200, nx=201, nx1=51)):
            vg = solve_hjb(coeffs, DOM, g, tg())
            sub, sup = viscosity_residual(vg, coeffs, DOM, pts, 0.1)
            dx_dt = g.dx + 1.0 / g.n_t
            assert max(sub, sup) <= 10.0 * dx_dt * (1.0 + 0.7)
            res.append(max(sub, sup))
        assert res[1] < res[0]


class TestFeedback:
    def test_clipped_to_domain(self):
        coeffs = lq_coeffs()
        vg = solve_hjb(coeffs, DOM, small_grid(n_t=60, nx=61, nx1=31), tg())
        rule = feedback_control(vg, DOM)
        u = rule(0.5, np.array([-10.0, 0.0, 10.0]), np.zeros(3))
        assert np.all(u >= DOM.lower) and np.all(u <= DOM.upper)
