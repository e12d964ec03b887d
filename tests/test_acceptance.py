"""Acceptance suite: the package's exit criteria.

One test per criterion, each at its stated tolerance and desk scale
(Monte Carlo default 1e5 paths, value grid 201 x 101 x 200).  Every test
prints a single pass/fail line (visible with pytest -s); assertions carry
the same thresholds.
"""

import hashlib
import math
import os

import numpy as np
import pytest

from delaycontrol.core import (ControlDomain, HistoryPath, Instance, LinearDriver,
                               TimeGrid)
from delaycontrol.coeffs import make_coefficients
from delaycontrol.smdde import (NoiseSource, estimate_moment_bound,
                                simulate_coupled_pair, simulate_smdde)
from delaycontrol.bsde import (RegressionBasis, linear_driver_oracle,
                               solve_bsde_lsmc)
from delaycontrol.adjoint import check_sufficient_mp
from delaycontrol.variational import scaling_reports
from delaycontrol.hjb import (HjbGrid, feedback_control, solve_hjb,
                              viscosity_residual)
from delaycontrol.connect import (check_duality_inclusion, girsanov_reduce,
                                  verify_optimality)
from delaycontrol.cli import main as cli_main

from conftest import LQ_PARAMS, LQ_MP_PARAMS, make_lq_instance, solve_pipeline
from oracles import riccati_lq

N_PATHS_MC = 100_000
HJB_GRID = HjbGrid(-3.0, 3.0, 201, -3.0, 3.0, 101, 200)


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lq_value_grid():
    inst = make_lq_instance()
    vgrid = solve_hjb(inst.coeffs, inst.domain, HJB_GRID, inst.grid,
                      variant="Gtilde", linear_driver=inst.driver)
    return inst, vgrid


# ---------------------------------------------------------------------------
# 1. coupled-path comparison
# ---------------------------------------------------------------------------

def test_criterion_1_comparison_theorem():
    grid = TimeGrid(s=0.0, T=0.3, dt=1e-3, delay_steps=20)
    tol = 10.0 * grid.dt
    drift_delay = dict(lam=0.0, bx2=1.0, sx=0.2)
    pairs = [
        ("identical", make_coefficients("linear", **drift_delay),
         make_coefficients("linear", **drift_delay), 1.0, 1.0),
        ("ordered drifts", make_coefficients("linear", b0=1.0, **drift_delay),
         make_coefficients("linear", **drift_delay), 1.0, 1.0),
        ("ordered histories", make_coefficients("linear", **drift_delay),
         make_coefficients("linear", **drift_delay), 1.5, 1.0),
    ]
    worst_frac = 0.0
    for name, c1, c2, h1, h2 in pairs:
        rep = simulate_coupled_pair(
            c1, c2, HistoryPath.constant(h1, grid.m), HistoryPath.constant(h2, grid.m),
            grid, NoiseSource(1001), N_PATHS_MC, tol=tol)
        assert rep.hypothesis_ok, (name, rep.hypothesis_failures)
        worst_frac = max(worst_frac, rep.max_violation_fraction)
    report("1 comparison-theorem",
           worst_frac == 0.0,
           f"worst violation fraction {worst_frac} over 3 pairs x {N_PATHS_MC} paths")


# ---------------------------------------------------------------------------
# 2. moment estimate
# ---------------------------------------------------------------------------

def test_criterion_2_moment_estimate():
    coeffs = make_coefficients("linear", lam=0.3, b0=0.2, bx=0.3, bx2=0.2,
                               s0=0.1, sx=0.1, phi0=0.8)
    hist_val = 0.8
    # one simulation per (grid, seed) and per scale serves both orders
    ratios = {2: [], 4: []}
    for dt, m in ((1e-2, 4), (5e-3, 8), (2.5e-3, 16)):
        grid = TimeGrid(s=0.0, T=0.4, dt=dt, delay_steps=m)
        for seed in (101, 102, 103):
            for rep in estimate_moment_bound(coeffs, HistoryPath.constant(hist_val, m),
                                             grid, (2, 4), NoiseSource(seed), N_PATHS_MC):
                assert np.isfinite(rep.ratio)
                ratios[rep.p].append(rep.ratio)
    spreads = {p: (max(r) - min(r)) / np.mean(r) for p, r in ratios.items()}

    lhs = {2: [], 4: []}
    scaling = make_coefficients("linear", lam=0.4, bx=0.3, bx1=0.1, sx=0.25)
    grid = TimeGrid(s=0.0, T=0.4, dt=5e-3, delay_steps=8)
    for scale in (1.0, 2.0, 4.0):
        for rep in estimate_moment_bound(scaling, HistoryPath.constant(scale, grid.m),
                                         grid, (2, 4), NoiseSource(55), 10_000):
            lhs[rep.p].append(rep.lhs)
    slopes = {p: float(np.polyfit(np.log([1, 2, 4]), np.log(v), 1)[0]) for p, v in lhs.items()}

    ok = all(s <= 0.20 for s in spreads.values()) and \
        all(abs(slopes[p] - p) <= 0.2 for p in (2, 4))
    report("2 moment-estimate", ok,
           f"ratio spreads p2/p4 = {spreads[2]:.3f}/{spreads[4]:.3f} (<=0.20), "
           f"scaling slopes {slopes[2]:.3f}/{slopes[4]:.3f} (within +-0.2 of p)")


# ---------------------------------------------------------------------------
# 3. backward-solver correctness
# ---------------------------------------------------------------------------

def test_criterion_3_bsde_correctness():
    # discounted geometric Brownian motion against the closed form
    a, c, r, x0, T = 0.3, 0.2, 0.25, 1.0, 1.0
    coeffs = make_coefficients("linear", lam=0.0, bx=a, sx=c, fy=-r, phix=1.0)
    grid = TimeGrid(s=0.0, T=T, dt=5e-3, delay_steps=1)
    bundle = simulate_smdde(coeffs, HistoryPath.constant(x0, 1), 0.0, grid,
                            NoiseSource(31), N_PATHS_MC)
    sol = solve_bsde_lsmc(bundle, coeffs, RegressionBasis(degree=2))
    exact = math.exp(-r * T) * x0 * math.exp(a * T)
    gbm_err = abs(sol.y_s - exact)
    gbm_tol = 3 * sol.y_s_se
    gbm_ok = gbm_err <= gbm_tol
    del bundle, sol  # one 100,000-path pipeline alive at a time

    # two backward routes on the quadratic-cost instance
    inst = make_lq_instance()
    bundle = simulate_smdde(inst.coeffs, inst.history, 0.1, inst.grid,
                            NoiseSource(32), N_PATHS_MC)
    sol = solve_bsde_lsmc(bundle, inst.coeffs, RegressionBasis(degree=2))
    est, se = linear_driver_oracle(inst.coeffs, inst.driver, bundle)
    lq_err = abs(sol.y_s - est)
    lq_tol = 3 * (sol.y_s_se + se)
    lq_ok = lq_err <= lq_tol

    report("3 bsde-correctness", gbm_ok and lq_ok,
           f"GBM |err| {gbm_err:.2e} <= {gbm_tol:.2e}; "
           f"two-route |gap| {lq_err:.2e} <= {lq_tol:.2e}")


# ---------------------------------------------------------------------------
# 4. value-function solver correctness
# ---------------------------------------------------------------------------

def test_criterion_4_hjb_correctness(lq_value_grid):
    inst, vgrid = lq_value_grid
    ric = riccati_lq(s=0.0, T=1.0, **{**LQ_PARAMS, "phi_lin": 0.0, "phi0": 0.0,
                                      "b0": 0.0})

    def sup_err(vg):
        xs = vg.xs
        j0 = round(0.1 * (len(xs) - 1))
        k0 = round(0.1 * (len(vg.x1s) - 1))
        worst = 0.0
        for it in range(0, len(vg.times), max(len(vg.times) // 8, 1)):
            K, L, c = ric(vg.times[it])
            exact = K * xs ** 2 + L * xs + c
            err = np.abs(vg.V[it] - exact[:, None])
            worst = max(worst, float(err[j0:len(xs) - j0,
                                         k0:len(vg.x1s) - k0].max()))
        return worst

    rng = np.random.default_rng(7)
    pts = [(rng.uniform(0, 0.9), rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
           for _ in range(60)]
    err_coarse = sup_err(vgrid)
    sub_c, sup_c = viscosity_residual(vgrid, inst.coeffs, inst.domain, pts,
                                      inst.grid.delay, inst.driver)
    res_coarse = max(sub_c, sup_c)

    # HJB_GRID with dx and dt halved; the x1 resolution is kept (the
    # transport CFL dominates it)
    fine_grid = HjbGrid(-3.0, 3.0, 401, -3.0, 3.0, 101, 400)
    fine = solve_hjb(inst.coeffs, inst.domain, fine_grid, inst.grid,
                     variant="Gtilde", linear_driver=inst.driver)
    err_fine = sup_err(fine)
    sub_f, sup_f = viscosity_residual(fine, inst.coeffs, inst.domain, pts,
                                      inst.grid.delay, inst.driver)
    res_fine = max(sub_f, sup_f)

    ok = (err_coarse <= 5e-2) and (err_fine < err_coarse) and \
        (res_fine <= 0.6 * res_coarse)
    report("4 hjb-correctness", ok,
           f"sup-err {err_coarse:.2e} <= 5e-2, refined {err_fine:.2e} (decreasing); "
           f"residual {res_coarse:.2e} -> {res_fine:.2e} (halving)")


# ---------------------------------------------------------------------------
# 5. duality inclusion
# ---------------------------------------------------------------------------

def test_criterion_5_duality_inclusion(lq_value_grid):
    inst, vgrid = lq_value_grid
    bundle, _, adj = solve_pipeline(inst, feedback_control(vgrid, inst.domain), 51, 20_000)
    rep = check_duality_inclusion(bundle, adj, vgrid, 51, n_path_sample=300)
    shifted = check_duality_inclusion(bundle, adj, vgrid, 51, n_path_sample=300,
                                      candidate_shift=0.5)
    ok = (rep.applicable and rep.identity_median_rel_err <= 0.05
          and rep.membership_pass_fraction >= 0.95
          and rep.coverage >= 0.9
          and (1.0 - shifted.membership_pass_fraction) > 0.5)
    report("5 duality-inclusion", ok,
           f"identity median {rep.identity_median_rel_err:.2%} <= 5%, "
           f"membership {rep.membership_pass_fraction:.1%} >= 95%, "
           f"shifted-candidate failure {1 - shifted.membership_pass_fraction:.1%} > 50%")


# ---------------------------------------------------------------------------
# 6. remainder and duality scalings
# ---------------------------------------------------------------------------

def test_criterion_6_scaling_laws():
    offsets = [0.2, 0.1, 0.05, 0.025]
    bil = make_coefficients("bilinear", lam=0.4, bx=0.1, sx=0.15, bxx1=0.8,
                            sxx2=0.4, clip=2.5)
    grid = TimeGrid(s=0.0, T=0.5, dt=0.01, delay_steps=10)
    bundle = simulate_smdde(bil, HistoryPath.constant(1.0, 10), 0.0, grid,
                            NoiseSource(61), 10_000)
    rem, _ = scaling_reports(bundle, bil, 10, offsets, p=2)
    xhat_slope = rem.slopes["sup_xhat"]
    eps_slopes = (rem.slopes["eps1_int"], rem.slopes["eps2_int"])

    inst = make_lq_instance()
    lq_bundle, sol, adj = solve_pipeline(inst, 0.1, 62, 6000)
    ytilde_slopes = []
    for ti in (20, 50, 80):
        _, rep = scaling_reports(lq_bundle, inst.coeffs, ti, offsets, solution=sol,
                                 adjoints=adj)
        ytilde_slopes.append(rep.slopes["abs_ytilde_t"])

    ok = (abs(xhat_slope - 2.0) <= 0.2 and all(s >= 2.5 for s in eps_slopes)
          and all(s >= 1.5 for s in ytilde_slopes))
    report("6 scaling-laws", ok,
           f"sup|Xhat|^2 slope {xhat_slope:.2f} = 2 +- 0.2, eps slopes "
           f"{eps_slopes[0]:.2f}/{eps_slopes[1]:.2f} >= 2.5, |Ytilde(t)| slopes "
           + "/".join(f"{s:.2f}" for s in ytilde_slopes) + " >= 1.5")


# ---------------------------------------------------------------------------
# 7. sufficient maximum principle
# ---------------------------------------------------------------------------

def test_criterion_7_sufficient_maximum_principle():
    inst = make_lq_instance(LQ_MP_PARAMS, dt=0.005, delay_steps=20)
    vgrid = solve_hjb(inst.coeffs, inst.domain, HJB_GRID, inst.grid)
    rule = feedback_control(vgrid, inst.domain)
    rep = check_sufficient_mp(*solve_pipeline(inst, rule, 71, 10_000), inst.coeffs,
                              inst.domain, seed=71)

    half = 0.5 * (inst.grid.s + inst.grid.T)

    def perturbed(t, x, x1):
        return np.asarray(rule(t, x, x1)) + (0.2 if t < half else 0.0)

    rp = check_sufficient_mp(*solve_pipeline(inst, perturbed, 71, 10_000), inst.coeffs,
                             inst.domain, seed=71)

    ok = rep.verdict and not rp.variational_ok
    report("7 sufficient-maximum-principle", ok,
           f"flags (convex={rep.convexity_ok}, linear={rep.phi_linear_ok}, "
           f"p3={rep.p3_zero_ok}, variational={rep.variational_ok}); perturbed "
           f"control flips variational flag to {rp.variational_ok}")


# ---------------------------------------------------------------------------
# 8. verification theorem and measure change
# ---------------------------------------------------------------------------

def test_criterion_8_verification_theorem(lq_value_grid):
    inst, vgrid = lq_value_grid
    control = feedback_control(vgrid, inst.domain)
    good = verify_optimality(inst, control, vgrid, NoiseSource(81), N_PATHS_MC)
    bad = verify_optimality(inst, inst.domain.upper, vgrid, NoiseSource(82),
                            N_PATHS_MC)
    gap_budget_good = 3 * good.j_se + 5e-2
    gap_budget_bad = 3 * bad.j_se + 5e-2
    verify_ok = (good.verdict and abs(good.gap) <= gap_budget_good
                 and not bad.verdict and bad.gap > gap_budget_bad)

    # measure-change corollary: two-route cost agreement and unit mean weight
    coeffs = make_coefficients("linear", lam=0.3, bx=0.2, s0=0.3, fx=-0.5,
                               fy=-0.1, fz=0.3)
    grid = TimeGrid(s=0.0, T=1.0, dt=0.01, delay_steps=10)
    ginst = Instance(coeffs=coeffs, grid=grid,
                     history=HistoryPath.constant(1.0, 10),
                     domain=ControlDomain(-1, 1, n_u=5),
                     driver=LinearDriver(fbar=-0.1, gbar=0.3))
    red = girsanov_reduce(ginst)
    bundle_p = simulate_smdde(coeffs, ginst.history, 0.0, grid, NoiseSource(83),
                              N_PATHS_MC)
    w = red.weights(bundle_p)
    w_se = w.std() / math.sqrt(w.size)
    sol_p = solve_bsde_lsmc(bundle_p, coeffs, RegressionBasis(degree=2))
    bundle_q = simulate_smdde(red.instance.coeffs, ginst.history, 0.0, grid,
                              NoiseSource(84), N_PATHS_MC)
    y_q, se_q = linear_driver_oracle(red.instance.coeffs, red.instance.driver,
                                     bundle_q)
    girsanov_ok = (abs(w.mean() - 1.0) <= 3 * w_se
                   and abs(sol_p.y_s - y_q) <= 3 * (sol_p.y_s_se + se_q))

    report("8 verification-theorem", verify_ok and girsanov_ok,
           f"optimal verdict {good.verdict} |J-V|={abs(good.gap):.2e}<="
           f"{gap_budget_good:.2e}; suboptimal verdict {bad.verdict} "
           f"gap={bad.gap:.2e}>{gap_budget_bad:.2e}; E[w]-1={w.mean()-1:.2e}"
           f"<=3se={3 * w_se:.2e}; route gap {abs(sol_p.y_s - y_q):.2e}"
           f"<={3 * (sol_p.y_s_se + se_q):.2e}")


# ---------------------------------------------------------------------------
# 9. determinism of the runner
# ---------------------------------------------------------------------------

LQ_DET_INI = """
[instance]
family = linear_quadratic
lambda = 0.5
s = 0.0
T = 1.0
dt = 0.01
delay_steps = 10
history = constant:0.6

[instance.params]
a = 0.1
bu = 0.5
sigma0 = 0.2
q = 0.15
r = 1.0
phi_quad = -0.15

[driver]
fbar = 0.0
gbar = 0.0

[numerics]
n_paths = 400
n_u = 21
nx = 61
nx1 = 31
n_t_pde = 60
dump_paths = 5

[control]
type = constant
value = 0.1

[scaling]
t_indices = 20
offsets = 0.2,0.1,0.05,0.025

[run]
seed = 42
"""

CMP_DET_INI = """
[instance]
family = linear
lambda = 0.0
s = 0.0
T = 0.1
dt = 0.001
delay_steps = 10
history = constant:1.0

[instance.params]
b0 = 1.0
bx2 = 1.0
sx = 0.2

[instance2]
family = linear
lambda = 0.0
s = 0.0
T = 0.1
dt = 0.001
delay_steps = 10
history = constant:1.0

[instance2.params]
bx2 = 1.0
sx = 0.2

[moments]
p = 2

[numerics]
n_paths = 300

[run]
seed = 3
"""

GIR_DET_INI = """
[instance]
family = linear
lambda = 0.3
s = 0.0
T = 0.5
dt = 0.01
delay_steps = 5
history = constant:1.0

[instance.params]
bx = 0.2
s0 = 0.3
fy = -0.1
fz = 0.3

[driver]
fbar = -0.1
gbar = 0.3

[numerics]
n_paths = 500

[run]
seed = 4
"""


def _dir_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_9_determinism(tmp_path):
    lq = tmp_path / "lq.ini"
    lq.write_text(LQ_DET_INI)
    cmp_ = tmp_path / "cmp.ini"
    cmp_.write_text(CMP_DET_INI)
    gir = tmp_path / "gir.ini"
    gir.write_text(GIR_DET_INI)
    jobs = {
        "simulate": (lq, []),
        "solve-bsde": (lq, []),
        "solve-hjb": (lq, []),
        "check-comparison": (cmp_, []),
        "check-moments": (cmp_, []),
        "check-mp": (lq, []),
        "check-duality": (lq, ["--set", "control.type=hjb"]),
        "check-scaling": (lq, []),
        "verify": (lq, ["--set", "control.type=hjb"]),
        "girsanov": (gir, []),
    }
    mismatches = []
    for sub, (cfg, extra) in jobs.items():
        hashes = []
        for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "8")):
            out = str(tmp_path / f"{sub}-{tag}")
            rc = cli_main([sub, "--config", str(cfg), "--out", out,
                           "--threads", threads] + extra)
            assert rc == 0, (sub, rc)
            hashes.append(_dir_hashes(out))
        if not (hashes[0] == hashes[1] == hashes[2]):
            mismatches.append(sub)
    report("9 determinism", not mismatches,
           "byte-identical outputs for all 10 subcommands across reruns and "
           f"thread counts {{1,8}}; mismatches: {mismatches or 'none'}")
