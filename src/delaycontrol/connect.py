"""Headline cross-checks: adjoint/value-function duality, verification of
candidate controls, and the measure-change reduction.

* duality: along an optimal trajectory the normalized adjoint ptilde(t)
  belongs to the one-sided x-superdifferential of the value function at
  (t, X(t), X1(t)); where V is numerically smooth the subdifferential is
  the singleton {V_x} and ptilde must match it (the smooth-case identity).
* verification: grid-extracted jets (theta, p, q, P) along a candidate
  trajectory certify optimality when the jet lies in the superdifferential
  and the expected integral of theta - Gtilde(...) is nonpositive; the
  report also compares the independently estimated cost J with V.
* measure change: for drivers a + fbar*y + gbar*z, shifting the
  drift by sigma*gbar removes the z term; Radon-Nikodym weights translate
  expectations between the two measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from .core import (ConfigurationError, Instance, LinearDriver, derived_rng,
                   eval_G, mc_estimate, x1_weights)
from .bsde import assert_linear_driver, linear_driver_oracle
from .hjb import GridValueFunction, Jet, jet_membership, jets_along
from .smdde import NoiseSource, TrajectoryBundle, simulate_smdde

# jet membership in both checks: grid-edge margin in cells, and slack
MEMBERSHIP_RADIUS = 3
MEMBERSHIP_TOL = 0.1


def start_state(instance: Instance) -> Tuple[float, float]:
    """(x, x1) seen by the value function at the start time."""
    samples, grid = instance.history.samples, instance.grid
    return float(samples[-1]), float(samples @ x1_weights(grid.m, instance.coeffs.lam, grid.dt))


# ---------------------------------------------------------------------------
# duality inclusion
# ---------------------------------------------------------------------------

class DualityTimeRecord(NamedTuple):  # one row of duality_detail.csv
    t: float
    n_points: int
    n_skipped: int
    membership_pass_fraction: float
    smooth_fraction: float
    median_identity_rel_err: float


@dataclass
class DualityReport:
    """Per-time-sample duality records along the candidate trajectory.

    ``applicable`` reflects the reduction-hypothesis gate max|p3| <= tol:
    when it fails the theorem's premise is absent and the records are
    informational only.  The identity statistics double as the sub-jet
    check: at numerically smooth points the subdifferential is the
    singleton {V_x}, so equality with ptilde is what "nonempty sub-jet
    implies equality" reduces to on a grid.
    """

    applicable: bool
    max_abs_p3: float
    p3_tol: float
    records: List[DualityTimeRecord] = field(default_factory=list)
    coverage: float = 0.0
    membership_pass_fraction: float = 0.0
    identity_median_rel_err: float = float("nan")

    def kv_lines(self):
        yield from (
            f"applicable={str(self.applicable).lower()}",
            f"max_abs_p3={self.max_abs_p3:.6e}",
            f"p3_tol={self.p3_tol:.6e}",
            f"coverage={self.coverage:.6f}",
            f"membership_pass_fraction={self.membership_pass_fraction:.6f}",
            f"identity_median_rel_err={self.identity_median_rel_err:.6e}",
            # the x1-slope analogue of the inclusion is out of scope: the
            # derivation hinges on the difference path vanishing before the
            # restart time, which has no counterpart for the x1 slot
            "x1_slope_inclusion=not_checked",
        )


DUALITY_TIME_SAMPLES = 16  # check_duality_inclusion reads every n//16-th step
KINK_REL_TOL = 0.2


def check_duality_inclusion(bundle: TrajectoryBundle, adjoints, vgrid: GridValueFunction,
                            seed: int, *, n_path_sample: int = 200,
                            candidate_shift: float = 0.0) -> DualityReport:
    """Test the superdifferential inclusion and the smooth-case identity.

    Reads the adjoints solved along ``bundle``, gates on max|p3|, and at
    sampled (t, path) points checks (a) super-side slope membership of
    ptilde + candidate_shift and (b) |ptilde - V_x| at points where the
    kink detector is quiet.  Points outside the grid interior are skipped
    and counted.
    """
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    applicable, tol_p3 = adjoints.p3_gate(dt)
    rng = derived_rng(seed, 606)
    sample = bundle.sample_valid(rng, n_path_sample)

    records: List[DualityTimeRecord] = []
    total_points = 0
    total_skipped = 0
    total_pass = 0
    medians: List[float] = []
    for i in range(0, n, max(n // DUALITY_TIME_SAMPLES, 1)):
        t, xs, x1s, _, _ = bundle.state(i, sample)
        pts = adjoints.normalized(sample, i)[0] + candidate_shift
        inside = vgrid.is_interior(xs, x1s, margin=MEMBERSHIP_RADIUS)
        x, x1, cand = xs[inside], x1s[inside], pts[inside]
        n_checked = x.size
        n_skipped = xs.size - n_checked
        ok, _ = jet_membership(vgrid, (t, x, x1), cand, side="super",
                               radius=MEMBERSHIP_RADIUS, tol=MEMBERSHIP_TOL,
                               x_slope_only=True)
        n_pass = int(np.sum(ok))
        vx = vgrid.value_x(t, x, x1)
        smooth = vgrid.kink_measure(t, x, x1) <= KINK_REL_TOL * (1.0 + np.abs(vx))
        n_smooth = int(np.sum(smooth))
        rels = np.abs(cand[smooth] - candidate_shift - vx[smooth]) / (1.0 + np.abs(vx[smooth]))
        total_points += n_checked
        total_skipped += n_skipped
        total_pass += n_pass
        med = float(np.median(rels)) if rels.size else float("nan")
        if rels.size:
            medians.append(med)
        records.append(DualityTimeRecord(
            t=float(t), n_points=n_checked, n_skipped=n_skipped,
            membership_pass_fraction=n_pass / n_checked if n_checked else float("nan"),
            smooth_fraction=n_smooth / n_checked if n_checked else float("nan"),
            median_identity_rel_err=med))
    coverage = total_points / max(total_points + total_skipped, 1)
    return DualityReport(
        applicable=applicable, max_abs_p3=adjoints.max_abs_p3, p3_tol=tol_p3,
        records=records, coverage=coverage,
        membership_pass_fraction=total_pass / max(total_points, 1),
        identity_median_rel_err=float(np.median(medians)) if medians else float("nan"))


# ---------------------------------------------------------------------------
# verification of a candidate control
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Verdict and evidence for a candidate control.

    ``integral_stat`` estimates the expected integral of
    theta - Gtilde(..., -V, -p, -P, -q) along the candidate trajectory
    (nonpositive, up to noise and grid budget, for an optimal pair);
    ``j_candidate`` is the independently estimated cost, placed next to
    the grid value at the start state.
    """

    verdict: bool
    integral_stat: float
    integral_se: float
    budget: float
    membership_pass_fraction: float
    membership_required: float
    j_candidate: float
    j_se: float
    v_start: float
    gap: float
    coverage: float
    per_step: List[Tuple[float, float]] = field(default_factory=list)

    def kv_lines(self):
        yield from (
            f"verdict={str(self.verdict).lower()}",
            f"integral_stat={self.integral_stat:.9g}",
            f"integral_se={self.integral_se:.9g}",
            f"budget={self.budget:.9g}",
            f"membership_pass_fraction={self.membership_pass_fraction:.6f}",
            f"membership_required={self.membership_required:.6f}",
            f"j_candidate={self.j_candidate:.9g}",
            f"j_se={self.j_se:.9g}",
            f"v_start={self.v_start:.9g}",
            f"gap={self.gap:.9g}",
            f"coverage={self.coverage:.6f}",
        )


MEMBERSHIP_REQUIRED = 0.95  # fraction of verify_optimality's sampled jets
N_MEMBERSHIP_SAMPLE = 400


def verify_optimality(instance: Instance, control, vgrid: GridValueFunction,
                      noise: NoiseSource, n_paths: int, *,
                      budget: float = 5e-2) -> VerificationReport:
    """Run the verification-theorem checks for a candidate control.

    Requires the instance driver in the z-free linear form (apply
    ``girsanov_reduce`` first otherwise); an ``f`` that does not have it is
    refused by the gate of ``linear_driver_oracle``.  The verdict is true
    iff the integral statistic is nonpositive within 3 standard errors plus
    the grid budget AND jet membership holds at the required fraction of
    sampled points.  Aborts if fewer than half the trajectory points stay
    inside the grid interior.

    Membership is tested at min(12, n) sampled steps, each time on the same
    paths: the first ``N_MEMBERSHIP_SAMPLE // min(12, n)`` of the
    ``N_MEMBERSHIP_SAMPLE`` sampled paths (33 of 400), skipping points
    within ``MEMBERSHIP_RADIUS`` cells of the grid edge.  It reads the jets
    that the integrand of the step computed.
    """
    if instance.driver is None:
        raise ConfigurationError("verification needs the linear-driver form; none declared")
    if instance.driver.gbar != 0.0:
        raise ConfigurationError(
            "driver has a z term; apply the measure-change reduction first")
    coeffs = instance.coeffs
    grid = instance.grid
    bundle = simulate_smdde(coeffs, instance.history, control, grid, noise, n_paths)
    n, dt = grid.n_steps, grid.dt
    ok = ~bundle.diverged
    rng = derived_rng(noise.seed, 707)
    sample = bundle.sample_valid(rng, N_MEMBERSHIP_SAMPLE)
    steps = set(rng.choice(n, size=min(12, n), replace=False).tolist())
    paths = sample[: max(N_MEMBERSHIP_SAMPLE // len(steps), 1)]

    integrand = np.zeros(bundle.n_paths)
    n_inside = n_pass = n_checked = 0
    per_step: List[Tuple[float, float]] = []
    for i in range(n):
        t, x, x1, x2, u = bundle.state(i)
        theta, p, q, P, v0, inside = jets_along(vgrid, t, x, x1)
        if i in steps:  # membership of the step's own jets on the sampled paths
            at = paths[vgrid.is_interior(x[paths], x1[paths], margin=MEMBERSHIP_RADIUS)]
            good, _ = jet_membership(vgrid, (t, x[at], x1[at]),
                                     Jet(theta[at], p[at], q[at], P[at]), side="super",
                                     radius=MEMBERSHIP_RADIUS, tol=MEMBERSHIP_TOL)
            n_checked += at.size
            n_pass += int(np.sum(good))
        inside &= ok
        g = eval_G("Gtilde", t, x, x1, x2, u, -v0, -p, -P, -q,
                   coeffs, grid.delay, instance.driver)
        step_term = np.where(inside, theta - g, 0.0)
        integrand += step_term * dt
        n_inside += int(np.sum(inside))
        per_step.append((float(t), float(np.mean(step_term[inside])) if np.any(inside) else 0.0))
    coverage = n_inside / max(n * int(np.count_nonzero(ok)), 1)
    if coverage < 0.5:
        raise ConfigurationError(
            f"trajectory covers only {coverage:.1%} of the grid interior; "
            "enlarge the grid or move the start state")
    stat, stat_se = mc_estimate(integrand[ok])
    membership_frac = n_pass / max(n_checked, 1)

    j_est, j_se = linear_driver_oracle(coeffs, instance.driver, bundle)
    j_candidate = -j_est
    x0, x10 = start_state(instance)
    v_start = float(vgrid.value(grid.s, x0, x10))
    verdict = (stat <= 3.0 * stat_se + budget) and (membership_frac >= MEMBERSHIP_REQUIRED)
    return VerificationReport(
        verdict=verdict, integral_stat=stat, integral_se=stat_se, budget=budget,
        membership_pass_fraction=membership_frac, membership_required=MEMBERSHIP_REQUIRED,
        j_candidate=j_candidate, j_se=j_se, v_start=v_start, gap=j_candidate - v_start,
        coverage=coverage, per_step=per_step)


# ---------------------------------------------------------------------------
# measure-change reduction
# ---------------------------------------------------------------------------

@dataclass
class GirsanovReduction:
    """Transformed (z-free) instance plus the change-of-measure weights.

    ``weights(bundle)`` maps a bundle simulated under the ORIGINAL
    instance to per-path Radon-Nikodym factors
    exp( int g dW - 0.5 int g^2 dr ), so weighted expectations under the
    original measure equal plain expectations under the shifted one.
    """

    instance: Instance
    weights: Callable[[TrajectoryBundle], np.ndarray]


def girsanov_reduce(instance: Instance) -> GirsanovReduction:
    """Shift the drift by sigma*gbar and drop the z term from the driver.

    The driver's gbar must be finite; the transformed instance satisfies the
    z-free linear form required by the verification theorem.  Without a
    z-term (no driver, or gbar == 0.0) the instance is kept as it is, so
    its coefficients keep the registry's facts, and every weight is 1.0.
    """
    driver = instance.driver or LinearDriver()
    gbar = driver.gbar

    def weights(bundle: TrajectoryBundle) -> np.ndarray:
        if bundle.dW is None:
            raise ConfigurationError("weight computation needs stored increments")
        n, dt = bundle.grid.n_steps, bundle.grid.dt
        g_on_grid = np.full(n, gbar)
        # row-major, as a gemv over the column-major increments sums each
        # path's terms in another order
        dW = np.ascontiguousarray(bundle.dW)
        expo = dW @ g_on_grid - 0.5 * float(np.sum(g_on_grid ** 2)) * dt
        return np.exp(expo)

    if gbar == 0.0:
        return GirsanovReduction(instance=replace(instance), weights=weights)
    assert_linear_driver(instance.coeffs, driver)
    if not np.isfinite(gbar):
        raise ConfigurationError("gbar must be finite (bounded deterministic) on [s, T]")
    c = instance.coeffs

    def shift(fn, dfn_sigma):
        def wrapped(t, x, x1, x2, u):
            return fn(t, x, x1, x2, u) + dfn_sigma(t, x, x1, x2, u) * gbar
        return wrapped

    def at_z0(fn):
        def wrapped(t, x, x1, x2, y, z, u):
            return fn(t, x, x1, x2, y, 0.0 * np.asarray(z), u)
        return wrapped

    new_coeffs = replace(
        c, name=c.name + "+measure-shift", b=shift(c.b, c.sigma), f=at_z0(c.f), f_z=0.0,
        **{"b" + s: shift(partial(c.slope, "b" + s), partial(c.slope, "sigma" + s))
           for s in ("_x", "_x1", "_x2")},
        **{slot: at_z0(partial(c.slope, slot)) for slot in ("f_x", "f_x1", "f_x2", "f_y")})
    new_instance = Instance(coeffs=new_coeffs, grid=instance.grid, history=instance.history,
                            domain=instance.domain, driver=LinearDriver(fbar=driver.fbar))
    return GirsanovReduction(instance=new_instance, weights=weights)
