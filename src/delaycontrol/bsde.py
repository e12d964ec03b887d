"""Backward solution of the recursive cost by least-squares Monte Carlo.

The pair (Y, Z) solves

    -dY(t) = f(t, X, X1, X2, Y, Z, u) dt - Z(t) dW(t),
     Y(T)  = phi(X(T), X1(T)),

and the cost of the run is J = -Y(s).  Conditional expectations are
estimated by ridge-regularized polynomial regression on (x, x1); the
discrete delay x2 is excluded from the basis by default (the value
function is treated as independent of it) and can be re-admitted for
diagnostics.  A plain Monte Carlo oracle for drivers of the linear form
a + fbar(t) y + gbar(t) z provides an independent second route to Y(s).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import ConfigurationError, LinearDriver, derived_rng
from .smdde import TrajectoryBundle, path_array


# ---------------------------------------------------------------------------
# regression basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial basis in (x, x1) of total degree <= degree.

    ``eps_reg`` is the relative ridge weight; ``include_x2`` re-admits the
    discrete delay into the feature set for diagnostics.
    """

    degree: int = 2
    eps_reg: float = 1e-9
    include_x2: bool = False

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigurationError("basis degree must be >= 1")
        if self.eps_reg < 0:
            raise ConfigurationError("ridge weight must be >= 0")

    def design(self, x: np.ndarray, x1: np.ndarray, x2: Optional[np.ndarray] = None) -> np.ndarray:
        """(n, k) matrix of the intercept and every monomial of degree
        1..degree, lowest degree first; column-major, so each term is one
        contiguous column."""
        vars_: List[np.ndarray] = [x, x1]
        if self.include_x2:
            if x2 is None:
                raise ConfigurationError("basis includes x2 but none was supplied")
            vars_.append(x2)
        combos = [combo for deg in range(1, self.degree + 1)
                  for combo in combinations_with_replacement(range(len(vars_)), deg)]
        out = np.empty((len(x), 1 + len(combos)), order="F")
        out[:, 0] = 1.0
        for j, combo in enumerate(combos, start=1):
            term = vars_[combo[0]]
            for idx in combo[1:]:
                term = term * vars_[idx]
            out[:, j] = term
        return out


def _scaled_columns(design: np.ndarray, keep: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``design[:, keep] / scale``, one column at a time, in the column-major
    layout that expression yields: the layout fixes the order in which BLAS
    sums the terms of each fitted value."""
    A = np.empty((design.shape[0], scale.size), order="F")
    for j, col in enumerate(np.flatnonzero(keep)):
        np.divide(design[:, col], scale[j], out=A[:, j])
    return A


class RegressionFactor(NamedTuple):
    """What a ConditionalRegression keeps of its design besides the matrix
    itself: kept columns, column scale, Cholesky factor and final ridge."""

    keep: np.ndarray
    scale: np.ndarray
    factor: np.ndarray
    lam: float


class ConditionalRegression:
    """One time-step conditional-expectation operator.

    Fits ridge-regularized least squares on a fixed design matrix; columns
    with (numerically) zero variance beyond the intercept are dropped so
    degenerate states (e.g. the deterministic initial slice) reduce to a
    plain mean.
    """

    _COND_LIMIT = 1e12

    def __init__(self, design: np.ndarray, eps_reg: float):
        # column by column; max and min are exact in any order
        hi = np.array([col.max() for col in design.T])
        lo = np.array([col.min() for col in design.T])
        self.keep = np.ones(design.shape[1], dtype=bool)
        self.keep[1:] = (hi - lo)[1:] > 1e-12
        self.scale = np.maximum(np.maximum(np.abs(hi), np.abs(lo))[self.keep], 1.0)
        A = self.A = _scaled_columns(design, self.keep, self.scale)
        gram = A.T @ A
        lam = eps_reg * max(float(np.trace(gram)) / gram.shape[0], 1e-300)
        # the intercept is never penalized, so constant responses fit exactly
        penalty = np.eye(gram.shape[0])
        penalty[0, 0] = 0.0
        for attempt in range(6):
            try:
                mat = gram + lam * penalty
                cond = np.linalg.cond(mat)
                if cond > self._COND_LIMIT:
                    raise np.linalg.LinAlgError(f"condition number {cond:.2e}")
                self.factor = np.linalg.cholesky(mat)
                self.lam = lam
                if attempt:
                    warnings.warn(
                        f"rank-deficient regression; ridge increased to {lam:.2e}",
                        RuntimeWarning, stacklevel=2)
                return
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-12) * 100.0
        raise ConfigurationError("regression design is irreparably rank-deficient")

    @classmethod
    def from_factor(cls, design: np.ndarray, state: RegressionFactor) -> "ConditionalRegression":
        """The operator on ``design`` from the factor of an earlier fit on the
        same design: only the scaled matrix is rebuilt, with no Gram matrix,
        condition check or Cholesky step."""
        reg = cls.__new__(cls)
        reg.keep, reg.scale, reg.factor, reg.lam = state
        reg.A = _scaled_columns(design, reg.keep, reg.scale)
        return reg

    @property
    def state(self) -> RegressionFactor:
        return RegressionFactor(self.keep, self.scale, self.factor, self.lam)

    def fit_values(self, response: np.ndarray) -> np.ndarray:
        """Fitted conditional expectation of response at the design points."""
        # a strided response (a column of a row-major array) would be summed
        # in a different order by BLAS when only the intercept is kept
        rhs = self.A.T @ np.ascontiguousarray(response)
        coef = np.linalg.solve(self.factor.T, np.linalg.solve(self.factor, rhs))
        return self.A @ coef


# ---------------------------------------------------------------------------
# backward solver
# ---------------------------------------------------------------------------

@dataclass
class BackwardSolution:
    """Per-path (Y, Z) arrays on grid indices 0..n plus the initial value.

    Y[:, n] equals phi(X(T), X1(T)) exactly per path.  ``y_s`` is the mean
    of Y at the start; ``y_s_se`` is the Monte Carlo standard error taken
    from the pathwise integral representation of Y(s).  ``factors[i]`` is
    the step-i regression factor of the sweep in ``basis``, shared with the
    adjoint sweeps on the same bundle (see ``shared_factors``).
    """

    bundle: TrajectoryBundle
    Y: np.ndarray
    Z: np.ndarray
    y_s: float
    y_s_se: float
    basis: Optional[RegressionBasis] = None
    factors: Optional[List[RegressionFactor]] = None

    def shared_factors(self, bundle: TrajectoryBundle, basis: RegressionBasis):
        """The step factors if this solution was swept on ``bundle`` itself in
        an equal basis, else None (another sweep must fit afresh)."""
        if self.bundle is bundle and self.basis == basis:
            return self.factors
        return None


def _lipschitz_gate(coeffs, bundle: TrajectoryBundle, dt: float):
    n = bundle.grid.n_steps
    probe_steps = sorted({0, n // 2, max(n - 1, 0)})
    worst = 0.0
    for i in probe_steps:
        t, x, x1, x2, u = bundle.state(i)
        fy = coeffs.f_y(t, x, x1, x2, x * 0.0, x * 0.0, u)
        fz = coeffs.f_z(t, x, x1, x2, x * 0.0, x * 0.0, u)
        worst = max(worst, float(np.nanmax(np.abs(fy))), float(np.nanmax(np.abs(fz))))
    if worst * dt >= 1.0:
        raise ConfigurationError(
            f"step too large for driver Lipschitz constant ({worst:.3g} * dt >= 1)")


def backward_sweep(bundle: TrajectoryBundle, basis: RegressionBasis,
                   terminal: Sequence[np.ndarray], update: Callable,
                   factors: Optional[List[RegressionFactor]] = None):
    """The backward LSMC sweep of a system of BSDEs along ``bundle``.

    ``terminal`` holds each component's values at T on the valid rows.  At
    step i one regression on the state gives each component's continuation
    hat = E[next | state] and q = E[(next - hat) dW | state] / dt, and
    ``update(i, hats, qs)`` returns the components' values at step i.  The
    operator is fitted afresh, or rebuilt from ``factors[i]`` of an earlier
    sweep on this bundle in this basis.  Returns (values, qs, factors), the
    arrays NaN on diverged rows; q at step n copies step n - 1.
    """
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    ok = bundle.valid
    values = [path_array(bundle.n_paths, n + 1, np.nan) for _ in terminal]
    qs = [path_array(bundle.n_paths, n + 1, np.nan) for _ in terminal]
    used: List[RegressionFactor] = [None] * n
    for v, term in zip(values, terminal):
        v[ok, n] = term
    for i in range(n - 1, -1, -1):
        _, x, x1, x2, _ = bundle.state(i, ok)
        design = basis.design(x, x1, x2)
        if factors is None:
            reg = ConditionalRegression(design, basis.eps_reg)
        else:
            reg = ConditionalRegression.from_factor(design, factors[i])
        used[i] = reg.state
        dw = bundle.dW[ok, i]
        nxts = [v[ok, i + 1] for v in values]
        hats = [reg.fit_values(nxt) for nxt in nxts]
        q_hats = [reg.fit_values((nxt - hat) * dw / dt) for nxt, hat in zip(nxts, hats)]
        for v, q, new, q_hat in zip(values, qs, update(i, hats, q_hats), q_hats):
            v[ok, i] = new
            q[ok, i] = q_hat
    for q in qs:
        q[ok, n] = q[ok, n - 1]
    return values, qs, used


def solve_bsde_lsmc(bundle: TrajectoryBundle, coeffs, basis: RegressionBasis) -> BackwardSolution:
    """Backward LSMC sweep for the recursive cost.

    Per step: Z is regressed from martingale residuals
    (Y(t+dt) - E[Y(t+dt)|state]) * dW / dt, then Y(t) is the fitted
    continuation plus one implicit Picard correction of the driver (the
    contraction factor is Lipschitz * dt, so a single sweep is
    sub-tolerance).
    """
    if bundle.dW is None:
        raise ConfigurationError("bundle must store Brownian increments for the backward solve")
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    _lipschitz_gate(coeffs, bundle, dt)
    if bundle.diverged.all():
        raise ConfigurationError("all paths diverged; nothing to solve")
    ok = bundle.valid

    def update(i, hats, qs):
        t, x, x1, x2, u = bundle.state(i, ok)
        return [hats[0] + coeffs.f(t, x, x1, x2, hats[0], qs[0], u) * dt]

    _, xT, x1T, _, _ = bundle.state(n, ok)
    terminal = coeffs.phi(xT, x1T)
    (Y,), (Z,), factors = backward_sweep(bundle, basis, [terminal], update)
    y_s = float(np.mean(Y[ok, 0]))
    y_s_se = _pathwise_se(bundle, coeffs, Y, Z, ok)
    return BackwardSolution(bundle=bundle, Y=Y, Z=Z, y_s=y_s, y_s_se=y_s_se,
                            basis=basis, factors=factors)


def _pathwise_se(bundle: TrajectoryBundle, coeffs, Y: np.ndarray, Z: np.ndarray,
                 ok) -> float:
    """Standard error of Y(s) from the pathwise representation
    phi(X_T, X1_T) + sum_i f(.) dt, using the solved (Y, Z) in the driver."""
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    _, xT, x1T, _, _ = bundle.state(n, ok)
    total = coeffs.phi(xT, x1T).astype(float)
    for i in range(n):
        t, x, x1, x2, u = bundle.state(i, ok)
        total += coeffs.f(t, x, x1, x2, Y[ok, i], Z[ok, i], u) * dt
    return float(np.std(total) / np.sqrt(total.size))


def cost_functional_J(solution: BackwardSolution) -> float:
    """Recursive cost of the run: J = -Y(s)."""
    return -solution.y_s


# ---------------------------------------------------------------------------
# independent oracle for linear drivers
# ---------------------------------------------------------------------------

def assert_linear_driver(coeffs, driver: LinearDriver, seed: int = 0, n_probe: int = 64,
                         tol: float = 1e-8):
    """Check f(t,x,x1,x2,y,z,u) == f(t,...,0,0,u) + fbar(t) y + gbar(t) z
    on random probes; raise if the driver is not of the linear form."""
    rng = derived_rng(seed, 202)
    pts = rng.normal(0.0, 2.0, size=(n_probe, 7))
    t = np.abs(pts[:, 0])
    x, x1, x2, y, z, u = (pts[:, i] for i in range(1, 7))
    full = coeffs.f(t, x, x1, x2, y, z, u)
    linear = coeffs.f(t, x, x1, x2, 0.0, 0.0, u) + driver.fbar_at(t) * y + driver.gbar_at(t) * z
    err = float(np.max(np.abs(full - linear)))
    if err > tol * (1.0 + float(np.max(np.abs(full)))):
        raise ConfigurationError(
            f"oracle inapplicable: driver deviates from the linear form by {err:.3e}")


def linear_driver_oracle(coeffs, driver: LinearDriver, bundle: TrajectoryBundle,
                         ) -> Tuple[float, float]:
    """Plain Monte Carlo estimate of Y(s) for a linear driver.

    Y(s) = E[ int_s^T e^{F(t)} a(t, X, X1, X2, u) dt + e^{F(T)} phi(X(T), X1(T)) ],
    F(t) = int_s^t fbar(r) dr, using forward paths only.  When gbar is
    nonzero the expectation is under the shifted measure, so the supplied
    bundle must have been simulated with the Girsanov-shifted drift
    b + sigma*gbar (see ``connect.girsanov_reduce``).

    Returns (estimate, standard error).
    """
    assert_linear_driver(coeffs, driver, seed=0)
    grid = bundle.grid
    n, dt = grid.n_steps, grid.dt
    times = grid.times()
    fbar = driver.fbar_at(times)
    cumF = np.concatenate([[0.0], np.cumsum(0.5 * (fbar[1:] + fbar[:-1]) * dt)])
    disc = np.exp(cumF)
    ok = bundle.valid
    _, xT, x1T, _, _ = bundle.state(n, ok)
    total = disc[n] * coeffs.phi(xT, x1T).astype(float)
    # trapezoid in time for the running-cost integral
    for i in range(n + 1):
        w = dt if 0 < i < n else 0.5 * dt
        total += w * disc[i] * coeffs.a_part(*bundle.state(i, ok))
    est = float(np.mean(total))
    se = float(np.std(total) / np.sqrt(total.size))
    return est, se
