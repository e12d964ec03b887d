"""Backward solution of the recursive cost by least-squares Monte Carlo.

The pair (Y, Z) solves

    -dY(t) = f(t, X, X1, X2, Y, Z, u) dt - Z(t) dW(t),
     Y(T)  = phi(X(T), X1(T)),

and the cost of the run is J = -Y(s).  Conditional expectations are
estimated by ridge-regularized polynomial regression on (x, x1), the
value function being treated as independent of the discrete delay x2.
A plain Monte Carlo oracle for drivers of the linear form
a + fbar y + gbar z provides an independent second route to Y(s).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import ConfigurationError, LinearDriver, derived_rng, mc_estimate
from .smdde import TrajectoryBundle


# ---------------------------------------------------------------------------
# regression basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial basis in (x, x1) of total degree <= degree.

    ``eps_reg`` is the relative ridge weight.
    """

    degree: int = 2
    eps_reg: float = 1e-9

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigurationError("basis degree must be >= 1")
        if self.eps_reg < 0:
            raise ConfigurationError("ridge weight must be >= 0")

    def design(self, x: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """(n, k) matrix of the intercept and every monomial of degree
        1..degree, lowest degree first; column-major, so each term is one
        contiguous column."""
        combos = [combo for deg in range(1, self.degree + 1)
                  for combo in combinations_with_replacement((x, x1), deg)]
        out = np.empty((len(x), 1 + len(combos)), order="F")
        out[:, 0] = 1.0
        for j, combo in enumerate(combos, start=1):
            term = combo[0]
            for var in combo[1:]:
                term = term * var
            out[:, j] = term
        return out


def _scaled_columns(design: np.ndarray, keep: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``design[:, keep] / scale`` in the column-major layout that expression
    yields: the layout fixes the order in which BLAS sums the terms of each
    fitted value.  A design whose columns are all kept is divided as it is:
    a second design-sized array per fit made one fit at 8000 rows about
    three times slower (2-CPU host, numpy 2.4.6).  A ``(K, k)`` scale divides
    each of K equal row blocks by its own row."""
    A = np.empty((design.shape[0], scale.shape[-1]), order="F")
    kept = design if keep.all() else design[:, keep]
    if scale.ndim == 1:
        np.divide(kept, scale, out=A)
    else:
        np.divide(_blocks(kept, len(scale)), scale[:, :, None], out=_blocks(A, len(scale)))
    return A


def _blocks(M: np.ndarray, k: int) -> np.ndarray:
    """``(k, cols, rows)``: the transposes of k equal row blocks of M, as a
    view (a split of the row axis)."""
    return M.T.reshape(M.shape[1], k, -1).transpose(1, 0, 2)


class RegressionFactor(NamedTuple):
    """What a ConditionalRegression keeps of its design besides the matrix
    itself: kept columns, column scale, Cholesky factor and final ridge."""

    keep: np.ndarray
    scale: np.ndarray
    factor: np.ndarray
    lam: float


def _first_ridge(gram: np.ndarray, eps_reg: float) -> float:
    return eps_reg * max(float(np.trace(gram)) / gram.shape[0], 1e-300)


class ConditionalRegression:
    """One time-step conditional-expectation operator.

    Fits ridge-regularized least squares on a fixed design matrix; columns
    with (numerically) zero variance beyond the intercept are dropped so
    degenerate states (e.g. the deterministic initial slice) reduce to a
    plain mean.

    With ``blocks`` = K > 1 the design's rows are K equal blocks, and the
    operator is K independent ones, each bit for bit the operator of its
    block alone: ``state[k]`` is block k's factor, and ``fit_values`` fits
    each block's rows of a response on its own operator.  The fixed cost
    of a fit is paid once for all blocks, not once per block.  The column
    ranges and the scaling are one call each over every row.  Blocks that
    keep the same columns (all of them, unless a column is flat in some
    blocks only) share one scaled matrix, and their Gram matrices,
    condition checks, Cholesky factors and solves are one call each on the
    stack of the blocks' matrices: numpy's stacked BLAS and LAPACK calls
    give each matrix the bits of its own call.  A block whose ridge must
    grow escalates on its own, with its own warning.
    """

    _COND_LIMIT = 1e12

    def __init__(self, design: np.ndarray, eps_reg: float, blocks: int = 1):
        self.blocks = blocks
        if blocks > 1:
            escalated = self._fit_blocks(design, eps_reg)
        else:
            # max and min are exact in any order
            hi = design.max(axis=0)
            lo = design.min(axis=0)
            self.keep = np.ones(design.shape[1], dtype=bool)
            self.keep[1:] = (hi - lo)[1:] > 1e-12
            self.scale = np.maximum(np.maximum(np.abs(hi), np.abs(lo))[self.keep], 1.0)
            A = self.A = _scaled_columns(design, self.keep, self.scale)
            gram = A.T @ A
            self.factor, self.lam, again = self._factor(gram, _first_ridge(gram, eps_reg))
            escalated = [self.lam] if again else []
        for lam in escalated:
            warnings.warn(f"rank-deficient regression; ridge increased to {lam:.2e}",
                          RuntimeWarning, stacklevel=2)

    @classmethod
    def _factor(cls, gram: np.ndarray, lam: float) -> Tuple[np.ndarray, float, bool]:
        """Cholesky factor of ``gram`` plus the ridge ``lam`` on every column
        but the intercept, the ridge it took, and whether that ridge grew: by
        100 per attempt, up to six, while the condition number exceeds the
        limit or the factor fails."""
        # the intercept is never penalized, so constant responses fit exactly
        penalty = np.eye(gram.shape[0])
        penalty[0, 0] = 0.0
        for attempt in range(6):
            try:
                mat = gram + lam * penalty
                # np.linalg.cond: s[0] / s[-1], and inf for a singular matrix
                s = np.linalg.svd(mat, compute_uv=False)
                cond = s[0] / s[-1] if s[-1] else np.inf
                if cond > cls._COND_LIMIT:
                    raise np.linalg.LinAlgError(f"condition number {cond:.2e}")
                return np.linalg.cholesky(mat), lam, attempt > 0
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-12) * 100.0
        raise ConfigurationError("regression design is irreparably rank-deficient")

    def _fit_blocks(self, design: np.ndarray, eps_reg: float) -> List[float]:
        """Fit the blocks' factors and the stacks ``fit_values`` reads;
        returns the final ridge of each block whose ridge grew, in block
        order."""
        K = self.blocks
        cols = _blocks(design, K)
        hi, lo = cols.max(axis=2), cols.min(axis=2)
        keep = np.ones(hi.shape, dtype=bool)
        keep[:, 1:] = (hi - lo)[:, 1:] > 1e-12
        big = np.maximum(np.abs(hi), np.abs(lo))
        n = design.shape[0] // K
        groups = ([slice(0, K)] if (keep == keep[0]).all()
                  else [slice(k, k + 1) for k in range(K)])
        self._states, self._stacks, escalated = [], [], []
        for rows in groups:
            kept = keep[rows.start]
            scale = np.maximum(big[rows][:, kept], 1.0)
            A3 = _blocks(_scaled_columns(design[rows.start * n : rows.stop * n], kept, scale),
                         len(scale))
            grams = A3 @ A3.mT
            lams = [_first_ridge(gram, eps_reg) for gram in grams]
            factors = np.empty_like(grams)
            done = np.zeros(len(grams), dtype=bool)
            if len(grams) > 1:  # one stacked first attempt; what it leaves retries per block
                penalty = np.eye(grams.shape[1])
                penalty[0, 0] = 0.0
                mats = grams + np.array(lams)[:, None, None] * penalty
                try:
                    s = np.linalg.svd(mats, compute_uv=False)
                    cond = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf),
                                     where=s[:, -1] != 0.0)
                    done = ~(cond > self._COND_LIMIT)
                    factors[done] = np.linalg.cholesky(mats[done])
                except np.linalg.LinAlgError:
                    done[:] = False
            for g in np.flatnonzero(~done):
                factors[g], lams[g], again = self._factor(grams[g], lams[g])
                if again:
                    escalated.append(lams[g])
            self._stacks.append((rows, A3, factors))
            self._states += [RegressionFactor(kept, *fit) for fit in zip(scale, factors, lams)]
        return escalated

    @classmethod
    def from_factor(cls, design: np.ndarray, state: RegressionFactor) -> "ConditionalRegression":
        """The operator on ``design`` from the factor of an earlier fit on the
        same design: only the scaled matrix is rebuilt, with no Gram matrix,
        condition check or Cholesky step."""
        reg = cls.__new__(cls)
        reg.blocks = 1
        reg.keep, reg.scale, reg.factor, reg.lam = state
        reg.A = _scaled_columns(design, reg.keep, reg.scale)
        return reg

    @property
    def state(self):
        """The fit's RegressionFactor; the list of the blocks' ones when
        ``blocks`` > 1."""
        if self.blocks > 1:
            return self._states
        return RegressionFactor(self.keep, self.scale, self.factor, self.lam)

    def fit_values(self, response: np.ndarray) -> np.ndarray:
        """Fitted conditional expectation of response at the design points."""
        # a strided response (a column of a row-major array) would be summed
        # in a different order by BLAS when only the intercept is kept
        response = np.ascontiguousarray(response)
        if self.blocks > 1:
            r = response.reshape(self.blocks, -1, 1)
            out = np.empty(r.shape)
            for rows, A3, factors in self._stacks:
                coef = np.linalg.solve(factors.mT, np.linalg.solve(factors, A3 @ r[rows]))
                np.matmul(A3.mT, coef, out=out[rows])
            return out.reshape(-1)
        rhs = self.A.T @ response
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
    from the pathwise integral representation of Y(s), computed with
    ``coeffs`` on its first read.  ``factors[i]`` is the step-i regression
    factor of the sweep in ``basis``, shared with the adjoint sweeps on the
    same bundle (see ``shared_factors``).
    """

    bundle: TrajectoryBundle
    Y: np.ndarray
    Z: np.ndarray
    y_s: float
    basis: RegressionBasis
    factors: List[RegressionFactor]
    coeffs: object

    @cached_property
    def y_s_se(self) -> float:
        return _pathwise_se(self.bundle, self.coeffs, self.Y, self.Z, self.bundle.valid)

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
        fy = coeffs.slope("f_y", t, x, x1, x2, x * 0.0, x * 0.0, u)
        fz = coeffs.slope("f_z", t, x, x1, x2, x * 0.0, x * 0.0, u)
        worst = max(worst, float(np.nanmax(np.abs(fy))), float(np.nanmax(np.abs(fz))))
    if worst * dt >= 1.0:
        raise ConfigurationError(
            f"step too large for driver Lipschitz constant ({worst:.3g} * dt >= 1)")


def backward_sweep(bundle: TrajectoryBundle, basis: RegressionBasis,
                   terminal: Sequence[np.ndarray], update: Callable,
                   factors: Optional[List[RegressionFactor]] = None,
                   q_rows: Optional[Sequence[Optional[int]]] = None, blocks: int = 1):
    """The backward LSMC sweep of a system of BSDEs along ``bundle``.

    ``terminal`` holds each component's values at T on the valid rows.  At
    step i one regression on the state gives each component's continuation
    hat = E[next | state] and q = E[(next - hat) dW | state] / dt, and
    ``update(i, hats, qs)`` returns the components' values at step i.  The
    operator is fitted afresh, or rebuilt from ``factors[i]`` of an earlier
    sweep on this bundle in this basis.  Returns (values, qs, factors), the
    arrays NaN on diverged rows; q at step n copies step n - 1.  A
    component's q is stored on its first ``q_rows[j]`` paths only (all when
    None), though every step fits it on all of them.

    With ``blocks`` = K > 1 the bundle's rows are K equal blocks stepped on
    the increments of one, which ``bundle.dW`` holds once, and each step
    fits the blocks apart, on one grouped operator (see
    ``ConditionalRegression``).  The values are then stored at step 0 only
    (one column; two roll in the sweep) and q nowhere.
    """
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    ok = bundle.valid
    ok_dw = ok if isinstance(ok, slice) else ok[: bundle.dW.shape[0]]
    cols = n + 1 if blocks == 1 else 2  # step i in column i % cols
    values = [bundle.sweep_array(cols)[0] for _ in terminal]
    q_rows = (q_rows or [None] * len(terminal)) if blocks == 1 else [0] * len(terminal)
    qs = [bundle.sweep_array(n + 1, rows) for rows in q_rows]
    used: List[RegressionFactor] = [None] * n
    for v, term in zip(values, terminal):
        v[ok, n % cols] = term
    for i in range(n - 1, -1, -1):
        _, x, x1, _, _ = bundle.state(i, ok)
        design = basis.design(x, x1)
        if factors is None:
            reg = ConditionalRegression(design, basis.eps_reg, blocks)
        else:
            reg = ConditionalRegression.from_factor(design, factors[i])
        used[i] = reg.state
        dw = bundle.dW[ok_dw, i]
        nxts = [v[ok, (i + 1) % cols] for v in values]
        hats = [reg.fit_values(nxt) for nxt in nxts]
        q_hats = [reg.fit_values(((nxt - hat).reshape(blocks, -1) * dw).reshape(-1) / dt)
                  for nxt, hat in zip(nxts, hats)]
        for v, (q, kept, count), new, q_hat in zip(values, qs, update(i, hats, q_hats), q_hats):
            v[ok, i % cols] = new
            q[kept, i] = q_hat[:count]
    for q, kept, _ in qs:
        q[kept, n] = q[kept, n - 1]
    return [v if blocks == 1 else v[:, :1] for v in values], [q for q, _, _ in qs], used


def solve_bsde_lsmc(bundle: TrajectoryBundle, coeffs, basis: RegressionBasis,
                    blocks: int = 1) -> BackwardSolution:
    """Backward LSMC sweep for the recursive cost.

    Per step: Z is regressed from martingale residuals
    (Y(t+dt) - E[Y(t+dt)|state]) * dW / dt, then Y(t) is the fitted
    continuation plus one implicit Picard correction of the driver (the
    contraction factor is Lipschitz * dt, so a single sweep is
    sub-tolerance).

    With ``blocks`` = K > 1 the bundle's rows are K equal blocks of paths
    stepped on the same increments, which ``bundle.dW`` holds once, for one
    block.  Each block's Y is then bit for bit its own solve's, from one
    sweep (see ``backward_sweep``), and is stored at s only, the one column
    a first-order expansion at s reads: Y has one column, Z no row, ``y_s``
    is the mean over every block and ``factors[i]`` lists the blocks'
    factors.
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
    (Y,), (Z,), factors = backward_sweep(bundle, basis, [terminal], update, blocks=blocks)
    return BackwardSolution(bundle=bundle, Y=Y, Z=Z, y_s=float(np.mean(Y[ok, 0])),
                            basis=basis, factors=factors, coeffs=coeffs)


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
    return mc_estimate(total)[1]


def cost_functional_J(solution: BackwardSolution) -> float:
    """Recursive cost of the run: J = -Y(s)."""
    return -solution.y_s


# ---------------------------------------------------------------------------
# independent oracle for linear drivers
# ---------------------------------------------------------------------------

def assert_linear_driver(coeffs, driver: LinearDriver, seed: int = 0, n_probe: int = 64,
                         tol: float = 1e-8):
    """Check f(t,x,x1,x2,y,z,u) == f(t,...,0,0,u) + fbar y + gbar z
    on random probes; raise if the driver is not of the linear form."""
    rng = derived_rng(seed, 202)
    pts = rng.normal(0.0, 2.0, size=(n_probe, 7))
    t = np.abs(pts[:, 0])
    x, x1, x2, y, z, u = (pts[:, i] for i in range(1, 7))
    full = coeffs.f(t, x, x1, x2, y, z, u)
    linear = coeffs.a_part(t, x, x1, x2, u) + driver.fbar * y + driver.gbar * z
    err = float(np.max(np.abs(full - linear)))
    if err > tol * (1.0 + float(np.max(np.abs(full)))):
        raise ConfigurationError(
            f"oracle inapplicable: driver deviates from the linear form by {err:.3e}")


def linear_driver_oracle(coeffs, driver: LinearDriver, bundle: TrajectoryBundle,
                         ) -> Tuple[float, float]:
    """Plain Monte Carlo estimate of Y(s) for a linear driver.

    Y(s) = E[ int_s^T e^{F(t)} a(t, X, X1, X2, u) dt + e^{F(T)} phi(X(T), X1(T)) ],
    F(t) = fbar * (t - s), using forward paths only.  When gbar is
    nonzero the expectation is under the shifted measure, so the supplied
    bundle must have been simulated with the Girsanov-shifted drift
    b + sigma*gbar (see ``connect.girsanov_reduce``).

    Returns (estimate, standard error).
    """
    assert_linear_driver(coeffs, driver, seed=0)
    grid = bundle.grid
    n, dt = grid.n_steps, grid.dt
    times = grid.times()
    fbar = np.full_like(times, driver.fbar)
    cumF = np.concatenate([[0.0], np.cumsum(0.5 * (fbar[1:] + fbar[:-1]) * dt)])
    disc = np.exp(cumF)
    ok = bundle.valid
    _, xT, x1T, _, _ = bundle.state(n, ok)
    total = disc[n] * coeffs.phi(xT, x1T).astype(float)
    # trapezoid in time for the running-cost integral
    for i in range(n + 1):
        w = dt if 0 < i < n else 0.5 * dt
        total += w * disc[i] * coeffs.a_part(*bundle.state(i, ok))
    return mc_estimate(total)
