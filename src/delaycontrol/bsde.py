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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

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


def _scaled_columns(cols: np.ndarray, keep: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``cols[:, keep] / scale[:, :, None]`` for the ``_blocks`` view
    ``cols`` of a design: the transposes of each block's kept columns
    divided by the block's row of ``scale``, the layout each block's fit
    reads (the transpose of a column-major matrix), which fixes the order in
    which BLAS sums the terms of each fitted value.  A design whose columns
    are all kept is divided as it is: a second design-sized array per fit
    made one fit at 8000 rows about three times slower (2-CPU host, numpy
    2.4.6)."""
    A3 = np.empty(scale.shape + cols.shape[2:])
    np.divide(cols if keep.all() else cols[:, keep], scale[:, :, None], out=A3)
    return A3


def _blocks(M: np.ndarray, k: int) -> np.ndarray:
    """``(k, cols, rows)``: the transposes of k equal row blocks of M, as a
    view (a split of the row axis)."""
    return M.T.reshape(M.shape[1], k, -1).transpose(1, 0, 2)


class RegressionFactor(NamedTuple):
    """What a ConditionalRegression keeps of a group of row blocks besides
    its matrix: the group's blocks, the columns they keep, and each block's
    column scale, Cholesky factor and final ridge, stacked in block order."""

    rows: slice
    keep: np.ndarray
    scale: np.ndarray
    factor: np.ndarray
    lam: List[float]


def _pick(rows: slice, stack: np.ndarray) -> Tuple[Union[slice, int], np.ndarray]:
    """``(rows, stack)`` for a group of blocks ``rows``, and for a group of
    one block ``(its index, its matrix)``: an index drops the stack axis of
    what it picks from, so that the group's BLAS and LAPACK calls are the
    plain 2-D ones (see ``ConditionalRegression``)."""
    return (rows, stack) if len(stack) > 1 else (rows.start, stack[0])


def _first_ridge(gram: np.ndarray, eps_reg: float) -> float:
    return eps_reg * max(float(gram.trace()) / gram.shape[0], 1e-300)


class ConditionalRegression:
    """One time-step conditional-expectation operator.

    Fits ridge-regularized least squares on a fixed design matrix; columns
    with (numerically) zero variance beyond the intercept are dropped so
    degenerate states (e.g. the deterministic initial slice) reduce to a
    plain mean.

    The design's rows are ``blocks`` = K equal blocks, and the operator is K
    independent ones, each bit for bit the operator of its block alone:
    ``state`` holds one ``RegressionFactor`` per group of blocks (below), and
    ``fit_values`` fits each block's rows of a response on its own operator; a
    single fit is the one-block case.  The fixed cost of a fit is paid once for
    all blocks, not once per block.  The column ranges and the scaling are one
    call each over every row.  Blocks that keep the same columns (all of them,
    unless a column is flat in some blocks only) form one group, which shares
    one scaled matrix, and whose Gram matrices, condition checks, Cholesky
    factors and solves are one call each on the stack of the blocks' matrices:
    numpy's stacked BLAS and LAPACK calls give each matrix the bits of its own
    call.  A group of one block makes no stacked first attempt, and its BLAS
    and LAPACK calls are the plain 2-D ones on its matrix: stacked calls and
    that attempt on a stack of one made a fit with two fitted values about 15 %
    slower at 500 rows and 6 % at 8000 (2-CPU host, numpy 2.4.6), and a sweep
    of one block fits one per step.  A block whose ridge must grow escalates on
    its own, with its own warning.
    """

    _COND_LIMIT = 1e12

    def __init__(self, design: np.ndarray, eps_reg: float, blocks: int = 1):
        cols = _blocks(design, blocks)
        # max and min are exact in any order
        hi, lo = cols.max(axis=2), cols.min(axis=2)
        keep = (hi - lo) > 1e-12
        keep[:, 0] = True  # the intercept
        big = np.maximum(np.abs(hi), np.abs(lo))
        # each group: its blocks' slice or index, scaled matrices and factors;
        # one group of every block when all keep the same columns, else one per block
        self.blocks, self.state, self._groups, escalated = blocks, [], [], []
        same = bool((keep == keep[0]).all())
        for rows in [slice(0, blocks)] if same else [slice(k, k + 1) for k in range(blocks)]:
            kept = keep[rows.start].copy()  # a record keeps no view of every block's flags
            scale = np.maximum(big[rows, kept], 1.0)
            ix, A = _pick(rows, _scaled_columns(cols[rows], kept, scale))
            gram = A @ A.mT
            k = scale.shape[1]
            grams = gram.reshape(-1, k, k)  # a stack, of one for one block
            lams = [_first_ridge(g, eps_reg) for g in grams]
            factors = np.empty_like(grams)
            todo = range(len(grams))
            if len(grams) > 1:  # one stacked first attempt; what it leaves retries per block
                penalty = np.eye(k)
                penalty[0, 0] = 0.0
                mats = grams + np.array(lams)[:, None, None] * penalty
                try:
                    s = np.linalg.svd(mats, compute_uv=False)
                    cond = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf),
                                     where=s[:, -1] != 0.0)
                    done = ~(cond > self._COND_LIMIT)
                    factors[done] = np.linalg.cholesky(mats[done])
                    todo = np.flatnonzero(~done)
                except np.linalg.LinAlgError:
                    pass
            for g in todo:
                factors[g], lams[g], again = self._factor(grams[g], lams[g])
                if again:
                    escalated.append(lams[g])
            self._groups.append((ix, A, _pick(rows, factors)[1]))
            self.state.append(RegressionFactor(rows, kept, scale, factors, lams))
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

    @classmethod
    def from_factor(cls, design: np.ndarray,
                    state: Sequence[RegressionFactor]) -> "ConditionalRegression":
        """The operator on ``design`` from the ``state`` of an earlier fit on
        the same design: only the scaled matrices are rebuilt, with no Gram
        matrix, condition check or Cholesky step (and no ``__init__``)."""
        reg = cls.__new__(cls)
        reg.blocks, reg.state = state[-1].rows.stop, list(state)
        cols = _blocks(design, reg.blocks)
        reg._groups = [(*_pick(g.rows, _scaled_columns(cols[g.rows], g.keep, g.scale)),
                        _pick(g.rows, g.factor)[1]) for g in state]
        return reg

    def fit_values(self, response: np.ndarray) -> np.ndarray:
        """Fitted conditional expectation of response at the design points."""
        # a strided response (a column of a row-major array) would be summed
        # in a different order by BLAS when only the intercept is kept
        r = np.ascontiguousarray(response).reshape(self.blocks, -1, 1)
        out = np.empty(r.shape)
        for ix, A, factor in self._groups:
            np.matmul(A.mT, np.linalg.solve(factor.mT, np.linalg.solve(factor, A @ r[ix])),
                      out=out[ix])
        return out.reshape(-1)


# ---------------------------------------------------------------------------
# backward solver
# ---------------------------------------------------------------------------

@dataclass
class BackwardSolution:
    """Per-path (Y, Z) arrays on grid indices 0..n plus the initial value.

    Y[:, n] equals phi(X(T), X1(T)) exactly per path.  ``y_s`` is the mean
    of Y at the start; ``y_s_se`` is the Monte Carlo standard error taken
    from the pathwise integral representation of Y(s), computed with
    ``coeffs`` on its first read.  ``factors[i]`` is the ``state`` of the
    step-i regression of the sweep in ``basis``, one record per group of
    the bundle's row blocks, shared with the adjoint sweeps on the same
    bundle (see ``shared_factors``).
    """

    bundle: TrajectoryBundle
    Y: np.ndarray
    Z: np.ndarray
    y_s: float
    basis: RegressionBasis
    factors: List[List[RegressionFactor]]
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
                   factors: Optional[List[List[RegressionFactor]]] = None,
                   q_rows: Optional[Sequence[Optional[int]]] = None):
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

    The bundle's rows are ``bundle.blocks`` = K equal blocks stepped on the
    increments of one, which ``bundle.dW`` holds once, and each step fits
    the blocks apart, on one grouped operator (see
    ``ConditionalRegression``).  For K > 1 the values are stored at step 0
    only (one column; two roll in the sweep) and q nowhere.
    """
    n, dt = bundle.grid.n_steps, bundle.grid.dt
    K, ok = bundle.blocks, bundle.valid
    ok_dw = ok if isinstance(ok, slice) else ok[: bundle.dW.shape[0]]
    stored, q_rows = ((n + 1, q_rows or [None] * len(terminal)) if K == 1
                      else (1, [0] * len(terminal)))
    cols = max(stored, 2)  # step i in column i % cols
    values = [bundle.sweep_array(cols)[0] for _ in terminal]
    qs = [bundle.sweep_array(n + 1, rows) for rows in q_rows]
    used: List[List[RegressionFactor]] = [None] * n
    for v, term in zip(values, terminal):
        v[ok, n % cols] = term
    for i in range(n - 1, -1, -1):
        _, x, x1, _, _ = bundle.state(i, ok)
        design = basis.design(x, x1)
        if factors is None:
            reg = ConditionalRegression(design, basis.eps_reg, K)
        else:
            reg = ConditionalRegression.from_factor(design, factors[i])
        used[i] = reg.state
        dw = bundle.dW[ok_dw, i]
        nxts = [v[ok, (i + 1) % cols] for v in values]
        hats = [reg.fit_values(nxt) for nxt in nxts]
        q_hats = [reg.fit_values(((nxt - hat).reshape(K, -1) * dw).reshape(-1) / dt)
                  for nxt, hat in zip(nxts, hats)]
        for v, (q, kept, count), new, q_hat in zip(values, qs, update(i, hats, q_hats), q_hats):
            v[ok, i % cols] = new
            q[kept, i] = q_hat[:count]
    for q, kept, _ in qs:
        q[kept, n] = q[kept, n - 1]
    return [v[:, :stored] for v in values], [q for q, _, _ in qs], used


def solve_bsde_lsmc(bundle: TrajectoryBundle, coeffs, basis: RegressionBasis
                    ) -> BackwardSolution:
    """Backward LSMC sweep for the recursive cost.

    Per step: Z is regressed from martingale residuals
    (Y(t+dt) - E[Y(t+dt)|state]) * dW / dt, then Y(t) is the fitted
    continuation plus one implicit Picard correction of the driver (the
    contraction factor is Lipschitz * dt, so a single sweep is
    sub-tolerance).

    A bundle of ``bundle.blocks`` = K > 1 equal blocks of paths stepped on
    the same increments, which ``bundle.dW`` holds once, for one block, is
    solved in one sweep (see ``backward_sweep``): each block's Y is bit for
    bit its own solve's, and is stored at s only, the one column a
    first-order expansion at s reads.  Y then has one column, Z no row, and
    ``y_s`` is the mean over every block.
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
