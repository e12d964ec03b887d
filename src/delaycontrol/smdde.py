"""Euler-Maruyama simulation of the mixed-delay SDE.

The state follows

    dX(t) = b(t, X, X1, X2, u) dt + sigma(t, X, X1, X2, u) dW(t),  t in [s, T],
    X(t)  = history(t - s),                                        t in [s-delta, s],

with X1 the exponentially weighted distributed delay (recomputed by
trapezoidal quadrature each step) and X2(t) = X(t - delta) an exact grid
read.  Also provides the coupled-path comparison harness and the
p-th-moment-estimate harness, which return only their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .core import (ConfigurationError, HistoryPath, HypothesisViolation, TimeGrid,
                   derived_rng, mc_estimate, x1_weights)

DIVERGENCE_LIMIT = 1e12
# paths stepped per chunk; bounds every per-chunk buffer.  Chunking changes no
# result only while this is a multiple of the row unroll of the gemv that sums
# the delay quadrature (4 rows in OpenBLAS 0.3.31, numpy 2.4.6, x86-64): a row's
# sum order depends on its position in the call, and chunks of 250, 333 or 999
# paths change X1 bits where chunks of 8, 64 or 500 do not
CHUNK_PATHS = 4096
_BLOCK_BYTES = 100 * 1024  # uniforms per Box-Muller block: 64 rows at 100 steps
_WORD = (1 << 64) - 1  # one of the four words of a Philox counter

Control = Union[float, np.ndarray, Callable]


def path_array(n_paths: int, n_cols: int) -> np.ndarray:
    """A per-path, per-step ``(n_paths, n_cols)`` array, indexed ``[path, step]``
    but stored column-major, so the time slice ``arr[:, i]`` that every sweep
    step reads or writes is one contiguous vector.  Uninitialised."""
    return np.empty((n_paths, n_cols), order="F")


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

class NoiseSource:
    """Counter-based Gaussian increment streams.

    Path ``p`` owns a dedicated block of the Philox counter space (derived
    from the seed and the path index alone), and its k-th increment is the
    Box-Muller transform of the uniform pair (2k, 2k+1) from that block.
    Hence identical (seed, path, step) always yields the identical
    increment, independent of execution order or chunking.
    """

    _PATH_STRIDE = 1 << 40  # uniforms reserved per path

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0 or self.seed > 0xFFFFFFFFFFFFFFFF:
            raise ConfigurationError("seed must fit in 64 bits")

    def increments(self, first_path: int, n_paths: int, n_steps: int, dt: float) -> np.ndarray:
        """Gaussian increments of variance dt, shape (n_paths, n_steps)."""
        if first_path < 0 or n_paths < 0:
            raise ConfigurationError(
                f"first_path and n_paths must be >= 0, got {first_path} and {n_paths}")
        if 2 * n_steps > self._PATH_STRIDE:
            raise ConfigurationError("step count exceeds the per-path counter block")
        out = np.empty((n_paths, n_steps))
        scale = np.sqrt(dt)
        two_pi = 2.0 * np.pi
        # One generator per call.  Each path starts from the state of
        # Philox(key=seed).advance(path * stride): its 256-bit counter is
        # path * stride, written into one state dict of plain ints (numpy
        # arrays there make the assignment slower) with the output buffer
        # empty, which is the state an advance leaves.  Box-Muller runs in
        # place over blocks of rows whose uniforms fit _BLOCK_BYTES, so long
        # horizons do not grow the buffer.
        bg = np.random.Philox(key=self.seed)
        gen = np.random.Generator(bg)
        counter = [0] * 4
        state = {"bit_generator": "Philox",
                 "state": {"counter": counter, "key": [int(k) for k in bg.state["state"]["key"]]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        rows = max(1, _BLOCK_BYTES // max(1, 16 * n_steps))
        uni = np.empty((min(rows, n_paths), 2 * n_steps))
        for lo in range(0, n_paths, rows):
            block = uni[: min(rows, n_paths - lo)]
            for path, row in enumerate(block, start=first_path + lo):
                start = path * self._PATH_STRIDE
                counter[:] = [(start >> shift) & _WORD for shift in (0, 64, 128, 192)]
                bg.state = state
                gen.random(out=row)
            k = block.shape[0]
            # sqrt(-2 log1p(-u0)) * cos(2 pi u1) * scale, in `out`
            z = np.log1p(-block[:, 0::2], out=out[lo : lo + k])
            z *= -2.0
            np.sqrt(z, out=z)
            c = np.multiply(two_pi, block[:, 1::2])
            z *= np.cos(c, out=c)
            z *= scale
        return out


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryBundle:
    """Monte Carlo paths on a shared grid.

    ``X`` covers grid indices -m..n (column j holds index j - m); ``X1``
    covers 0..n.  ``X2`` is the exact m-step shift of X, exposed as a view.
    ``u`` is the control that drove the run as it was given (scalar,
    per-step vector or per-path array), or for a feedback rule the per-path
    array of its values.  ``state`` and ``u_at`` are the one reader of a
    step: nothing else needs the history offset m or the control's form.
    Simulated per-path arrays come from ``path_array``: column-major, so a
    time slice ``X[:, j]`` is contiguous.
    """

    grid: TimeGrid
    X: np.ndarray
    X1: np.ndarray
    u: Union[float, np.ndarray]
    dW: Optional[np.ndarray]
    diverged: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def blocks(self) -> int:
        """K: the number of equal row blocks of paths stepped on the one set
        of increments ``dW`` holds (1 for a bundle of its own increments)."""
        K, rest = divmod(self.n_paths, self.dW.shape[0])
        if rest:
            raise ConfigurationError(f"{self.n_paths} paths are not whole blocks of the "
                                     f"{self.dW.shape[0]} rows of increments")
        return K

    @property
    def valid(self) -> Union[slice, np.ndarray]:
        """Row index of the non-diverged paths: ``slice(None)`` when none
        diverged (so column reads are views, not gathers), else the mask."""
        return ~self.diverged if self.diverged.any() else slice(None)

    def sample_valid(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Indices of ``min(n, count)`` distinct non-diverged paths drawn by
        ``rng``, of the ``count`` there are."""
        ok_idx = np.flatnonzero(~self.diverged)
        return rng.choice(ok_idx, size=min(n, ok_idx.size), replace=False)

    def sweep_array(self, n_cols: int, rows: Optional[int] = None):
        """``(arr, kept, count)``: a ``path_array`` for the first ``rows`` paths
        (all when None), NaN on their diverged rows and unset elsewhere, for a
        sweep that writes every column of the valid rows: ``arr[kept, i] =
        col[:count]`` stores a column ``col`` over all of ``valid``."""
        n = self.n_paths if rows is None else min(rows, self.n_paths)
        arr = path_array(n, n_cols)
        ok = self.valid
        if isinstance(ok, slice):
            return arr, ok, n
        kept = ok[:n]
        arr[~kept] = np.nan
        return arr, kept, int(kept.sum())

    @property
    def X2(self) -> np.ndarray:
        """X2[:, i] = X(t_i - delta) for grid indices 0..n (a view on X)."""
        return self.X[:, : self.grid.n_steps + 1]

    def state(self, i: int, rows: Union[slice, np.ndarray] = slice(None)):
        """``(t, x, x1, x2, u)`` at grid index i on ``rows``, with ``u`` the
        control applied on [t_i, t_{i+1}).  Whole columns are views; a mask
        or an index array gathers."""
        m = self.grid.m
        return (self.grid.time(i), self.X[rows, i + m], self.X1[rows, i],
                self.X[rows, i], self.u_at(i, rows))

    def u_at(self, i, rows: Union[slice, np.ndarray] = slice(None)):
        """Control applied on [t_i, t_{i+1}) on ``rows`` (see ``held``)."""
        return self.held(self.u, i, rows)

    @staticmethod
    def held(u, i, rows: Union[slice, np.ndarray] = slice(None)):
        """A stored control at grid index ``i`` on ``rows``: a scalar, or the
        entry of a per-step vector or per-path ``(n_paths, k)`` array, whose
        last entry holds to T.  With ``rows`` a slice, ``i`` may also be an
        array of grid indices; the result then has one entry or column per
        index."""
        if np.ndim(u) == 0:
            return float(u)
        u = np.asarray(u, dtype=float)
        i = np.minimum(i, u.shape[-1] - 1)
        return u[i] if u.ndim == 1 else u[rows, i]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _step_chunk(coeffs, control: Control, grid: TimeGrid, dW: np.ndarray,
                X_out: np.ndarray, X1_out: np.ndarray, u_out: Optional[np.ndarray],
                start: int = 0, x1_start: Optional[np.ndarray] = None):
    """Euler-Maruyama over one path chunk from grid step ``start`` to T.

    Column k of ``X_out`` holds grid index start - m + k, and its first m+1
    columns the window the caller filled; column k of ``X1_out``, ``dW``
    and ``u_out`` holds step start + k.  ``x1_start`` replaces the
    quadrature at ``start``.  Times and the control are read by full-grid
    step: a feedback rule is evaluated into ``u_out``; a stored control (a
    scalar, a per-step vector or the chunk's rows of a per-path array) is
    read once for steps start..n-1 by ``TrajectoryBundle.held``.  A state
    that turns non-finite or leaves [-1e12, 1e12] is NaN to T.

    The distributed-delay quadrature reads its m+1 states from a row-major
    buffer two windows wide, shifted back when full: a gemv over a
    column-major block of ``X_out`` would add the terms in another order.
    """
    m, n, dt = grid.m, grid.n_steps, grid.dt
    w = x1_weights(m, coeffs.lam, dt)
    win = np.empty((X_out.shape[0], 2 * (m + 1)))
    win[:, : m + 1] = X_out[:, : m + 1]
    j = 0  # win[:, j : j + m + 1] holds X_out[:, k : k + m + 1]
    times = grid.time(np.arange(start, n))
    feedback = callable(control)
    if not feedback:  # one entry, or one column, per step from start
        control = TrajectoryBundle.held(control, np.arange(start, n))
    per_step = np.ndim(control) > 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(times):
            x = X_out[:, k + m]
            x1 = x1_start if k == 0 and x1_start is not None else win[:, j : j + m + 1] @ w
            x2 = X_out[:, k]
            X1_out[:, k] = x1
            if feedback:
                u = np.asarray(control(t, x, x1), dtype=float)
            else:
                u = control[..., k] if per_step else control
            if u_out is not None:
                u_out[:, k] = u
            drift = coeffs.b(t, x, x1, x2, u)
            diffusion = coeffs.sigma(t, x, x1, x2, u)
            nxt = X_out[:, k + m + 1]
            np.add(x + drift * dt, diffusion * dW[:, k], out=nxt)
            bad = ~(np.abs(nxt) <= DIVERGENCE_LIMIT)  # also NaN and +-inf
            if bad.any():
                nxt[bad] = np.nan
            if j == m + 1:
                win[:, : m + 1] = win[:, m + 1 :]
                j = 0
            win[:, j + m + 1] = nxt
            j += 1
        X1_out[:, n - start] = win[:, j : j + m + 1] @ w


def simulate_smdde(coeffs, history: HistoryPath, control: Control, grid: TimeGrid,
                   noise: NoiseSource, n_paths: int) -> TrajectoryBundle:
    """Simulate the mixed-delay SDE forward on [s, T].

    ``control`` is a scalar, a per-step vector or a per-path ``(n_paths, k)``
    array (whose last entry holds to T when k < n), or a feedback rule
    u(t, x, x1) evaluated pathwise.  Paths whose state leaves
    [-1e12, 1e12] or turns non-finite are aborted (NaN from that step on)
    and flagged in ``diverged``; registry families are linear-growth, so
    divergence indicates misconfiguration.

    Paths are stepped in chunks of ``CHUNK_PATHS``, which bounds the noise
    buffer; the chunking does not change any result (see ``CHUNK_PATHS``).
    Paths are simulated serially.
    """
    grid.check_history(history)
    m, n = grid.m, grid.n_steps
    X = path_array(n_paths, m + n + 1)
    X1 = path_array(n_paths, n + 1)
    dW = path_array(n_paths, n)
    u = path_array(n_paths, n) if callable(control) else control
    for lo in range(0, n_paths, CHUNK_PATHS):
        rows = slice(lo, min(lo + CHUNK_PATHS, n_paths))
        dW[rows] = noise.increments(lo, rows.stop - lo, n, grid.dt)
        X[rows, : m + 1] = history.samples
        _step_chunk(coeffs, control[rows] if np.ndim(control) == 2 else control, grid,
                    dW[rows], X[rows], X1[rows], u[rows] if callable(control) else None)
    diverged = ~np.all(np.isfinite(X), axis=1)
    return TrajectoryBundle(grid=grid, X=X, X1=X1, u=u, dW=dW, diverged=diverged)


def _zero_control_chunks(runs, grid: TimeGrid, noise: NoiseSource, n_paths: int):
    """Step each ``(coeffs, history)`` of ``runs`` at u = 0 on shared increments,
    ``CHUNK_PATHS`` paths at a time.  Yields per chunk the mask of paths that
    diverged in no run, the increments and every run's ``(X, X1)``, on
    buffers that the next chunk overwrites; raises ``HypothesisViolation`` at
    the end if no path is valid."""
    for _, history in runs:
        grid.check_history(history)
    m, n = grid.m, grid.n_steps
    size = min(CHUNK_PATHS, n_paths)
    Xs = [path_array(size, m + n + 1) for _ in runs]
    X1s = [path_array(size, n + 1) for _ in runs]
    n_ok = 0
    for lo in range(0, n_paths, CHUNK_PATHS):
        k = min(CHUNK_PATHS, n_paths - lo)
        dW = noise.increments(lo, k, n, grid.dt)
        for (coeffs, history), X, X1 in zip(runs, Xs, X1s):
            X[:k, : m + 1] = history.samples
            _step_chunk(coeffs, 0.0, grid, dW, X[:k], X1[:k], None)
        ok = ~np.any([np.isnan(X[:k, -1]) for X in Xs], axis=0)  # a NaN holds to T
        n_ok += np.count_nonzero(ok)
        yield ok, dW, [(X[:k], X1[:k]) for X, X1 in zip(Xs, X1s)]
    if n_ok == 0:
        raise HypothesisViolation(f"no valid path left to check: all {n_paths} paths diverged")


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    """Outcome of a coupled-path ordering experiment.

    ``violation_fraction[i]`` is the fraction of paths with
    X1(t_i) < X2(t_i) - tol; ``worst_violation`` is the largest positive
    excursion of X2 - X1, both over the pairs where neither path diverged.
    Hypothesis failures are reported, not raised: probing what happens when
    an assumption is dropped is part of the harness's job.
    """

    tol: float
    violation_fraction: np.ndarray
    worst_violation: float
    hypothesis_ok: bool
    hypothesis_failures: List[str] = field(default_factory=list)

    @property
    def max_violation_fraction(self) -> float:
        return float(self.violation_fraction.max())


def _comparison_hypotheses(coeffs1, coeffs2, hist1: HistoryPath, hist2: HistoryPath,
                           grid: TimeGrid, seed: int, n_samples: int = 512) -> List[str]:
    failures: List[str] = []
    if not np.all(hist1.samples >= hist2.samples - 1e-12):
        failures.append("history ordering violated: phi1 < phi2 somewhere")
    rng = derived_rng(seed, 101)
    scale = 1.0 + max(np.abs(hist1.samples).max(), np.abs(hist2.samples).max())
    t = rng.uniform(grid.s, grid.T, n_samples)
    x = rng.normal(0.0, scale, n_samples)
    x2 = rng.normal(0.0, scale, n_samples)
    x1 = rng.normal(0.0, scale, n_samples)
    u = np.zeros(n_samples)
    tol = 1e-9 * scale
    for label, cs in (("b1", coeffs1), ("b2", coeffs2)):
        if np.max(np.abs(cs.slope("b_x1", t, x, x1, x2, u))) > tol:
            failures.append(f"{label} depends on x1 (outside the comparison form)")
    for label, cs in (("sigma1", coeffs1), ("sigma2", coeffs2)):
        if max(np.max(np.abs(cs.slope("sigma_x1", t, x, x1, x2, u))),
               np.max(np.abs(cs.slope("sigma_x2", t, x, x1, x2, u)))) > tol:
            failures.append(f"{label} depends on the delayed state (outside the comparison form)")
    b1 = coeffs1.b(t, x, x1, x2, u)
    b2 = coeffs2.b(t, x, x1, x2, u)
    if np.min(b1 - b2) < -tol:
        failures.append(f"drift ordering violated: min(b1 - b2) = {np.min(b1 - b2):.3e}")
    if np.min(coeffs1.slope("b_x2", t, x, x1, x2, u)) < -tol:
        failures.append("b1 is decreasing in x2 somewhere")
    s_diff = np.max(np.abs(coeffs1.sigma(t, x, x1, x2, u) - coeffs2.sigma(t, x, x1, x2, u)))
    if s_diff > tol:
        failures.append(f"diffusions differ: max|sigma1 - sigma2| = {s_diff:.3e}")
    return failures


def _order_flips(runs, grid: TimeGrid, dW: np.ndarray, ok: np.ndarray) -> int:
    """Valid path-steps where ``1 + b_x dt + sigma_x dW <= 0`` at u = 0 in
    some ``(coeffs, X, X1)`` of ``runs``: there one Euler step can reverse the
    order of two coupled paths.  Each slope is read through
    ``CoefficientSet.slope`` on the states of all steps at once."""
    m, n, dt = grid.m, grid.n_steps, grid.dt
    t = grid.time(np.arange(n))
    flip = np.zeros(dW.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for coeffs, X, X1 in runs:
            state = (t, X[:, m : m + n], X1[:, :n], X[:, :n], 0.0)
            bx, sx = coeffs.slope("b_x", *state), coeffs.slope("sigma_x", *state)
            flip |= 1.0 + bx * dt + sx * dW <= 0.0
    return int(np.count_nonzero(flip[ok]))


def simulate_coupled_pair(coeffs1, coeffs2, hist1: HistoryPath, hist2: HistoryPath,
                          grid: TimeGrid, noise: NoiseSource, n_paths: int, *,
                          tol: float = 0.0) -> ComparisonReport:
    """Simulate two instances with identical Brownian increments.

    Under the ordering hypotheses (ordered histories and drifts, shared
    diffusion, drift increasing in the discrete delay), the coupled paths
    stay ordered and the violation fraction is zero.  Each chunk is reduced
    as soon as it is stepped.  A step too coarse to keep the order (see
    ``_order_flips``) is a hypothesis failure.  Raises ``HypothesisViolation``
    when every pair has a diverged path.
    """
    count = np.zeros(grid.n_steps + 1, dtype=np.int64)  # valid pairs with gap > tol
    n_ok, n_flips, worst = 0, 0, -np.inf
    runs = [(coeffs1, hist1), (coeffs2, hist2)]
    for ok, dW, ((X_a, X1_a), (X_b, X1_b)) in _zero_control_chunks(runs, grid, noise, n_paths):
        gap = X_b[ok, grid.m :] - X_a[ok, grid.m :]  # positive where ordering fails
        count += np.count_nonzero(gap > tol, axis=0)
        n_ok += gap.shape[0]
        worst = max(worst, float(gap.max(initial=-np.inf)))
        n_flips += _order_flips([(coeffs1, X_a, X1_a), (coeffs2, X_b, X1_b)], grid, dW, ok)
    failures = _comparison_hypotheses(coeffs1, coeffs2, hist1, hist2, grid, noise.seed)
    if n_flips:
        failures.append(f"step too coarse: 1 + b_x*dt + sigma_x*dW <= 0 on {n_flips} "
                        "valid path-steps, where one Euler step can reverse the order")
    return ComparisonReport(tol=tol, violation_fraction=count / n_ok,
                            worst_violation=max(worst, 0.0),
                            hypothesis_ok=not failures, hypothesis_failures=failures)


# ---------------------------------------------------------------------------
# moment-estimate harness
# ---------------------------------------------------------------------------

@dataclass
class MomentReport:
    """Both sides of the p-th-moment a priori estimate.

    lhs is the Monte Carlo estimate of E sup |X|^p over [s, T]; the rhs
    terms are sup|history|^p, (integral of |b(r,0,0,0)| dr)^p and
    (integral of |sigma(r,0,0,0)|^2 dr)^{p/2}.  The harness asserts
    lhs <= C * (sum of rhs terms) with a calibrated constant.
    """

    p: int
    lhs: float
    lhs_se: float
    rhs_history: float
    rhs_drift: float
    rhs_diffusion: float
    n_diverged: int

    @property
    def rhs_total(self) -> float:
        return self.rhs_history + self.rhs_drift + self.rhs_diffusion

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs_total if self.rhs_total > 0 else float("inf")


def estimate_moment_bound(coeffs, history: HistoryPath, grid: TimeGrid, orders: Sequence[int],
                          noise: NoiseSource, n_paths: int) -> List[MomentReport]:
    """Monte Carlo ingredients of the p-th-moment estimate (u = 0 reference),
    one report per even order p in ``orders``, all from one simulation.

    Only each path's sup |X| is kept, and each order raises it to its power.
    Divergent paths are excluded from the estimate and counted; raises
    ``HypothesisViolation`` if all diverged.
    """
    if any(p < 2 or p % 2 != 0 for p in orders):
        raise ConfigurationError("moment order p must be an even integer >= 2")
    chunks = _zero_control_chunks([(coeffs, history)], grid, noise, n_paths)
    sup = np.concatenate([np.max(np.abs(X[ok, grid.m :]), axis=1)
                          for ok, _, ((X, _),) in chunks])  # over [s, T], valid paths
    times = grid.times()
    zeros = np.zeros_like(times)
    drift = np.trapezoid(np.abs(coeffs.b(times, zeros, zeros, zeros, zeros)), times)
    diffusion = np.trapezoid(np.abs(coeffs.sigma(times, zeros, zeros, zeros, zeros)) ** 2, times)
    hist = np.max(np.abs(history.samples))
    return [MomentReport(p, *mc_estimate(sup ** p), rhs_history=float(hist ** p),
                         rhs_drift=float(drift ** p), rhs_diffusion=float(diffusion ** (p / 2)),
                         n_diverged=n_paths - sup.size)
            for p in orders]
