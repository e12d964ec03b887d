"""Shared domain types for mixed-delay stochastic control.

Conventions used across the package:

* time grid: t_i = s + i*dt for i = 0..n, with the delay an exact
  multiple of the step, delta = m*dt; history indices run from -m to 0
* state triple: x (current), x1 (exponentially weighted distributed
  delay, decay rate ``lam``), x2 (discrete delay, x2(t) = x(t - delta))
* transport: the drift of x1 is x - lam*x1 - exp(-lam*delta)*x2, which
  is the time derivative of the windowed integral defining x1

This module holds the grid/history types, the distributed-delay
quadrature, and the Hamiltonian evaluators used by the maximum-principle
and dynamic-programming machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent run configuration (bad grid, variant/driver mismatch...)."""


class HypothesisViolation(RuntimeError):
    """A theorem's standing hypothesis failed its numerical gate.

    Distinct from ConfigurationError so runners can report gate failures
    (exit code 3) separately from malformed configuration (exit code 2).
    """


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic Generator derived from a base seed and integer tags.

    Used for auxiliary sampling (probe points, convexity checks, control
    tournaments) so that every random draw in a run is reproducible from
    the single run seed.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# grid and history
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [s, T] with delay depth ``delay_steps``.

    The delay is delta = delay_steps*dt exactly; discrete-delay lookups
    X(t - delta) are then exact grid reads with no interpolation.
    """

    s: float
    T: float
    dt: float
    delay_steps: int

    def __post_init__(self):
        if not (0.0 <= self.s < self.T):
            raise ConfigurationError(f"need 0 <= s < T, got s={self.s}, T={self.T}")
        if self.dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        ratio = (self.T - self.s) / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigurationError(
                f"(T - s)/dt = {ratio} is not an integer; adjust dt"
            )
        if int(self.delay_steps) < 1:
            raise ConfigurationError("delay_steps must be a positive integer")

    @property
    def n_steps(self) -> int:
        return int(round((self.T - self.s) / self.dt))

    @property
    def m(self) -> int:
        return int(self.delay_steps)

    @property
    def delay(self) -> float:
        return self.m * self.dt

    def time(self, i) -> float:
        """Time of grid index i (i may be negative down to -m)."""
        return self.s + np.asarray(i) * self.dt

    def times(self) -> np.ndarray:
        """Grid times t_0..t_n on [s, T]."""
        return self.s + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class HistoryPath:
    """Initial segment sampled at the m+1 grid times s-delta..s.

    Values between samples are understood as linear interpolants; the
    simulators only ever read the samples themselves.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("invalid history: need a 1-d array of at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid history: non-finite sample")
        object.__setattr__(self, "samples", arr)

    @property
    def m(self) -> int:
        return self.samples.size - 1

    @classmethod
    def constant(cls, value: float, m: int) -> "HistoryPath":
        return cls(np.full(m + 1, float(value)))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], m: int, delay: float) -> "HistoryPath":
        """Sample fn(tau) at tau = -delay..0 on the m+1 history nodes."""
        taus = np.linspace(-delay, 0.0, m + 1)
        return cls(np.array([float(fn(t)) for t in taus]))

    def interp(self, tau: np.ndarray, delay: float) -> np.ndarray:
        """Linear interpolation at offsets tau in [-delay, 0]."""
        taus = np.linspace(-delay, 0.0, self.m + 1)
        return np.interp(np.asarray(tau, dtype=float), taus, self.samples)


@dataclass(frozen=True)
class ControlDomain:
    """Box control set [lower, upper] with an n_u-point uniform discretization."""

    lower: float
    upper: float
    n_u: int = 21

    def __post_init__(self):
        if self.lower > self.upper:
            raise ConfigurationError("control domain needs lower <= upper")
        if self.n_u < 1:
            raise ConfigurationError("n_u must be >= 1")

    def points(self) -> np.ndarray:
        if self.n_u == 1:
            return np.array([0.5 * (self.lower + self.upper)])
        return np.linspace(self.lower, self.upper, self.n_u)

    def clip(self, u):
        return np.clip(u, self.lower, self.upper)


@dataclass
class DelayedState:
    """State triple (x, x1, x2); fields may be scalars or aligned arrays."""

    x: float
    x1: float
    x2: float


@dataclass
class AdjointVector:
    """Adjoint variables (gamma, p1, p2, p3, q1, q2) at one time point."""

    gamma: float = 1.0
    p1: float = 0.0
    p2: float = 0.0
    p3: float = 0.0
    q1: float = 0.0
    q2: float = 0.0


# ---------------------------------------------------------------------------
# distributed-delay quadrature
# ---------------------------------------------------------------------------

def x1_weights(m: int, lam: float, dt: float) -> np.ndarray:
    """Trapezoid weights w_k such that sum_k w_k * X[t-delta+k*dt] approximates
    the windowed integral of exp(lam*tau)*X(t+tau) over tau in [-delta, 0]."""
    tau = (np.arange(m + 1) - m) * dt
    w = np.exp(lam * tau) * dt
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def eval_X1_quadrature(history_window: np.ndarray, lam: float, dt: float):
    """Distributed-delay functional from an (m+1)-sample window ending at t.

    Returns the trapezoidal quadrature of the exponentially weighted
    integral of the path over the trailing delay window; second-order
    accurate for twice-differentiable paths.  ``history_window`` may be
    an (m+1,) vector or an (n_paths, m+1) matrix.
    """
    window = np.asarray(history_window, dtype=float)
    if not np.all(np.isfinite(window)):
        raise ValueError("invalid history")
    m = window.shape[-1] - 1
    if m < 1:
        raise ValueError("invalid history: need at least 2 samples")
    w = x1_weights(m, lam, dt)
    return window @ w


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def transport_term(x, x1, x2, lam: float, delay: float):
    """Drift of the distributed-delay state: x - lam*x1 - exp(-lam*delay)*x2."""
    return x - lam * x1 - math.exp(-lam * delay) * x2


def eval_H(t, state: DelayedState, y, z, u, adj: AdjointVector, coeffs, delay: float):
    """Hamiltonian pairing state dynamics with the adjoint variables.

    H = p1*b + p2*(x - lam*x1 - e^{-lam*delta}*x2) + q1*sigma - gamma*f,
    evaluated at the candidate point.  Affine in (gamma, p1, p2, q1).
    """
    x, x1, x2 = state.x, state.x1, state.x2
    b = coeffs.b(t, x, x1, x2, u)
    sig = coeffs.sigma(t, x, x1, x2, u)
    f = coeffs.f(t, x, x1, x2, y, z, u)
    tr = transport_term(x, x1, x2, coeffs.lam, delay)
    return adj.p1 * b + adj.p2 * tr + adj.q1 * sig - adj.gamma * f


def eval_H_u(t, state: DelayedState, y, z, u, adj: AdjointVector, coeffs, delay: float,
             step: float = 1e-5):
    """Central-difference partial of the Hamiltonian in the control slot."""
    h = step * (np.abs(u) + 1.0)
    up = eval_H(t, state, y, z, u + h, adj, coeffs, delay)
    dn = eval_H(t, state, y, z, u - h, adj, coeffs, delay)
    return (up - dn) / (2.0 * h)


@dataclass(frozen=True)
class LinearDriver:
    """Deterministic linear-driver data (fbar, gbar) for a + fbar(t)*y + gbar(t)*z.

    ``fbar`` and ``gbar`` are callables of t (vectorized); gbar=None means
    g identically zero.
    """

    fbar: Optional[Callable] = None
    gbar: Optional[Callable] = None

    def fbar_at(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)) if self.fbar is None else np.asarray(self.fbar(t), dtype=float)

    def gbar_at(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)) if self.gbar is None else np.asarray(self.gbar(t), dtype=float)

    @classmethod
    def constants(cls, fbar: float = 0.0, gbar: float = 0.0) -> "LinearDriver":
        fb = None if fbar == 0.0 else (lambda t, _c=float(fbar): _c * np.ones_like(np.asarray(t, dtype=float)))
        gb = None if gbar == 0.0 else (lambda t, _c=float(gbar): _c * np.ones_like(np.asarray(t, dtype=float)))
        return cls(fbar=fb, gbar=gb)


G_VARIANTS = ("G", "Gbar", "Gtilde")


def eval_G(variant: str, t, x, x1, x2, u, k, p, R, q, coeffs, delay: float,
           linear_driver: Optional[LinearDriver] = None):
    """Generalized Hamiltonian used by the dynamic-programming equation.

    variant "G":      0.5*R*sigma^2 + p*b + q*transport + f(t,x,x1,x2,k,p*sigma,u)
    variant "Gbar":   0.5*R*sigma^2 + p*(b + sigma*g(t)) + q*transport
                      + a(t,x,x1,x2,u) + fbar(t)*k        (linear driver)
    variant "Gtilde": Gbar with g identically zero.

    For the linear variants, a is read off the coefficient set as
    f(t,x,x1,x2,0,0,u).
    """
    if variant not in G_VARIANTS:
        raise ConfigurationError(f"unknown generalized-Hamiltonian variant {variant!r}")
    sig = coeffs.sigma(t, x, x1, x2, u)
    b = coeffs.b(t, x, x1, x2, u)
    tr = transport_term(x, x1, x2, coeffs.lam, delay)
    if variant == "G":
        return 0.5 * R * sig ** 2 + p * b + q * tr + coeffs.f(t, x, x1, x2, k, p * sig, u)
    gbar, fbar = linear_driver_terms(variant, t, linear_driver)
    a = coeffs.f(t, x, x1, x2, 0.0, 0.0, u)
    drift = b if gbar is None else b + sig * gbar
    return 0.5 * R * sig ** 2 + p * drift + q * tr + a + fbar * k


def linear_driver_terms(variant: str, t, linear_driver: Optional[LinearDriver]):
    """(g(t) or None, fbar(t)) entering a linear variant of G at time t.

    g is None unless the variant is "Gbar" and the driver carries a z-loading;
    "Gtilde" refuses a driver whose g is not zero at t.
    """
    if linear_driver is None:
        raise ConfigurationError(f"variant {variant!r} requires a linear driver")
    gbar = None
    if linear_driver.gbar is not None:
        gvals = linear_driver.gbar_at(t)
        if variant == "Gtilde" and np.any(np.abs(gvals) > 0.0):
            raise ConfigurationError("Gtilde requires g identically zero")
        if variant == "Gbar":
            gbar = gvals
    return gbar, linear_driver.fbar_at(t)


# ---------------------------------------------------------------------------
# problem bundle
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    """A full problem instance: coefficients, grid, history, control domain.

    ``driver`` carries the deterministic linear-driver data when the cost
    driver has the form a + fbar(t)*y + gbar(t)*z; it is required by the
    verification and measure-change routines.
    """

    coeffs: object
    grid: TimeGrid
    history: HistoryPath
    domain: ControlDomain
    driver: Optional[LinearDriver] = None

    def __post_init__(self):
        if self.history.m != self.grid.m:
            raise ConfigurationError(
                f"history has {self.history.m} delay steps, grid expects {self.grid.m}"
            )
