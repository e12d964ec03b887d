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
from typing import Callable, NamedTuple, Optional

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent run configuration (bad grid, variant/driver mismatch...).

    Each argument is one problem; the CLI prints one line per argument."""


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


def max_abs(a: np.ndarray) -> float:
    """max|a| over the non-NaN entries, equal to ``float(np.nanmax(np.abs(a)))``
    (a signed zero reads +0.0, all-NaN input NaN) without the |a| copy."""
    hi = float(np.nanmax(a))
    return abs(hi) if math.isnan(hi) else max(abs(hi), abs(float(np.nanmin(a))))


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

    def check_history(self, history: HistoryPath) -> None:
        """Refuse a history that does not sample this grid's m + 1 delay times."""
        if history.m != self.m:
            raise ConfigurationError(f"history has {history.m} delay steps, grid expects {self.m}")


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


def eval_H(t, x, x1, x2, y, z, u, gamma, p1, p2, q1, coeffs, delay: float):
    """Hamiltonian pairing state dynamics with the adjoint variables.

    H = p1*b + p2*(x - lam*x1 - e^{-lam*delta}*x2) + q1*sigma - gamma*f,
    evaluated at the candidate point.  Affine in (gamma, p1, p2, q1).  The
    state, cost, control and adjoint arguments may be scalars or aligned
    arrays.
    """
    b = coeffs.b(t, x, x1, x2, u)
    sig = coeffs.sigma(t, x, x1, x2, u)
    f = coeffs.f(t, x, x1, x2, y, z, u)
    tr = transport_term(x, x1, x2, coeffs.lam, delay)
    return p1 * b + p2 * tr + q1 * sig - gamma * f


@dataclass(frozen=True)
class LinearDriver:
    """Deterministic linear-driver data (fbar, gbar) for a + fbar(t)*y + gbar(t)*z.

    ``fbar`` and ``gbar`` are callables of t (vectorized); gbar=None means
    g identically zero.
    """

    fbar: Optional[Callable] = None
    gbar: Optional[Callable] = None

    def fbar_at(self, t):
        return self._at(self.fbar, t)

    def gbar_at(self, t):
        return self._at(self.gbar, t)

    @staticmethod
    def _at(fn: Optional[Callable], t):
        return np.zeros_like(np.asarray(t, dtype=float)) if fn is None else np.asarray(fn(t), dtype=float)

    @classmethod
    def constants(cls, fbar: float = 0.0, gbar: float = 0.0) -> "LinearDriver":
        def constant(c):
            return None if c == 0.0 else (lambda t, _c=float(c): _c * np.ones_like(np.asarray(t, dtype=float)))
        return cls(fbar=constant(fbar), gbar=constant(gbar))


G_VARIANTS = ("G", "Gbar", "Gtilde")


class ControlTerms(NamedTuple):
    """A block of controls ``u`` and the terms of G that depend on them and
    not on the jet: b, sigma**2, sigma (None where neither z = p*sigma nor a
    drift shift reads it) and a = f(..., 0, 0, u) (None for variant G)."""

    u: np.ndarray
    b: np.ndarray
    sig2: np.ndarray
    sig: Optional[np.ndarray]
    a: Optional[np.ndarray]

    def drift(self, gbar):
        """b, shifted by sigma*g(t) where Gbar has a z-loading."""
        return self.b if gbar is None else self.b + self.sig * gbar


def control_terms(coeffs, t, x, x1, x2, u, variant: str, with_sig: bool = True) -> ControlTerms:
    """The control terms of G at the controls ``u`` (see ControlTerms)."""
    b = coeffs.b(t, x, x1, x2, u)
    sig = coeffs.sigma(t, x, x1, x2, u)
    a = None if variant == "G" else coeffs.a_part(t, x, x1, x2, u)
    return ControlTerms(u, b, sig ** 2, sig if with_sig else None, a)


def sum_G(coeffs, t, x, x1, x2, terms: ControlTerms, diffusion, drift, p, q_tr, k, fbar_k,
          out=None):
    """G from its parts, into ``out`` when given: diffusion + p*drift + q_tr, then
    f(t,x,x1,x2,k,p*sigma,u) for variant G (``terms.a`` None), else a + fbar_k."""
    g = np.multiply(p, drift, out=out)
    g = np.add(diffusion, g, out=out)
    g = np.add(g, q_tr, out=out)
    if terms.a is None:
        return np.add(g, coeffs.f(t, x, x1, x2, k, p * terms.sig, terms.u), out=out)
    return np.add(np.add(g, terms.a, out=out), fbar_k, out=out)


def eval_G(variant: str, t, x, x1, x2, u, k, p, R, q, coeffs, delay: float,
           linear_driver: Optional[LinearDriver] = None):
    """Generalized Hamiltonian used by the dynamic-programming equation.

    variant "G":      0.5*R*sigma^2 + p*b + q*transport + f(t,x,x1,x2,k,p*sigma,u)
    variant "Gbar":   0.5*R*sigma^2 + p*(b + sigma*g(t)) + q*transport
                      + a(t,x,x1,x2,u) + fbar(t)*k        (linear driver)
    variant "Gtilde": Gbar with g identically zero.

    For the linear variants a = f(t,x,x1,x2,0,0,u) (CoefficientSet.a_part).
    """
    gbar, fbar_k = linear_driver_terms(variant, t, linear_driver, k)
    terms = control_terms(coeffs, t, x, x1, x2, u, variant)
    tr = transport_term(x, x1, x2, coeffs.lam, delay)
    return sum_G(coeffs, t, x, x1, x2, terms, 0.5 * R * terms.sig2, terms.drift(gbar), p,
                 q * tr, k, fbar_k)


def linear_driver_terms(variant: str, t, linear_driver: Optional[LinearDriver], k):
    """(g(t) or None, fbar(t)*k or None): the linear driver's terms in
    ``variant`` of G at time t and value k.

    Both are None for "G"; g is None unless the variant is "Gbar" and the
    driver carries a z-loading; "Gtilde" refuses a driver whose g is not
    zero at t.
    """
    if variant not in G_VARIANTS:
        raise ConfigurationError(f"unknown generalized-Hamiltonian variant {variant!r}")
    if variant == "G":
        return None, None
    if linear_driver is None:
        raise ConfigurationError(f"variant {variant!r} requires a linear driver")
    gbar = None if linear_driver.gbar is None else linear_driver.gbar_at(t)
    if variant == "Gtilde" and gbar is not None and np.any(np.abs(gbar) > 0.0):
        raise ConfigurationError("Gtilde requires g identically zero")
    return (gbar if variant == "Gbar" else None), linear_driver.fbar_at(t) * k


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
        self.grid.check_history(self.history)
