"""Coefficient bundles: drift, diffusion, cost driver, terminal cost.

A :class:`CoefficientSet` carries the evaluators

    b(t, x, x1, x2, u)          drift
    sigma(t, x, x1, x2, u)      diffusion
    f(t, x, x1, x2, y, z, u)    recursive-cost driver
    phi(x, x1)                  terminal cost (Phi; capitalized to keep it
                                apart from the initial history segment)

together with their first derivatives in the state/cost slots and the
distributed-delay decay rate ``lam``.  Evaluators must be pure,
vectorized over numpy arrays, and reentrant.

Sets are normally built from the parametric registry below (families
``constant``, ``linear``, ``bilinear``, ``linear_quadratic``), which keeps
all derivatives analytic and the linear-growth bound structural.  Callers
may also assemble a :class:`CoefficientSet` from arbitrary callables.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .core import ConfigurationError


def _fill(value, *args):
    """``value`` padded to the common shape of itself and ``args``; a value
    that already involves every array argument is returned as it is."""
    shape = np.broadcast(value, *args).shape
    return value if np.shape(value) == shape else value + np.zeros(shape)


@dataclass
class CoefficientSet:
    """Evaluator bundle for one problem instance.

    All evaluators broadcast: the result has the common shape of the
    state, cost and control arguments (``t`` excluded), also where the
    formula does not involve all of them.  Registry evaluators reach that
    shape by plain broadcasting and pad with zeros only when the formula
    leaves arguments out, so a NaN in an argument an evaluator does not
    use no longer propagates into its result.  Derivative evaluators must
    agree with central finite differences of the values, which the tests
    check for every registry family (``tests/test_coeffs.py``).

    ``time_free`` holds while ``b``, ``sigma`` and ``f`` are the very
    evaluators :func:`make_coefficients` built, none of which reads ``t``;
    the HJB sweep then evaluates its control-only terms once per solve.
    Any other callable in one of those slots drops it, whatever it reads:
    a set from ``dataclasses.replace``, a wrapper (``functools.wraps``
    included) or the measure-shifted set of ``connect.girsanov_reduce``.

    :meth:`constant` names the b, sigma and f slopes that
    :func:`make_coefficients` built as finite constants, by the same
    identity rule.  :meth:`slope` is the one reader of a slope: the adjoint
    sweeps and the comparison harness use the number and call no evaluator
    for such a slope, and the variational remainders skip it.
    """

    name: str
    lam: float
    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    b_x: Callable
    b_x1: Callable
    b_x2: Callable
    sigma_x: Callable
    sigma_x1: Callable
    sigma_x2: Callable
    f_x: Callable
    f_x1: Callable
    f_x2: Callable
    f_y: Callable
    f_z: Callable
    phi_x: Callable
    phi_x1: Callable
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def time_free(self) -> bool:
        """Are b, sigma and f the registry's own (t-free) evaluators?"""
        return all(fn in _REGISTRY_EVALUATORS for fn in (self.b, self.sigma, self.f))

    def constant(self, slot: str) -> Optional[float]:
        """The number the derivative in ``slot`` returns at every state, if
        make_coefficients built it as a finite constant; else None."""
        fn = getattr(self, slot)
        return _CONSTANTS[fn] if fn in _CONSTANTS else None

    def slope(self, slot: str, *args):
        """The derivative in ``slot`` at ``args``: a recorded constant is that
        number, which multiplies as an array filled with it, and any other
        slope is evaluated."""
        c = self.constant(slot)
        return getattr(self, slot)(*args) if c is None else c

    def a_part(self, t, x, x1, x2, u):
        """Driver with the (y, z) slots zeroed: a(t,x,x1,x2,u) = f(t,...,0,0,u)."""
        return self.f(t, x, x1, x2, 0.0, 0.0, u)


# b, sigma and f of every set make_coefficients built, held by identity
_REGISTRY_EVALUATORS = weakref.WeakSet()
# each constant b, sigma or f slope the registry built -> its value c + 0.0,
# which is what _fill pads an array with (so -0.0 is stored as +0.0)
_CONSTANTS = weakref.WeakKeyDictionary()


def _constant(c: float) -> Callable:
    """The b, sigma or f slope that is ``c`` at every state, recorded in
    _CONSTANTS when finite."""
    def slope(t, *state):
        return _fill(c, *state)
    if np.isfinite(c):
        _CONSTANTS[slope] = c + 0.0
    return slope


def _linear_evaluators(p: Dict[str, float]):
    b0, bx, bx1, bx2, bu = (p[k] for k in ("b0", "bx", "bx1", "bx2", "bu"))
    s0, sx, sx1, sx2, su = (p[k] for k in ("s0", "sx", "sx1", "sx2", "su"))
    f0, fx, fx1, fx2, fy, fz, fu = (p[k] for k in ("f0", "fx", "fx1", "fx2", "fy", "fz", "fu"))
    phi0, phix, phix1 = (p[k] for k in ("phi0", "phix", "phix1"))

    def b(t, x, x1, x2, u):
        return b0 + bx * x + bx1 * x1 + bx2 * x2 + bu * u

    def sigma(t, x, x1, x2, u):
        return s0 + sx * x + sx1 * x1 + sx2 * x2 + su * u

    def f(t, x, x1, x2, y, z, u):
        return f0 + fx * x + fx1 * x1 + fx2 * x2 + fy * y + fz * z + fu * u

    def phi(x, x1):
        return phi0 + phix * x + phix1 * x1

    slopes = dict(b_x=bx, b_x1=bx1, b_x2=bx2, sigma_x=sx, sigma_x1=sx1, sigma_x2=sx2,
                  f_x=fx, f_x1=fx1, f_x2=fx2, f_y=fy, f_z=fz)
    derivs = {slot: _constant(c) for slot, c in slopes.items()}
    derivs.update(phi_x=lambda x, x1: _fill(phix, x, x1),
                  phi_x1=lambda x, x1: _fill(phix1, x, x1))
    return b, sigma, f, phi, derivs


_LINEAR_KEYS = ("b0", "bx", "bx1", "bx2", "bu",
                "s0", "sx", "sx1", "sx2", "su",
                "f0", "fx", "fx1", "fx2", "fy", "fz", "fu",
                "phi0", "phix", "phix1")
_BILINEAR_KEYS = _LINEAR_KEYS + ("bxx1", "bxx2", "sxx1", "sxx2", "clip")
_LQ_KEYS = ("a", "bu", "b0", "sigma0", "q", "r", "fy", "phi_quad", "phi_lin", "phi0")


def _constant_set(lam: float, p: Dict[str, float]) -> CoefficientSet:
    filled = {k: 0.0 for k in _LINEAR_KEYS}
    filled.update(b0=p.get("b0", 0.0), s0=p.get("s0", 0.0),
                  f0=p.get("f0", 0.0), phi0=p.get("phi0", 0.0))
    b, sigma, f, phi, derivs = _linear_evaluators(filled)
    return CoefficientSet(name="constant", lam=lam, b=b, sigma=sigma, f=f, phi=phi,
                          params=dict(p), **derivs)


def _linear_set(lam: float, p: Dict[str, float]) -> CoefficientSet:
    filled = {k: 0.0 for k in _LINEAR_KEYS}
    filled.update(p)
    b, sigma, f, phi, derivs = _linear_evaluators(filled)
    return CoefficientSet(name="linear", lam=lam, b=b, sigma=sigma, f=f, phi=phi,
                          params=dict(p), **derivs)


def _bilinear_set(lam: float, p: Dict[str, float]) -> CoefficientSet:
    filled = {k: 0.0 for k in _BILINEAR_KEYS}
    filled["clip"] = 3.0
    filled.update(p)
    L = float(filled["clip"])
    if L <= 0.0:
        raise ConfigurationError("bilinear clip bound must be positive")
    bxx1, bxx2 = filled["bxx1"], filled["bxx2"]
    sxx1, sxx2 = filled["sxx1"], filled["sxx2"]
    lb, lsigma, lf, lphi, ld = _linear_evaluators(filled)

    # smooth saturation keeps the product terms globally Lipschitz with
    # bounded first derivatives
    def clamp(v):
        return L * np.tanh(np.asarray(v, dtype=float) / L)

    def clamp_d(v):
        return 1.0 / np.cosh(np.asarray(v, dtype=float) / L) ** 2

    def b(t, x, x1, x2, u):
        return lb(t, x, x1, x2, u) + bxx1 * clamp(x) * clamp(x1) + bxx2 * clamp(x) * clamp(x2)

    def sigma(t, x, x1, x2, u):
        return lsigma(t, x, x1, x2, u) + sxx1 * clamp(x) * clamp(x1) + sxx2 * clamp(x) * clamp(x2)

    derivs = dict(ld)
    derivs["b_x"] = lambda t, x, x1, x2, u: (ld["b_x"](t, x, x1, x2, u)
                                             + bxx1 * clamp_d(x) * clamp(x1)
                                             + bxx2 * clamp_d(x) * clamp(x2))
    derivs["b_x1"] = lambda t, x, x1, x2, u: (ld["b_x1"](t, x, x1, x2, u)
                                              + bxx1 * clamp(x) * clamp_d(x1))
    derivs["b_x2"] = lambda t, x, x1, x2, u: (ld["b_x2"](t, x, x1, x2, u)
                                              + bxx2 * clamp(x) * clamp_d(x2))
    derivs["sigma_x"] = lambda t, x, x1, x2, u: (ld["sigma_x"](t, x, x1, x2, u)
                                                 + sxx1 * clamp_d(x) * clamp(x1)
                                                 + sxx2 * clamp_d(x) * clamp(x2))
    derivs["sigma_x1"] = lambda t, x, x1, x2, u: (ld["sigma_x1"](t, x, x1, x2, u)
                                                  + sxx1 * clamp(x) * clamp_d(x1))
    derivs["sigma_x2"] = lambda t, x, x1, x2, u: (ld["sigma_x2"](t, x, x1, x2, u)
                                                  + sxx2 * clamp(x) * clamp_d(x2))
    return CoefficientSet(name="bilinear", lam=lam, b=b, sigma=sigma, f=lf, phi=lphi,
                          params=dict(p), **derivs)


def _linear_quadratic_set(lam: float, p: Dict[str, float]) -> CoefficientSet:
    filled = {k: 0.0 for k in _LQ_KEYS}
    filled.update(p)
    a, bu, b0 = filled["a"], filled["bu"], filled["b0"]
    sigma0 = filled["sigma0"]
    q, r, fy = filled["q"], filled["r"], filled["fy"]
    phi_quad, phi_lin, phi0 = filled["phi_quad"], filled["phi_lin"], filled["phi0"]

    def b(t, x, x1, x2, u):
        return _fill(b0 + a * x + bu * u, x, x1, x2, u)

    def sigma(t, x, x1, x2, u):
        return _fill(sigma0, x, x1, x2, u)

    def f(t, x, x1, x2, y, z, u):
        return _fill(-(q * x ** 2 + r * u ** 2) + fy * y, x, x1, x2, y, z, u)

    def phi(x, x1):
        return _fill(phi_quad * x ** 2 + phi_lin * x + phi0, x, x1)

    derivs = dict(
        b_x=_constant(a), b_x1=_constant(0.0), b_x2=_constant(0.0),
        sigma_x=_constant(0.0), sigma_x1=_constant(0.0), sigma_x2=_constant(0.0),
        f_x=lambda t, x, x1, x2, y, z, u: _fill(-2.0 * q * x, x1, x2, y, z, u),
        f_x1=_constant(0.0), f_x2=_constant(0.0), f_y=_constant(fy), f_z=_constant(0.0),
        phi_x=lambda x, x1: _fill(2.0 * phi_quad * x + phi_lin, x1),
        phi_x1=lambda x, x1: _fill(0.0, x, x1),
    )
    return CoefficientSet(name="linear_quadratic", lam=lam, b=b, sigma=sigma, f=f, phi=phi,
                          params=dict(p), **derivs)


FAMILIES = {
    "constant": (_constant_set, ("b0", "s0", "f0", "phi0")),
    "linear": (_linear_set, _LINEAR_KEYS),
    "bilinear": (_bilinear_set, _BILINEAR_KEYS),
    "linear_quadratic": (_linear_quadratic_set, _LQ_KEYS),
}


def make_coefficients(family: str, lam: float = 0.0, **params) -> CoefficientSet:
    """Build a coefficient set from the named parametric family.

    Unknown parameter names raise; omitted parameters default to zero
    (``clip`` defaults to 3.0 for the bilinear family).
    """
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown coefficient family {family!r}; known: {sorted(FAMILIES)}"
        )
    builder, keys = FAMILIES[family]
    unknown = set(params) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown parameters for family {family!r}: {sorted(unknown)}")
    coeffs = builder(float(lam), {k: float(v) for k, v in params.items()})
    _REGISTRY_EVALUATORS.update((coeffs.b, coeffs.sigma, coeffs.f))
    return coeffs

