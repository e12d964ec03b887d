"""Coefficient bundles: drift, diffusion, cost driver, terminal cost.

A :class:`CoefficientSet` carries the evaluators

    b(t, x, x1, x2, u)          drift
    sigma(t, x, x1, x2, u)      diffusion
    f(t, x, x1, x2, y, z, u)    recursive-cost driver
    phi(x, x1)                  terminal cost (Phi; capitalized to keep it
                                apart from the initial history segment)

together with their first derivatives in the state/cost slots and the
distributed-delay decay rate ``lam``.  A derivative that is constant is
stored as its number; the others are evaluators.  Evaluators must be
pure, vectorized over numpy arrays, and reentrant.

Sets are normally built from the parametric registry below (families
``constant``, ``linear``, ``bilinear``, ``linear_quadratic``), which keeps
all derivatives analytic and the linear-growth bound structural.  Callers
may also assemble a :class:`CoefficientSet` from arbitrary callables.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Union

import numpy as np

from .core import ConfigurationError

# a derivative slot: the number of a constant derivative, or an evaluator
Slope = Union[float, Callable]


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

    ``x1_free`` holds, by the same identity rule, while ``b``, ``sigma``,
    ``f`` and ``phi`` are evaluators the registry built reading no ``x1``
    (today those of ``linear_quadratic``); the value function is then flat
    in x1 and the HJB sweep solves one x1 column.  The other families
    evaluate ``bx1 * x1`` and the like even where the factor is 0, and a
    ``0.0 * x1`` term can flip the sign of an exact-zero sum.

    Each derivative slot holds a number where the derivative is constant,
    as the registry stores it (``-0.0`` as ``+0.0``, the value an evaluator
    pads with), or an evaluator.  :meth:`slope` is the one reader of a
    slope: it returns the number, which multiplies as an array filled with
    it, and calls no evaluator for it; the variational remainders skip it.
    """

    name: str
    lam: float
    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    b_x: Slope
    b_x1: Slope
    b_x2: Slope
    sigma_x: Slope
    sigma_x1: Slope
    sigma_x2: Slope
    f_x: Slope
    f_x1: Slope
    f_x2: Slope
    f_y: Slope
    f_z: Slope
    phi_x: Slope
    phi_x1: Slope
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def time_free(self) -> bool:
        """Are b, sigma and f the registry's own (t-free) evaluators?"""
        return all(fn in _REGISTRY_EVALUATORS for fn in (self.b, self.sigma, self.f))

    @property
    def x1_free(self) -> bool:
        """Are b, sigma, f and phi registry evaluators that read no x1?"""
        return all(fn in _X1_FREE_EVALUATORS for fn in (self.b, self.sigma, self.f, self.phi))

    def slope(self, slot: str, *args):
        """The derivative in ``slot`` at ``args``: the stored number, or the
        evaluator's value."""
        d = getattr(self, slot)
        return d(*args) if callable(d) else d

    def a_part(self, t, x, x1, x2, u):
        """Driver with the (y, z) slots zeroed: a(t,x,x1,x2,u) = f(t,...,0,0,u)."""
        return self.f(t, x, x1, x2, 0.0, 0.0, u)


# b, sigma and f of every set make_coefficients built, held by identity
_REGISTRY_EVALUATORS = weakref.WeakSet()
# b, sigma, f and phi of the registry sets whose formulas read no x1
_X1_FREE_EVALUATORS = weakref.WeakSet()


def _linear(p: Dict[str, float]) -> Dict[str, Slope]:
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

    # c + 0.0 is what _fill pads an array with (so -0.0 is stored as +0.0)
    slopes = dict(b_x=bx, b_x1=bx1, b_x2=bx2, sigma_x=sx, sigma_x1=sx1, sigma_x2=sx2,
                  f_x=fx, f_x1=fx1, f_x2=fx2, f_y=fy, f_z=fz, phi_x=phix, phi_x1=phix1)
    return dict({slot: c + 0.0 for slot, c in slopes.items()}, b=b, sigma=sigma, f=f, phi=phi)


def _bilinear(p: Dict[str, float]) -> Dict[str, Slope]:
    L = p["clip"]
    if L <= 0.0:
        raise ConfigurationError("bilinear clip bound must be positive")
    ld = _linear(p)

    # smooth saturation keeps the product terms globally Lipschitz with
    # bounded first derivatives
    def clamp(v):
        return L * np.tanh(np.asarray(v, dtype=float) / L)

    def clamp_d(v):
        return 1.0 / np.cosh(np.asarray(v, dtype=float) / L) ** 2

    def product_rule(name, c1, c2):
        """``name``'s linear part plus c1*clamp(x)*clamp(x1) +
        c2*clamp(x)*clamp(x2), and its x, x1 and x2 slopes."""
        lin, d_x, d_x1, d_x2 = (ld[name + s] for s in ("", "_x", "_x1", "_x2"))

        def value(t, x, x1, x2, u):
            return lin(t, x, x1, x2, u) + c1 * clamp(x) * clamp(x1) + c2 * clamp(x) * clamp(x2)

        def slope_x(t, x, x1, x2, u):
            return (_fill(d_x, x, x1, x2, u) + c1 * clamp_d(x) * clamp(x1)
                    + c2 * clamp_d(x) * clamp(x2))

        def slope_x1(t, x, x1, x2, u):
            return _fill(d_x1, x, x1, x2, u) + c1 * clamp(x) * clamp_d(x1)

        def slope_x2(t, x, x1, x2, u):
            return _fill(d_x2, x, x1, x2, u) + c2 * clamp(x) * clamp_d(x2)

        return {name: value, name + "_x": slope_x, name + "_x1": slope_x1,
                name + "_x2": slope_x2}

    return dict(ld, **product_rule("b", p["bxx1"], p["bxx2"]),
                **product_rule("sigma", p["sxx1"], p["sxx2"]))


def _linear_quadratic(p: Dict[str, float]) -> Dict[str, Slope]:
    a, bu, b0 = p["a"], p["bu"], p["b0"]
    sigma0 = p["sigma0"]
    q, r, fy = p["q"], p["r"], p["fy"]
    phi_quad, phi_lin, phi0 = p["phi_quad"], p["phi_lin"], p["phi0"]

    def b(t, x, x1, x2, u):
        return _fill(b0 + a * x + bu * u, x, x1, x2, u)

    def sigma(t, x, x1, x2, u):
        return _fill(sigma0, x, x1, x2, u)

    def f(t, x, x1, x2, y, z, u):
        return _fill(-(q * x ** 2 + r * u ** 2) + fy * y, x, x1, x2, y, z, u)

    def phi(x, x1):
        return _fill(phi_quad * x ** 2 + phi_lin * x + phi0, x, x1)

    _X1_FREE_EVALUATORS.update((b, sigma, f, phi))
    return dict(
        b=b, sigma=sigma, f=f, phi=phi,
        b_x=a + 0.0, b_x1=0.0, b_x2=0.0, sigma_x=0.0, sigma_x1=0.0, sigma_x2=0.0,
        f_x=lambda t, x, x1, x2, y, z, u: _fill(-2.0 * q * x, x1, x2, y, z, u),
        f_x1=0.0, f_x2=0.0, f_y=fy + 0.0, f_z=0.0,
        phi_x=lambda x, x1: _fill(2.0 * phi_quad * x + phi_lin, x1), phi_x1=0.0,
    )


_LINEAR_KEYS = ("b0", "bx", "bx1", "bx2", "bu",
                "s0", "sx", "sx1", "sx2", "su",
                "f0", "fx", "fx1", "fx2", "fy", "fz", "fu",
                "phi0", "phix", "phix1")
_BILINEAR_KEYS = _LINEAR_KEYS + ("bxx1", "bxx2", "sxx1", "sxx2", "clip")
_LQ_KEYS = ("a", "bu", "b0", "sigma0", "q", "r", "fy", "phi_quad", "phi_lin", "phi0")
# every key a family builder reads, at the value an omitted parameter takes
_DEFAULTS = dict.fromkeys(_BILINEAR_KEYS + _LQ_KEYS, 0.0) | {"clip": 3.0}

# family -> (builder of its slots from the filled parameters, accepted keys)
FAMILIES = {
    "constant": (_linear, ("b0", "s0", "f0", "phi0")),
    "linear": (_linear, _LINEAR_KEYS),
    "bilinear": (_bilinear, _BILINEAR_KEYS),
    "linear_quadratic": (_linear_quadratic, _LQ_KEYS),
}


def make_coefficients(family: str, lam: float = 0.0, **params) -> CoefficientSet:
    """Build a coefficient set from the named parametric family.

    Unknown parameter names and non-finite values of ``lam`` or a parameter
    raise; omitted parameters default to zero (``clip`` defaults to 3.0 for
    the bilinear family).
    """
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown coefficient family {family!r}; known: {sorted(FAMILIES)}"
        )
    builder, keys = FAMILIES[family]
    unknown = set(params) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown parameters for family {family!r}: {sorted(unknown)}")
    given = {k: float(v) for k, v in params.items()}
    bad = sorted(k for k, v in dict(given, lam=float(lam)).items() if not math.isfinite(v))
    if bad:
        raise ConfigurationError(f"non-finite values for family {family!r}: {bad}")
    coeffs = CoefficientSet(name=family, lam=float(lam), params=given,
                            **builder(_DEFAULTS | given))
    _REGISTRY_EVALUATORS.update((coeffs.b, coeffs.sigma, coeffs.f))
    return coeffs

